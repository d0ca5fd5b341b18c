package ftpm

import (
	"encoding/json"
	"fmt"
	"io"
)

// JSON export of mining results: a stable, self-describing document with
// event names resolved through the vocabulary, so downstream tools do not
// need the internal event ids.

// ResultJSON is the document shape of Result.ExportJSON.
type ResultJSON struct {
	Sequences       int           `json:"sequences"`
	AbsoluteSupport int           `json:"absolute_support"`
	Mu              float64       `json:"mu,omitempty"`
	Singles         []SingleJSON  `json:"frequent_events"`
	Patterns        []PatternJSON `json:"patterns"`
}

// SingleJSON is one frequent single event.
type SingleJSON struct {
	Event      string  `json:"event"`
	Support    int     `json:"support"`
	RelSupport float64 `json:"rel_support"`
}

// TripleJSON is one (event, relation, event) element of a pattern.
type TripleJSON struct {
	A        string `json:"a"`
	Relation string `json:"relation"` // "follow" | "contain" | "overlap"
	B        string `json:"b"`
}

// IntervalJSON is a sample instance interval.
type IntervalJSON struct {
	Event string `json:"event"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// PatternJSON is one mined temporal pattern.
type PatternJSON struct {
	K          int            `json:"k"`
	Events     []string       `json:"events"` // chronological role order
	Triples    []TripleJSON   `json:"triples"`
	Support    int            `json:"support"`
	RelSupport float64        `json:"rel_support"`
	Confidence float64        `json:"confidence"`
	Sample     []IntervalJSON `json:"sample,omitempty"`
}

func relationName(r Relation) string {
	switch r {
	case Follow:
		return "follow"
	case Contain:
		return "contain"
	case Overlap:
		return "overlap"
	}
	return "none"
}

// Document builds the exportable representation of the result. Each
// event's name is resolved once, however many patterns name it, and the
// patterns' events, triples and samples are cut from one backing array
// each; every cut is capped at its length, so appending to one pattern's
// slice copies it rather than writing into the next pattern's elements.
// A slice with no elements stays nil.
func (r *Result) Document() ResultJSON {
	doc := ResultJSON{
		Sequences:       r.Stats.Sequences,
		AbsoluteSupport: r.Stats.AbsoluteSupport,
		Mu:              r.Mu,
	}
	vocab := r.DB.Vocab
	names := make([]string, vocab.Size()) // "" until resolved: a name is never empty
	name := func(e EventID) string {
		if names[e] == "" {
			names[e] = vocab.Name(e)
		}
		return names[e]
	}
	if len(r.Singles) > 0 {
		doc.Singles = make([]SingleJSON, len(r.Singles))
	}
	for i, s := range r.Singles {
		doc.Singles[i] = SingleJSON{Event: name(s.Event), Support: s.Support, RelSupport: s.RelSupport}
	}

	var nEvents, nTriples, nSample int
	for i := range r.Patterns {
		k := r.Patterns[i].Pattern.K()
		nEvents += k
		nTriples += k * (k - 1) / 2
		if r.hasSample(&r.Patterns[i]) {
			nSample += k
		}
	}
	events := make([]string, nEvents)
	triples := make([]TripleJSON, nTriples)
	sample := make([]IntervalJSON, nSample)
	if len(r.Patterns) > 0 {
		doc.Patterns = make([]PatternJSON, len(r.Patterns))
	}
	for i := range r.Patterns {
		p := &r.Patterns[i]
		k := p.Pattern.K()
		pj := &doc.Patterns[i]
		*pj = PatternJSON{
			K:          k,
			Events:     cut(&events, k),
			Triples:    cut(&triples, k*(k-1)/2),
			Support:    p.Support,
			RelSupport: p.RelSupport,
			Confidence: p.Confidence,
		}
		for j, e := range p.Pattern.Events {
			pj.Events[j] = name(e)
		}
		t := 0
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				pj.Triples[t] = TripleJSON{A: pj.Events[a], Relation: relationName(p.Pattern.Relation(a, b)), B: pj.Events[b]}
				t++
			}
		}
		if r.hasSample(p) {
			pj.Sample = cut(&sample, k)
			seq := r.DB.Sequences[p.SampleSeq]
			for j, idx := range p.Sample {
				ins := seq.Instances[idx]
				pj.Sample[j] = IntervalJSON{Event: pj.Events[j], Start: ins.Start, End: ins.End}
			}
		}
	}
	return doc
}

// hasSample reports whether p's sample occurrence can be exported: it
// names a sequence of the database and one instance per role.
func (r *Result) hasSample(p *PatternInfo) bool {
	return p.SampleSeq >= 0 && p.SampleSeq < len(r.DB.Sequences) && len(p.Sample) == p.Pattern.K()
}

// cut returns the first n elements of *all, capped at n, and moves *all
// past them; nil when n is 0.
func cut[T any](all *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	s := (*all)[:n:n]
	*all = (*all)[n:]
	return s
}

// ExportJSON writes the result as an indented JSON document.
func (r *Result) ExportJSON(w io.Writer) error {
	if r.DB == nil {
		return fmt.Errorf("ftpm: result has no sequence database attached")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Document())
}
