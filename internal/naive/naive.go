// Package naive is a brute-force reference implementation of the FTPMfTS
// problem definition (paper §III-D): it enumerates every chronological
// instance tuple of every sequence, derives the induced pattern, and
// filters by support and confidence at the end. It shares no mining logic
// with HTPGM and serves as the ground-truth oracle in correctness tests of
// the optimized miners. Exponential — only for small inputs.
package naive

import (
	"sort"

	"ftpm/internal/bitmap"
	"ftpm/internal/core"
	"ftpm/internal/events"
	"ftpm/internal/pattern"
	"ftpm/internal/temporal"
)

// Mine enumerates all frequent temporal patterns of the database under the
// configuration's thresholds. Pruning modes and filters are ignored; the
// relation parameters, TMax and MaxK are honoured.
func Mine(db *events.DB, cfg core.Config) (*core.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rel := cfg.Relations
	if rel == (temporal.Config{}) {
		rel = temporal.DefaultConfig()
	}
	n := db.Size()
	minSupp := cfg.AbsoluteSupport(n)
	maxK := cfg.MaxK
	if maxK == 0 {
		maxK = 1 << 30
	}

	// Single-event supports (confidence denominators).
	supp := make(map[events.EventID]int)
	bms := make(map[events.EventID]*bitmap.Bitmap)
	for id := 0; id < db.Vocab.Size(); id++ {
		e := events.EventID(id)
		bm := bitmap.New(n)
		for _, s := range db.Sequences {
			if s.Has(e) {
				bm.Set(s.ID)
			}
		}
		supp[e] = bm.Count()
		bms[e] = bm
	}

	type agg struct {
		pat pattern.Pattern
		bm  *bitmap.Bitmap
	}
	found := make(map[string]*agg)

	for seqIdx, seq := range db.Sequences {
		e := enumerator{
			seq:  seq,
			rel:  rel,
			tmax: cfg.TMax,
			maxK: maxK,
			emit: func(tuple []int32) {
				pat, ok := patternOf(seq, tuple, rel)
				if !ok {
					return
				}
				key := pat.Key()
				a := found[key]
				if a == nil {
					a = &agg{pat: pat, bm: bitmap.New(n)}
					found[key] = a
				}
				a.bm.Set(seqIdx)
			},
		}
		e.run()
	}

	res := &core.Result{}
	res.Stats.Sequences = n
	res.Stats.AbsoluteSupport = minSupp
	for id := 0; id < db.Vocab.Size(); id++ {
		e := events.EventID(id)
		if supp[e] >= minSupp {
			res.Singles = append(res.Singles, core.EventInfo{
				Event:      e,
				Support:    supp[e],
				RelSupport: float64(supp[e]) / float64(n),
				Bitmap:     bms[e],
			})
		}
	}

	keys := make([]string, 0, len(found))
	for k := range found {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a := found[k]
		s := a.bm.Count()
		if s < minSupp {
			continue
		}
		mx := 0
		for _, ev := range a.pat.Events {
			if supp[ev] > mx {
				mx = supp[ev]
			}
		}
		conf := float64(s) / float64(mx)
		if conf < cfg.MinConfidence {
			continue
		}
		res.Patterns = append(res.Patterns, core.PatternInfo{
			Pattern:    a.pat,
			Support:    s,
			RelSupport: float64(s) / float64(n),
			Confidence: conf,
			SampleSeq:  -1,
		})
	}
	sortByKThenKey(res.Patterns)
	return res, nil
}

func sortByKThenKey(ps []core.PatternInfo) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i].Pattern, ps[j].Pattern
		if a.K() != b.K() {
			return a.K() < b.K()
		}
		return a.Key() < b.Key()
	})
}

// enumerator walks all chronological instance tuples of one sequence with
// sound branch pruning: a tuple containing a relation-less pair can never
// become valid by extension, and the t_max span only grows.
type enumerator struct {
	seq  *events.Sequence
	rel  temporal.Config
	tmax temporal.Duration
	maxK int
	emit func(tuple []int32)

	tuple []int32
}

func (e *enumerator) run() {
	for i := 0; i < e.seq.Len(); i++ {
		ins := e.seq.Instances[i]
		if e.tmax > 0 && ins.End-ins.Start > e.tmax {
			// Monotone t_max form: every instance must end within
			// first.Start + t_max, including the first itself.
			continue
		}
		e.tuple = e.tuple[:0]
		e.tuple = append(e.tuple, int32(i))
		e.extend(i + 1)
	}
}

func (e *enumerator) extend(from int) {
	if len(e.tuple) >= 2 {
		e.emit(append([]int32(nil), e.tuple...))
	}
	if len(e.tuple) >= e.maxK {
		return
	}
	first := e.seq.Instances[e.tuple[0]]
	for j := from; j < e.seq.Len(); j++ {
		cand := e.seq.Instances[j]
		if e.tmax > 0 && cand.Start-first.Start > e.tmax {
			break // instances are chronological; no later start can fit
		}
		if e.tmax > 0 && cand.End-first.Start > e.tmax {
			continue
		}
		// A None relation with any chosen instance poisons all supersets.
		ok := true
		for _, idx := range e.tuple {
			if e.rel.Classify(e.seq.Instances[idx].Interval, cand.Interval) == temporal.None {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		e.tuple = append(e.tuple, int32(j))
		e.extend(j + 1)
		e.tuple = e.tuple[:len(e.tuple)-1]
	}
}

// patternOf derives the induced pattern of a chronological instance tuple;
// ok is false if any pair lacks a relation.
func patternOf(seq *events.Sequence, tuple []int32, rel temporal.Config) (pattern.Pattern, bool) {
	k := len(tuple)
	evs := make([]events.EventID, k)
	for i, idx := range tuple {
		evs[i] = seq.Instances[idx].Event
	}
	rels := make([]temporal.Relation, pattern.TriLen(k))
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			r := rel.Classify(seq.Instances[tuple[i]].Interval, seq.Instances[tuple[j]].Interval)
			if r == temporal.None {
				return pattern.Pattern{}, false
			}
			rels[pattern.TriIndex(i, j, k)] = r
		}
	}
	return pattern.New(evs, rels), true
}
