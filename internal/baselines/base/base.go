// Package base carries the shared semantics of the three baseline miners
// (H-DFS, IEMiner, TPMiner): the baselines implement different published
// search strategies, but they must solve exactly the same FTPMfTS problem
// as HTPGM — same relation model, same t_max constraint, same support and
// confidence definitions — so that runtime comparisons are apples to
// apples, as in the paper's evaluation where all methods return identical
// pattern sets.
package base

import (
	"sort"

	"ftpm/internal/core"
	"ftpm/internal/events"
	"ftpm/internal/pattern"
	"ftpm/internal/temporal"
)

// Params is the normalized subset of core.Config the baselines honour.
// Pruning modes and correlation filters are HTPGM features and are
// ignored by the baselines.
type Params struct {
	MinSupport    float64
	MinConfidence float64
	Rel           temporal.Config
	TMax          temporal.Duration
	MaxK          int // normalized: 1<<30 when unbounded
}

// FromConfig validates and extracts baseline parameters.
func FromConfig(cfg core.Config) (Params, error) {
	if err := cfg.Validate(); err != nil {
		return Params{}, err
	}
	rel := cfg.Relations
	if rel == (temporal.Config{}) {
		rel = temporal.DefaultConfig()
	}
	maxK := cfg.MaxK
	if maxK == 0 {
		maxK = 1 << 30
	}
	return Params{
		MinSupport:    cfg.MinSupport,
		MinConfidence: cfg.MinConfidence,
		Rel:           rel,
		TMax:          cfg.TMax,
		MaxK:          maxK,
	}, nil
}

// AbsSupport converts the relative threshold for a database of n
// sequences.
func (p Params) AbsSupport(n int) int {
	return core.Config{MinSupport: p.MinSupport, MinConfidence: p.MinConfidence}.AbsoluteSupport(n)
}

// SpanOK checks the monotone t_max constraint for adding instance ins to a
// tuple that starts at firstStart (see DESIGN.md): the instance must end
// within firstStart + t_max.
func (p Params) SpanOK(firstStart temporal.Time, ins events.Instance) bool {
	if p.TMax <= 0 {
		return true
	}
	return ins.End-firstStart <= p.TMax
}

// EventSupports counts per-event sequence support (the confidence
// denominators of Def 3.16) with a single horizontal scan.
func EventSupports(db *events.DB) map[events.EventID]int {
	supp := make(map[events.EventID]int, db.Vocab.Size())
	for _, s := range db.Sequences {
		for id := 0; id < db.Vocab.Size(); id++ {
			e := events.EventID(id)
			if s.Has(e) {
				supp[e]++
			}
		}
	}
	return supp
}

// MaxEventSupport returns the Def 3.16 denominator for a pattern.
func MaxEventSupport(supp map[events.EventID]int, evs []events.EventID) int {
	mx := 0
	for _, e := range evs {
		if s := supp[e]; s > mx {
			mx = s
		}
	}
	return mx
}

// Found aggregates the supporting sequences of one pattern during a
// baseline run.
type Found struct {
	Pat  pattern.Pattern
	Seqs map[int]bool
}

// Collector gathers mined patterns keyed by canonical pattern key.
type Collector struct {
	m map[string]*Found
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{m: make(map[string]*Found)} }

// Add records that seq supports pat.
func (c *Collector) Add(pat pattern.Pattern, seq int) {
	key := pat.Key()
	f := c.m[key]
	if f == nil {
		f = &Found{Pat: pat, Seqs: make(map[int]bool)}
		c.m[key] = f
	}
	f.Seqs[seq] = true
}

// Len returns the number of distinct patterns collected.
func (c *Collector) Len() int { return len(c.m) }

// Result applies the final sigma/delta thresholds and renders a
// core.Result (patterns only; baselines do not report an HPG). The
// confidence filter is applied here, after mining — the baselines, unlike
// HTPGM, have no confidence-based pruning (paper §II).
func (c *Collector) Result(db *events.DB, p Params, supp map[events.EventID]int) *core.Result {
	n := db.Size()
	minSupp := p.AbsSupport(n)
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
			})
		}
	}

	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f := c.m[k]
		s := len(f.Seqs)
		if s < minSupp {
			continue
		}
		conf := float64(s) / float64(MaxEventSupport(supp, f.Pat.Events))
		if conf < p.MinConfidence {
			continue
		}
		res.Patterns = append(res.Patterns, core.PatternInfo{
			Pattern:    f.Pat,
			Support:    s,
			RelSupport: float64(s) / float64(n),
			Confidence: conf,
			SampleSeq:  -1,
		})
	}
	sort.Slice(res.Patterns, func(i, j int) bool {
		a, b := res.Patterns[i].Pattern, res.Patterns[j].Pattern
		if a.K() != b.K() {
			return a.K() < b.K()
		}
		return a.Key() < b.Key()
	})
	return res
}

// PatternOf derives the induced pattern of a chronological instance tuple,
// classifying all pairs; ok is false if any pair has no relation.
func PatternOf(seq *events.Sequence, tuple []int32, rel temporal.Config) (pattern.Pattern, bool) {
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

// AppendPattern extends a chronological-prefix pattern with one event at
// the end, given the relations of the new event to each existing role.
func AppendPattern(parent pattern.Pattern, newEvent events.EventID, newRels []temporal.Relation) pattern.Pattern {
	k := parent.K() + 1
	evs := append(append([]events.EventID(nil), parent.Events...), newEvent)
	rels := make([]temporal.Relation, pattern.TriLen(k))
	for i := 0; i < parent.K(); i++ {
		for j := i + 1; j < parent.K(); j++ {
			rels[pattern.TriIndex(i, j, k)] = parent.Relation(i, j)
		}
		rels[pattern.TriIndex(i, k-1, k)] = newRels[i]
	}
	return pattern.New(evs, rels)
}
