package core

import (
	"slices"
	"time"

	"ftpm/internal/bitmap"
	"ftpm/internal/events"
	"ftpm/internal/hpg"
	"ftpm/internal/pattern"
)

// EventInfo describes a frequent single event (level L1).
type EventInfo struct {
	Event      events.EventID
	Support    int
	RelSupport float64
	Bitmap     *bitmap.Bitmap
}

// PatternInfo describes one frequent temporal pattern (k >= 2).
type PatternInfo struct {
	Pattern    pattern.Pattern
	Support    int
	RelSupport float64
	Confidence float64
	// SampleSeq and Sample give one concrete supporting occurrence
	// (sequence id plus instance indexes) for rendering, e.g. the
	// "[06:00,07:00] Kitchen=On" style of the paper's Table VI.
	SampleSeq int
	Sample    hpg.Occurrence
}

// LevelStats are the per-level counters of one run; the pruning-ablation
// experiments (Figs 6-7) read them.
type LevelStats struct {
	K int
	// Candidates is the number of event combinations generated.
	Candidates int
	// PrunedApriori counts candidates discarded by the bitmap support or
	// group-confidence filter (Lemmas 2-3).
	PrunedApriori int
	// PrunedTrans counts candidates discarded by Lemma 5 (no frequent
	// relation between the new event and the node).
	PrunedTrans int
	// NodesVerified is the number of combinations that reached relation
	// verification.
	NodesVerified int
	// MemoHits counts the verified pairs (level 2) answered from the
	// view's L2 memo: relations classified in no sequence, or on a delta
	// view only in the sequences past the memo's coverage. When the run
	// keeps occurrences, a hit also means they came from the memo; a pair
	// re-verified to store them is no hit. At level 3 it counts the parent
	// patterns whose extension the view's L_k memo answered: those of every
	// node whose parent patterns all had an entry, so the node swept no
	// sequence. Like Workers it describes how a run went, not what it
	// mined: the other counters read the same whether the memo was warm or
	// cold.
	MemoHits int
	// GreenNodes is the number of nodes holding at least one frequent
	// pattern (paper's green vs brown distinction, step 2.2).
	GreenNodes int
	// Patterns is the number of frequent patterns found at this level.
	Patterns int
	// Occurrences is the number of occurrence tuples stored.
	Occurrences int
	// TripleChecksFailed counts occurrence extensions rejected by the
	// iterative L2 verification (Lemmas 4, 6, 7): one per parent
	// occurrence and instance of the new event whose first failing check
	// is a triple's, whether the triples were classified or the instance
	// lay outside the insert positions the L2 masks allow and was skipped
	// untried.
	TripleChecksFailed int
	// Workers is the effective worker count the level ran with — the
	// grant Config.WorkersFunc (or Config.Workers) gave this level. It is
	// observability only; mined output is byte-identical across grants.
	Workers  int
	Duration time.Duration
}

// Stats aggregates counters over a mining run.
type Stats struct {
	Sequences       int
	AbsoluteSupport int
	// Shards is the number of ingest shards of the mined view (1 for
	// Mine). Shards partition the DSEQ conversion only; the miner runs
	// once over the merged database whatever the width.
	Shards int
	// ShardSequences lists |shard| per shard — the balance check of the
	// sharded registry.
	ShardSequences []int
	// SinglesConsidered / SinglesFrequent count level L1.
	SinglesConsidered int
	SinglesFrequent   int
	// SeriesFiltered counts series excluded by the correlation filter
	// (A-HTPGM, Alg 2 lines 4-5), and PairsFiltered the L2 combinations
	// excluded by missing correlation-graph edges.
	SeriesFiltered int
	PairsFiltered  int
	Levels         []LevelStats
	// Duration is the run's wall time, result assembly included: the
	// level durations plus the remainder account for it.
	Duration time.Duration
}

// TotalPatterns sums the frequent patterns over all levels (k >= 2), the
// quantity reported in the paper's Table V.
func (s Stats) TotalPatterns() int {
	n := 0
	for _, l := range s.Levels {
		n += l.Patterns
	}
	return n
}

// TotalCandidates sums generated candidate combinations over all levels.
func (s Stats) TotalCandidates() int {
	n := 0
	for _, l := range s.Levels {
		n += l.Candidates
	}
	return n
}

// Result is the output of a mining run.
type Result struct {
	// Singles lists the frequent single events in event-id order.
	Singles []EventInfo
	// Patterns lists all frequent temporal patterns, ordered by size then
	// canonical key — deterministic across runs.
	Patterns []PatternInfo
	// Graph is the retained Hierarchical Pattern Graph (nil unless
	// Config.KeepGraph). Its level-2 occurrence stores may be shared with
	// the mined view's memo, so they must not be modified.
	Graph *hpg.Graph
	Stats Stats
}

// PatternKeySet returns the canonical keys of all mined patterns — the
// currency of the accuracy comparison between A-HTPGM and E-HTPGM
// (Table IX).
func (r *Result) PatternKeySet() map[string]bool {
	out := make(map[string]bool, len(r.Patterns))
	for _, p := range r.Patterns {
		out[p.Pattern.Key()] = true
	}
	return out
}

// Accuracy returns |approx ∩ exact| / |exact|: the fraction of the exact
// miner's patterns that the receiver (an approximate run) retained. An
// empty exact set counts as accuracy 1.
func Accuracy(approx, exact *Result) float64 {
	ex := exact.PatternKeySet()
	if len(ex) == 0 {
		return 1
	}
	hit := 0
	for _, p := range approx.Patterns {
		if ex[p.Pattern.Key()] {
			hit++
		}
	}
	return float64(hit) / float64(len(ex))
}

// sortPatterns orders PatternInfos by pattern.Compare — size, then key
// bytes — for deterministic output.
func sortPatterns(ps []PatternInfo) {
	slices.SortFunc(ps, func(a, b PatternInfo) int { return pattern.Compare(a.Pattern, b.Pattern) })
}

// Maximal returns the mined patterns that are not sub-patterns of any
// other mined pattern (Def 3.11's containment): the compact frontier of
// the result set, useful for human inspection since every non-maximal
// pattern is implied by a maximal one with at least its support.
// Quadratic in the number of patterns per adjacent size pair; intended
// for post-processing moderate result sets.
func (r *Result) Maximal() []PatternInfo {
	byK := make(map[int][]PatternInfo)
	maxK := 0
	for _, p := range r.Patterns {
		k := p.Pattern.K()
		byK[k] = append(byK[k], p)
		if k > maxK {
			maxK = k
		}
	}
	var out []PatternInfo
	for k := 2; k <= maxK; k++ {
		for _, p := range byK[k] {
			contained := false
			// A sub-pattern of a (k+d)-pattern is a sub-pattern of one of
			// its (k+1)-sub-patterns, so checking one size up suffices for
			// the "is maximal" decision as long as every level was mined.
			for _, q := range byK[k+1] {
				if p.Pattern.SubPatternOf(q.Pattern) {
					contained = true
					break
				}
			}
			if !contained {
				out = append(out, p)
			}
		}
	}
	sortPatterns(out)
	return out
}
