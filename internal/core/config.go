// Package core implements HTPGM, the Hierarchical Temporal Pattern Graph
// Mining algorithm of the paper (§IV, Alg 1), in its exact form (E-HTPGM)
// and — combined with a correlation filter derived from mutual information
// (package mi) — its approximate form A-HTPGM (§V, Alg 2).
//
// The miner is levelwise: frequent single events (L1), frequent 2-event
// patterns (L2), then k-event patterns (L_k) built by extending the stored
// occurrences of level k-1 patterns. Two groups of pruning techniques can
// be toggled independently for the paper's ablation study (Figs 6-7):
//
//   - Apriori pruning (Lemmas 2-3): event combinations are support- and
//     confidence-filtered with bitmap ANDs before any relation is verified.
//   - Transitivity pruning (Lemmas 4-7): single events that appear in no
//     frequent (k-1)-pattern are excluded from candidate generation
//     (Filtered1Freq), nodes without frequent patterns ("brown" nodes) are
//     removed, and every new relation triple is verified against L2 before
//     an occurrence is accepted.
package core

import (
	"fmt"
	"math"

	"ftpm/internal/temporal"
)

// PruningMode selects which pruning groups E-HTPGM applies; the paper's
// Figs 6-7 compare all four.
type PruningMode int

const (
	// PruneAll applies Apriori and transitivity pruning (the default,
	// "(All)-E-HTPGM").
	PruneAll PruningMode = iota
	// PruneNone verifies every candidate combination generated from the
	// frequent single events ("(NoPrune)-E-HTPGM").
	PruneNone
	// PruneApriori applies only the Apriori node filters (Lemmas 2-3).
	PruneApriori
	// PruneTrans applies only the transitivity-based techniques
	// (Lemmas 4-7).
	PruneTrans
)

// String returns the paper's label for the mode.
func (m PruningMode) String() string {
	switch m {
	case PruneAll:
		return "All"
	case PruneNone:
		return "NoPrune"
	case PruneApriori:
		return "Apriori"
	case PruneTrans:
		return "Trans"
	}
	return fmt.Sprintf("PruningMode(%d)", int(m))
}

func (m PruningMode) apriori() bool { return m == PruneAll || m == PruneApriori }
func (m PruningMode) trans() bool   { return m == PruneAll || m == PruneTrans }

// SeriesFilter restricts mining to correlated time series; it is how
// A-HTPGM plugs into the miner (Alg 2). Implementations must be symmetric
// in PairAllowed. Events of the same series are always mined together
// regardless of the filter (a series is perfectly informative about
// itself: NMI(X;X) = 1).
type SeriesFilter interface {
	// SeriesAllowed reports whether events of the series take part in
	// mining at all (Alg 2 lines 7-8).
	SeriesAllowed(series string) bool
	// PairAllowed reports whether events of the two distinct series may be
	// combined at L2 (Alg 2 lines 9-11).
	PairAllowed(a, b string) bool
}

// EventFilter restricts mining at event granularity — the paper's stated
// future work (§VII): pruning decisions per (series, symbol) event
// instead of per series, backed by NMI between event indicator series
// (see mi.EventGraph). Implementations must be symmetric in
// EventPairAllowed.
type EventFilter interface {
	// EventAllowed reports whether the event participates in mining.
	EventAllowed(series, symbol string) bool
	// EventPairAllowed reports whether the two events may combine at L2.
	EventPairAllowed(aSeries, aSymbol, bSeries, bSymbol string) bool
}

// Config parameterizes one mining run.
type Config struct {
	// MinSupport is the relative support threshold sigma in (0,1].
	MinSupport float64
	// MinConfidence is the confidence threshold delta in [0,1].
	MinConfidence float64
	// Relations carries epsilon and the minimal overlap duration d_o.
	// The zero value is replaced by temporal.DefaultConfig().
	Relations temporal.Config
	// TMax is the maximal pattern duration t_max (Def in §III-C): the span
	// from the first instance's start to the last instance's end must not
	// exceed it. Zero disables the constraint (patterns are still bounded
	// by the sequence window).
	TMax temporal.Duration
	// MaxK bounds the pattern size (level count). Zero mines until a level
	// is empty.
	MaxK int
	// Pruning selects the pruning ablation mode; the zero value is
	// PruneAll.
	Pruning PruningMode
	// Filter, when non-nil, turns the run into A-HTPGM: only events of
	// allowed series are mined and only pairs of correlated series are
	// combined at L2.
	Filter SeriesFilter
	// EventFilter, when non-nil, applies the finer event-level pruning
	// (future-work extension): events and event pairs are filtered by the
	// event-level correlation graph. It may be combined with Filter; both
	// must then allow a candidate.
	EventFilter EventFilter
	// KeepGraph retains the full Hierarchical Pattern Graph (including
	// occurrence lists) in the result for inspection.
	KeepGraph bool
	// Workers shards candidate verification over this many goroutines
	// (0 or 1 = serial); the façade's A-HTPGM runs build their
	// series-level pairwise NMI table on as many. Results are
	// byte-identical to serial runs; this is an extension over the
	// paper's single-threaded implementation.
	Workers int
	// WorkersFunc, when non-nil, renegotiates the worker count at each
	// level boundary: it is invoked on the mining goroutine with the level
	// about to be mined (1, 2, 3, ...) and its return value replaces the
	// effective worker count for that whole level. A negative return keeps
	// the current grant. The count is stable within a level — every fan-out
	// of one level sees the same value — so results stay byte-identical
	// across any sequence of grants (worker count never affects mined
	// output, only parallelism). Long-running schedulers (the job server's
	// fair-share budget) use it to rebalance a running job's parallelism
	// when other jobs arrive or finish mid-run.
	WorkersFunc func(level int) int
	// Progress, when non-nil, is invoked on the mining goroutine after
	// each level completes, with that level's final counters (a copy).
	// Long-running callers (the job server) use it to surface per-level
	// progress; the callback must return quickly since it blocks the next
	// level.
	Progress func(LevelStats)
}

// Validate checks threshold ranges and the relation parameters.
func (c Config) Validate() error {
	if c.MinSupport <= 0 || c.MinSupport > 1 {
		return fmt.Errorf("core: MinSupport must be in (0,1], got %v", c.MinSupport)
	}
	if c.MinConfidence < 0 || c.MinConfidence > 1 {
		return fmt.Errorf("core: MinConfidence must be in [0,1], got %v", c.MinConfidence)
	}
	if c.TMax < 0 {
		return fmt.Errorf("core: TMax must be non-negative, got %d", c.TMax)
	}
	if c.MaxK < 0 {
		return fmt.Errorf("core: MaxK must be non-negative, got %d", c.MaxK)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be non-negative, got %d", c.Workers)
	}
	if c.Pruning < PruneAll || c.Pruning > PruneTrans {
		return fmt.Errorf("core: unknown pruning mode %d", int(c.Pruning))
	}
	rel := c.relations()
	if err := rel.Validate(); err != nil {
		return err
	}
	return nil
}

// relations returns the relation parameters with defaults applied.
func (c Config) relations() temporal.Config {
	if c.Relations == (temporal.Config{}) {
		return temporal.DefaultConfig()
	}
	return c.Relations
}

// AbsoluteSupport converts the relative threshold to the absolute sequence
// count for a database of n sequences (at least 1).
func (c Config) AbsoluteSupport(n int) int {
	s := int(math.Ceil(c.MinSupport * float64(n)))
	if s < 1 {
		s = 1
	}
	return s
}
