// Package ftpm is a Go implementation of FTPMfTS — Frequent Temporal
// Pattern Mining from Time Series — as described in:
//
//	Van Long Ho, Nguyen Ho, Torben Bach Pedersen:
//	"Efficient Temporal Pattern Mining in Big Time Series Using Mutual
//	Information", PVLDB 2021 (arXiv:2010.03653).
//
// The library covers the complete end-to-end process of the paper:
//
//  1. Data transformation: raw time series are encoded into symbolic
//     representations (threshold or quantile mapping functions, Def 3.2)
//     and split into a temporal sequence database DSEQ with optional
//     window overlap so patterns crossing window boundaries are preserved
//     (§IV-B, Fig 3).
//  2. Exact mining: E-HTPGM, the Hierarchical Temporal Pattern Graph
//     Mining algorithm, finds all temporal patterns — lists of pairwise
//     Follow / Contain / Overlap relations between event instances —
//     whose support and confidence meet the thresholds (§IV, Alg 1),
//     using bitmap indexes, Apriori pruning (Lemmas 2-3) and
//     transitivity pruning (Lemmas 4-7).
//  3. Approximate mining: A-HTPGM prunes uncorrelated time series up
//     front using normalized mutual information and a correlation graph,
//     trading a bounded accuracy loss for order-of-magnitude speedups
//     (§V, Alg 2, Theorem 1).
//
// # Quick start
//
//	series := []*ftpm.TimeSeries{kitchen, toaster, microwave}
//	sdb, _ := ftpm.Symbolize(series, func(string) ftpm.Symbolizer {
//		return ftpm.OnOff(0.05) // On when the reading is >= 0.05
//	})
//	res, _ := ftpm.MineSymbolic(ctx, sdb, ftpm.Options{
//		MinSupport:    0.2,
//		MinConfidence: 0.5,
//		NumWindows:    24,
//	})
//	for _, p := range res.Patterns {
//		fmt.Println(res.Describe(p))
//	}
//
// Setting Options.Approx enables A-HTPGM; see examples/ for end-to-end
// programs and cmd/ftpm for the command-line interface.
//
// # Prepared datasets
//
// The process above is staged — Prepare (fix the dataset geometry),
// Analyze (derive the DSEQ conversion and pairwise NMI tables), Mine
// (threshold and search) — and the expensive middle stage depends only
// on the data and geometry, never on the thresholds. Callers mining the
// same database repeatedly should build the stages' artifacts once:
//
//	prep, _ := ftpm.Prepare(sdb, ftpm.SplitOptions{NumWindows: 24}, shards)
//	for _, sigma := range []float64{0.2, 0.3, 0.5} {
//		res, _ := prep.Mine(ctx, ftpm.Options{
//			MinSupport: sigma, MinConfidence: 0.5,
//			Approx:     &ftpm.ApproxOptions{Density: 0.6},
//		})
//		// res.Cache reports which artifacts the run reused.
//	}
//
// A Prepared memoizes the sharded DSEQ conversion (with its merged view)
// and the series- and event-level NMI tables; every Mine — exact or
// approximate, any thresholds — reuses them, so repeat A-HTPGM runs skip
// the O(n²) mutual-information analysis entirely. MineSymbolic is a thin
// wrapper over a one-shot Prepared.
//
// When the database grows — new samples appended to every series —
// Prepared.Advance carries a handle forward instead of starting over:
//
//	next, _ := prep.Advance(ftpm.NewAnalysis(extendedSDB))
//
// Advance validates that the new database is a strict temporal extension
// of the old one (same series names and grid, alphabets extended but
// never renumbered), reuses every window the appended samples cannot
// have touched, re-cuts only the unstable suffix, and patches the L1
// support index for just those sequences; the NMI tables are rebuilt
// lazily, since appended samples change every pairwise score. Mining an
// advanced handle is byte-identical to a cold Prepare of the extended
// database, and the original handle keeps serving its own view.
package ftpm

import (
	"ftpm/internal/core"
	"ftpm/internal/events"
	"ftpm/internal/mi"
	"ftpm/internal/pattern"
	"ftpm/internal/temporal"
	"ftpm/internal/timeseries"
)

// Re-exported substrate types. They live in internal packages; the
// aliases below are the supported way to name them from outside.
type (
	// Time is a point in time in ticks (the library does not impose a
	// unit; the examples use seconds).
	Time = temporal.Time
	// Duration is a span of ticks.
	Duration = temporal.Duration
	// Interval is a closed-open time interval.
	Interval = temporal.Interval
	// Relation is one of the temporal relations Follow, Contain, Overlap.
	Relation = temporal.Relation

	// TimeSeries is a regularly sampled numeric series (Def 3.1).
	TimeSeries = timeseries.Series
	// Symbolizer maps raw values to symbols (Def 3.2).
	Symbolizer = timeseries.Symbolizer
	// SymbolicSeries is a symbolic representation of one series.
	SymbolicSeries = timeseries.SymbolicSeries
	// SymbolicDB is the symbolic database DSYB (Def 3.3).
	SymbolicDB = timeseries.SymbolicDB
	// SymbolSource is a read-only columnar view of a symbolic database:
	// the surface the DSEQ conversion and the NMI analysis consume.
	// *SymbolicDB implements it, as do out-of-core views such as the
	// server's mmap'd segment files; mining through any SymbolSource
	// over the same data is byte-identical.
	SymbolSource = timeseries.SymbolSource
	// Run is one maximal symbol run of a symbolic series, as yielded by
	// SymbolSource.AppendRuns.
	Run = timeseries.Run

	// EventID identifies an interned (series, symbol) event.
	EventID = events.EventID
	// Vocab interns events.
	Vocab = events.Vocab
	// Instance is one occurrence of an event (Def 3.5).
	Instance = events.Instance
	// Sequence is a temporal sequence (Def 3.9).
	Sequence = events.Sequence
	// SequenceDB is the temporal sequence database DSEQ (Def 3.10).
	SequenceDB = events.DB
	// SplitOptions controls the DSYB -> DSEQ conversion (§IV-B2).
	SplitOptions = events.SplitOptions

	// Pattern is a temporal pattern (Def 3.11).
	Pattern = pattern.Pattern
	// PatternInfo is one mined pattern with support and confidence.
	PatternInfo = core.PatternInfo
	// EventInfo is one frequent single event.
	EventInfo = core.EventInfo
	// Stats carries the per-level mining counters.
	Stats = core.Stats
	// LevelStats carries the counters of one mined level; Options.Progress
	// receives one per completed level.
	LevelStats = core.LevelStats
	// PruningMode selects the E-HTPGM pruning ablation.
	PruningMode = core.PruningMode

	// CorrelationGraph is the undirected NMI graph of A-HTPGM (Def 5.5).
	CorrelationGraph = mi.Graph
	// EventCorrelationGraph is the event-level NMI graph of the
	// future-work extension (ApproxOptions.EventLevel).
	EventCorrelationGraph = mi.EventGraph
)

// Relation constants (Defs 3.6-3.8).
const (
	Follow  = temporal.Follow
	Contain = temporal.Contain
	Overlap = temporal.Overlap
)

// AllenRelation exposes the full Allen taxonomy (diagnostic extension;
// the miner uses the paper's simplified three-relation model).
type AllenRelation = temporal.AllenRelation

// Allen relation constants.
const (
	AllenBefore   = temporal.AllenBefore
	AllenMeets    = temporal.AllenMeets
	AllenOverlaps = temporal.AllenOverlaps
	AllenStarts   = temporal.AllenStarts
	AllenDuring   = temporal.AllenDuring
	AllenFinishes = temporal.AllenFinishes
	AllenEquals   = temporal.AllenEquals
)

// ClassifyAllen returns the Allen relation between two intervals in
// canonical order, using buffer epsilon; Simplify() maps it onto the
// mining model.
func ClassifyAllen(a, b Interval, epsilon Duration) AllenRelation {
	cfg := temporal.Config{Epsilon: epsilon, MinOverlap: epsilon + 1}
	return cfg.ClassifyAllen(a, b)
}

// Pruning modes of E-HTPGM (Figs 6-7 ablation).
const (
	PruneAll     = core.PruneAll
	PruneNone    = core.PruneNone
	PruneApriori = core.PruneApriori
	PruneTrans   = core.PruneTrans
)

// NewTimeSeries constructs a numeric time series sampled every step ticks
// from start.
func NewTimeSeries(name string, start Time, step Duration, values []float64) (*TimeSeries, error) {
	return timeseries.NewSeries(name, start, step, values)
}

// OnOff returns the two-symbol threshold mapper of the paper's energy
// datasets: "On" when the value is at or above the threshold, "Off"
// otherwise.
func OnOff(threshold float64) Symbolizer { return timeseries.NewOnOff(threshold) }

// Quantile returns a multi-state mapper whose cut points are the given
// percentiles of the observed values (§VI-A2), e.g. 5 labels with
// percentiles 10, 25, 50, 75.
func Quantile(values []float64, percentiles []float64, labels []string) (Symbolizer, error) {
	return timeseries.NewQuantileSymbolizer(values, percentiles, labels)
}

// ParseSymbols builds a symbolic series from whitespace-separated symbol
// names over the given alphabet.
func ParseSymbols(name string, start Time, step Duration, alphabet []string, row string) (*SymbolicSeries, error) {
	return timeseries.ParseSymbols(name, start, step, alphabet, row)
}

// Symbolize encodes a set of aligned numeric series into a symbolic
// database, choosing each series' mapping function by name.
func Symbolize(series []*TimeSeries, mapperFor func(name string) Symbolizer) (*SymbolicDB, error) {
	out := make([]*SymbolicSeries, len(series))
	for i, s := range series {
		out[i] = s.Symbolize(mapperFor(s.Name))
	}
	return timeseries.NewSymbolicDB(out...)
}

// NewSymbolicDB wraps aligned symbolic series into a database.
func NewSymbolicDB(series ...*SymbolicSeries) (*SymbolicDB, error) {
	return timeseries.NewSymbolicDB(series...)
}

// BuildSequences converts a symbolic database into the temporal sequence
// database DSEQ (§IV-B2).
func BuildSequences(db SymbolSource, opt SplitOptions) (*SequenceDB, error) {
	return events.Convert(db, opt)
}

// NMI returns the normalized mutual information of two aligned symbolic
// series (Def 5.3).
func NMI(x, y *SymbolicSeries) (float64, error) { return mi.NMI(x, y) }

// CorrelationGraphAt computes the correlation graph of the database at MI
// threshold mu (Def 5.5).
func CorrelationGraphAt(db SymbolSource, mu float64) (*CorrelationGraph, error) {
	pw, err := mi.ComputePairwise(db)
	if err != nil {
		return nil, err
	}
	return pw.Graph(mu)
}

// CorrelationGraphByDensity computes the correlation graph whose edge
// count realizes the expected density (Def 5.6) — the paper's
// "µ = X% of edges" settings. It returns the graph and the chosen µ.
// Density 0 is the degenerate sweep endpoint: µ lands just above the
// largest pairwise min-NMI, leaving the graph empty (above 1 when some
// pair is perfectly correlated).
func CorrelationGraphByDensity(db SymbolSource, density float64) (*CorrelationGraph, float64, error) {
	pw, err := mi.ComputePairwise(db)
	if err != nil {
		return nil, 0, err
	}
	// Resolved directly rather than through mi.ResolveMu (which rejects
	// density 0 — a mining run needs a positive µ selector) so the full
	// 0..100% sweep stays usable here.
	mu, err := pw.MuForDensity(density)
	if err != nil {
		return nil, 0, err
	}
	g, err := pw.Graph(mu)
	if err != nil {
		return nil, 0, err
	}
	return g, mu, nil
}

// ConfidenceLowerBound evaluates Theorem 1: the guaranteed DSEQ confidence
// of a frequent event pair of µ-correlated series, given the support
// threshold sigma, the pair's maximum DSYB support sigmaM, and the
// alphabet size nx.
func ConfidenceLowerBound(sigma, sigmaM, mu float64, nx int) (float64, error) {
	return mi.ConfidenceLowerBound(sigma, sigmaM, mu, nx)
}
