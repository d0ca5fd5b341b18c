// Event-level mutual information — the paper's stated future work
// (§VII: "we plan to extend HTPGM to perform pruning at the event level").
//
// Series-level NMI (Alg 2) can only prune whole time series. Event-level
// NMI computes the correlation between *event indicator series* — for the
// event (X, s), the binary series 1{X_t = s} — so that individual event
// pairs inside correlated series can be pruned too (e.g. Kitchen=Off may
// be uninformative about Toaster=On even when the Kitchen and Toaster
// series correlate through their On states).
package mi

import (
	"ftpm/internal/bitmap"
	"ftpm/internal/timeseries"
)

// EventKey identifies an event: a (series, symbol) pair.
type EventKey struct {
	Series string
	Symbol string
}

// EventPairwise holds NMI values between all event indicator series of a
// symbolic database.
type EventPairwise struct {
	Keys []EventKey
	// Values[i][j] = NMI of indicator i given indicator j.
	Values [][]float64
}

// ComputeEventPairwise evaluates NMI between every pair of event
// indicator series on one goroutine; it is
// ComputeEventPairwiseWorkers(src, 1).
func ComputeEventPairwise(src timeseries.SymbolSource) (*EventPairwise, error) {
	return ComputeEventPairwiseWorkers(src, 1)
}

// ComputeEventPairwiseWorkers evaluates NMI between every pair of event
// indicator series, the table's rows fanned out over up to workers
// goroutines. Each indicator is the bitmap of its symbol's samples, built
// from the source's maximal runs, so with m total events the table costs
// about m²/2 AND counts of ⌈samples/64⌉ words: a pair's 2×2 joint table
// is one AND count, and its other cells follow from the two occurrence
// counts.
// It is the price of finer pruning and is included in the A-HTPGM timing
// when event-level pruning is enabled. Like ComputePairwiseWorkers, any
// SymbolSource over the same data and any worker count yield a
// bit-identical table.
func ComputeEventPairwiseWorkers(src timeseries.SymbolSource, workers int) (*EventPairwise, error) {
	samples := src.Len()
	var keys []EventKey
	var bits []*bitmap.Bitmap
	var counts [][]int // per indicator: samples without, with the event
	for si := 0; si < src.NumSeries(); si++ {
		name := src.SeriesName(si)
		alpha := src.SeriesAlphabet(si)
		runs := src.AppendRuns(si, nil)
		bits = append(bits, runBitmaps(runs, len(alpha), samples)...)
		for sym, occ := range countsFromRuns(runs, len(alpha)) {
			keys = append(keys, EventKey{Series: name, Symbol: alpha[sym]})
			counts = append(counts, []int{samples - occ, occ})
		}
	}
	entropies := make([]float64, len(keys))
	for i, c := range counts {
		entropies[i] = entropyFromCounts(c, samples)
	}
	values := nmiTable(entropies, workers, 4, func(i, j int, joint []int) float64 {
		both := bits[i].AndCount(bits[j])
		x, y := counts[i][1], counts[j][1]
		joint[0], joint[1], joint[2], joint[3] = samples-x-y+both, y-both, x-both, both
		return nmiFromCounts(joint, counts[i], counts[j], samples, entropies[i])
	})
	return &EventPairwise{Keys: keys, Values: values}, nil
}

// MinNMI returns min(NMI(i;j), NMI(j;i)).
func (p *EventPairwise) MinNMI(i, j int) float64 { return minNMI(p.Values, i, j) }

// MuForDensity chooses the event-level µ realizing the expected density
// of the event correlation graph (the analog of Def 5.6), as
// Pairwise.MuForDensity does.
func (p *EventPairwise) MuForDensity(density float64) (float64, error) {
	return muForDensity(p.Values, density)
}

// EventGraph is the undirected event-level correlation graph; it
// implements the miner's EventFilter.
type EventGraph struct {
	Mu    float64
	index map[EventKey]int
	adj   [][]bool
}

// Graph thresholds the event pairwise matrix at µ.
func (p *EventPairwise) Graph(mu float64) (*EventGraph, error) {
	adj, err := correlated(p.Values, mu)
	if err != nil {
		return nil, err
	}
	g := &EventGraph{Mu: mu, index: make(map[EventKey]int, len(p.Keys)), adj: adj}
	for i, k := range p.Keys {
		g.index[k] = i
	}
	return g, nil
}

// EventAllowed reports whether the event has at least one incident edge.
func (g *EventGraph) EventAllowed(series, symbol string) bool {
	i, ok := g.index[EventKey{Series: series, Symbol: symbol}]
	if !ok {
		return false
	}
	for _, e := range g.adj[i] {
		if e {
			return true
		}
	}
	return false
}

// EventPairAllowed reports whether the two events share an edge. An event
// is always allowed with itself (self-relations).
func (g *EventGraph) EventPairAllowed(aSeries, aSymbol, bSeries, bSymbol string) bool {
	i, ok := g.index[EventKey{Series: aSeries, Symbol: aSymbol}]
	if !ok {
		return false
	}
	j, ok := g.index[EventKey{Series: bSeries, Symbol: bSymbol}]
	if !ok {
		return false
	}
	if i == j {
		return true
	}
	return g.adj[i][j]
}

// NumEdges returns the number of undirected edges.
func (g *EventGraph) NumEdges() int { return numEdges(g.adj) }
