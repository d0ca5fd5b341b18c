package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durMs(s span) float64 { return float64(s.dur()) / float64(time.Millisecond) }

func countOf(key string) func(span) float64 {
	return func(s span) float64 { return s.Counts[key] }
}

// perOp totals f over the spans with one of the given names, per
// operation, and returns the totals of the operations that had such spans.
func perOp(spans []span, f func(span) float64, names ...string) []float64 {
	tot := make(map[int]float64)
	var ops []int
	for _, s := range spans {
		if !hasName(s, names) {
			continue
		}
		if _, seen := tot[s.Op]; !seen {
			ops = append(ops, s.Op)
		}
		tot[s.Op] += f(s)
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = tot[op]
	}
	return out
}

// share is Σnum / Σden over the spans with one of the given names: a
// ratio weighted by the work each call did.
func share(spans []span, num, den func(span) float64, names ...string) (float64, int) {
	var n, d float64
	calls := 0
	for _, s := range spans {
		if hasName(s, names) {
			n += num(s)
			d += den(s)
			calls++
		}
	}
	if calls == 0 || d == 0 {
		return 0, 0
	}
	return n / d, calls
}

func hasName(s span, names []string) bool {
	for _, n := range names {
		if s.Name == n {
			return true
		}
	}
	return false
}

// layers are the server modules the replay covers; unaccounted time is
// what the end-to-end median has beyond their summed self times.
var layers = []string{"csvio", "timeseries", "mi", "events", "core", "store", "export"}

// layerMetrics derives the per-layer metrics from the traced run's client
// spans and replay spans. opP50 is the traced run's own end-to-end median.
func layerMetrics(client, replay []span, opP50 float64) []metricOut {
	var out []metricOut
	add := func(d metricDef, v float64, n int) {
		if n > 0 && !math.IsNaN(v) {
			out = append(out, metricOut{Name: d.Name, Value: v, Unit: d.Unit, N: n})
		}
	}
	addMedian := func(d metricDef, vals []float64) { add(d, median(vals), len(vals)) }
	for _, d := range perLayer {
		switch d.Name {
		case "http.result_bytes":
			addMedian(d, perOp(client, countOf("bytes"), "http.result"))
		case "csvio.read_mb_per_s":
			var rates []float64
			for _, s := range replay {
				if s.Name == "csvio.read" && s.dur() > 0 {
					rates = append(rates, s.Counts["bytes"]/mb/(float64(s.dur())/float64(time.Second)))
				}
			}
			addMedian(d, rates)
		case "events.sequences":
			addMedian(d, perOp(replay, countOf("sequences"), "events.convert", "events.convert_delta"))
		case "events.stable_window_share":
			v, n := share(replay, countOf("stable"), countOf("sequences"), "events.convert_delta")
			add(d, v, n)
		case "mi.series_filtered_share":
			v, n := share(replay, countOf("series_filtered"), countOf("series"), "mi.graph")
			add(d, v, n)
		case "mi.pairs_filtered_share":
			v, n := share(replay, countOf("pairs_filtered"), countOf("pairs"), "mi.graph")
			add(d, v, n)
		case "core.l2_candidates":
			addMedian(d, perOp(replay, countOf("candidates"), "core.l2"))
		case "core.lk_candidates":
			addMedian(d, perOp(replay, countOf("candidates"), "core.lk"))
		case "core.lk_yield":
			v, n := share(replay, countOf("patterns"), countOf("candidates"), "core.lk")
			add(d, v, n)
		case "core.pruned_apriori_share":
			v, n := share(replay, countOf("pruned_apriori"), countOf("candidates"), "core.l2", "core.lk")
			add(d, v, n)
		case "core.pruned_trans_share":
			v, n := share(replay, countOf("pruned_trans"), countOf("candidates"), "core.l2", "core.lk")
			add(d, v, n)
		case "core.occurrences":
			addMedian(d, perOp(replay, countOf("occurrences"), "core.mine"))
		case "core.alloc_mb":
			addMedian(d, perOp(replay, func(s span) float64 { return s.Counts["alloc_bytes"] / mb }, "core.mine"))
		case "store.seal_bytes":
			addMedian(d, perOp(replay, countOf("bytes"), "store.seal"))
		case "store.replay_records":
			addMedian(d, perOp(replay, countOf("records"), "store.replay"))
		case "export.doc_bytes":
			addMedian(d, perOp(replay, countOf("bytes"), "export.encode"))
		case "server.unaccounted_ms":
			accounted, n := layerSelfMedians(replay)
			add(d, opP50-accounted, n)
		default:
			name := strings.TrimSuffix(d.Name, "_ms")
			src := replay
			if strings.HasPrefix(name, "http.") {
				src = client
			}
			addMedian(d, perOp(src, durMs, name))
		}
	}
	return out
}

// layerSelfMedians sums, over the replayed layers, each layer's median
// per-operation self time across the timed operations, and returns the
// number of operations.
func layerSelfMedians(replay []span) (float64, int) {
	self := selfTimes(replay)
	perLayerOp := make(map[string]map[int]float64)
	ops := make(map[int]bool)
	for _, s := range replay {
		if s.Op < 1 {
			continue
		}
		ops[s.Op] = true
		l := s.layer()
		if perLayerOp[l] == nil {
			perLayerOp[l] = make(map[int]float64)
		}
		perLayerOp[l][s.Op] += float64(self[s.ID]) / float64(time.Millisecond)
	}
	total := 0.0
	for _, l := range layers {
		vals := make([]float64, 0, len(ops))
		for op := range ops {
			vals = append(vals, perLayerOp[l][op]) // 0 where the layer did not run
		}
		if len(vals) > 0 {
			total += median(vals)
		}
	}
	return total, len(ops)
}

// checkSelfTimes verifies that each operation's span self times add up to
// its root span's duration: every nanosecond of a replayed operation is
// attributed to exactly one span.
func checkSelfTimes(spans []span) error {
	self := selfTimes(spans)
	sum := make(map[int]int64)
	root := make(map[int]span)
	for _, s := range spans {
		sum[s.Op] += self[s.ID]
		if s.Parent == 0 {
			root[s.Op] = s
		}
	}
	ops := make([]int, 0, len(sum))
	for op := range sum {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	for _, op := range ops {
		r, ok := root[op]
		if !ok {
			return fmt.Errorf("op %d has no root span", op)
		}
		if sum[op] != r.dur() {
			return fmt.Errorf("op %d: self times sum to %dns, root span lasts %dns", op, sum[op], r.dur())
		}
	}
	return nil
}
