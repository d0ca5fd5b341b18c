package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftpm/internal/datagen"
	"ftpm/internal/events"
	"ftpm/internal/temporal"
	"ftpm/internal/timeseries"
)

// memoChainSDB is a seeded four-series database of n samples whose last
// series gains a third symbol at sample newAt: the append that first
// reaches it interns a new event while keeping every earlier id (events
// intern in series order, so only the last series may grow the
// vocabulary without a fallback to a full conversion). The series switch
// on at different rates, so event supports spread across the thresholds
// the tests mine at and runs differ in the pairs they verify.
func memoChainSDB(t *testing.T, seed int64, n, newAt int) *timeseries.SymbolicDB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := []string{"W", "X", "Y", "Z"}
	rates := []float64{0.5, 0.15, 0.06, 0.035}
	series := make([]*timeseries.SymbolicSeries, len(names))
	for si, name := range names {
		syms := make([]int, n)
		for i := range syms {
			if rng.Float64() < rates[si] {
				syms[i] = 1
			}
			if name == "Z" && i >= newAt && rng.Intn(5) == 0 {
				syms[i] = 2
			}
		}
		series[si] = &timeseries.SymbolicSeries{
			Name: name, Start: 0, Step: 10,
			Alphabet: []string{"Off", "On", "Mid"}, Symbols: syms,
		}
	}
	db, err := timeseries.NewSymbolicDB(series...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// sameLevelCounts checks the per-level counters the pruning scoreboard
// reads: they must not depend on the memo's state.
func sameLevelCounts(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Stats.Levels) != len(want.Stats.Levels) {
		t.Fatalf("%s: %d levels, want %d", label, len(got.Stats.Levels), len(want.Stats.Levels))
	}
	for i, g := range got.Stats.Levels {
		w := want.Stats.Levels[i]
		if g.Candidates != w.Candidates || g.PrunedApriori != w.PrunedApriori || g.PrunedTrans != w.PrunedTrans ||
			g.NodesVerified != w.NodesVerified || g.GreenNodes != w.GreenNodes || g.Patterns != w.Patterns ||
			g.Occurrences != w.Occurrences || g.TripleChecksFailed != w.TripleChecksFailed {
			t.Fatalf("%s: level %d counters %+v, want %+v", label, g.K, g, w)
		}
	}
}

func memoHits(res *Result) int {
	n := 0
	for _, l := range res.Stats.Levels {
		n += l.MemoHits
	}
	return n
}

// TestMemoDeltaChainMatchesFresh is the L2 memo's property test. Along a
// chain of PrepareShardsDelta generations — one of which interns a new
// event, and each of which re-cuts the parent's clipped last window, so
// the memo must truncate what it learned there — every configuration is
// mined warm on each generation's view and must match a cold mine of a
// freshly prepared view: same patterns, supports, confidences, samples
// and level counters. All configurations of one generation share its
// view, and the order rotates per generation, so each kind of run meets
// the memo after each other kind — first on the delta-truncated memo,
// then on what earlier runs published. Support thresholds vary, so
// a run may verify pairs an earlier run on the view left truncated.
func TestMemoDeltaChainMatchesFresh(t *testing.T) {
	gens := []int{203, 231, 262, 294, 333, 357}
	full := memoChainSDB(t, 21, gens[len(gens)-1], 300)
	opt := events.SplitOptions{WindowLength: 100, Overlap: 50}
	const shards = 2

	var cfgs []Config
	for _, mode := range []PruningMode{PruneAll, PruneNone, PruneApriori, PruneTrans} {
		for _, workers := range []int{0, 3} {
			for _, maxK := range []int{2, 3} {
				for _, tmax := range []temporal.Duration{0, 60} {
					cfgs = append(cfgs, Config{
						MinSupport: 0.3 + 0.1*float64(len(cfgs)%3), MinConfidence: 0.2, Pruning: mode, Workers: workers,
						MaxK: maxK, TMax: tmax,
					})
				}
			}
		}
	}
	if testing.Short() {
		// Keep every dimension, drop the full cross product.
		var some []Config
		for i, c := range cfgs {
			if i%5 == 0 {
				some = append(some, c)
			}
		}
		cfgs = some
	}

	ctx := context.Background()
	var prevShards []*events.DB
	var prevView *ShardedView
	var prevEnd temporal.Time
	vocab0, hits := 0, 0
	for g, n := range gens {
		sdb := truncateSDB(t, full, n)
		sh, stable, err := events.ConvertShardsDelta(sdb, opt, shards, prevShards, prevEnd)
		if err != nil {
			t.Fatal(err)
		}
		if g > 0 && (stable == 0 || stable == prevView.Merged.Size()) {
			t.Fatalf("generation %d: stable prefix %d of %d parent windows, want a re-cut", g, stable, prevView.Merged.Size())
		}
		view, err := PrepareShardsDelta(prevView, sh, stable)
		if err != nil {
			t.Fatal(err)
		}
		if g == 0 {
			vocab0 = view.Merged.Vocab.Size()
		}
		for i := range cfgs {
			cfg := cfgs[(i+7*g)%len(cfgs)]
			label := fmt.Sprintf("gen %d cfg %+v", g, cfg)
			fresh, err := PrepareShards(sh)
			if err != nil {
				t.Fatal(err)
			}
			want, err := MineShardedView(ctx, fresh, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if h := memoHits(want); h != 0 {
				t.Fatalf("%s: a cold run reports %d memo hits", label, h)
			}
			got, err := MineShardedView(ctx, view, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, label, got, want)
			sameLevelCounts(t, label, got, want)
			hits += memoHits(got)
		}
		// A run that verifies every pair of the lowest threshold's frequent
		// singles leaves the memo covering the whole view.
		if _, err := MineShardedView(ctx, view, Config{MinSupport: 0.3, MaxK: 2, Pruning: PruneNone}); err != nil {
			t.Fatal(err)
		}
		pm := view.pairMemo(memoKey{rel: temporal.DefaultConfig()})
		for e := range pm.pair {
			if c := pm.coverage(int32(e)); int(c) != view.Merged.Size() {
				t.Fatalf("generation %d: memo entry %d covers %d of %d sequences", g, e, c, view.Merged.Size())
			}
		}
		prevShards, prevView, prevEnd = sh, view, sdb.End()
	}
	if prevView.Merged.Vocab.Size() <= vocab0 {
		t.Fatalf("no append interned a new event (vocabulary %d -> %d)", vocab0, prevView.Merged.Vocab.Size())
	}
	if hits == 0 {
		t.Fatal("no warm run was answered from the memo")
	}
}

// TestMemoConcurrentRunsShareView runs jobs with different relation
// parameters — different memo keys — concurrently on one view and on a
// delta view derived from it while they publish, each publish replacing
// the other key's memo. Under -race this pins
// the copy-on-write publication; every run must match its cold result.
func TestMemoConcurrentRunsShareView(t *testing.T) {
	full := memoChainSDB(t, 22, 300, 1<<30)
	base := truncateSDB(t, full, 260)
	opt := events.SplitOptions{WindowLength: 100, Overlap: 50}
	cfgs := []Config{
		{MinSupport: 0.3, MinConfidence: 0.2, MaxK: 3, Workers: 2},
		{MinSupport: 0.3, MinConfidence: 0.2, MaxK: 2, Workers: 2,
			Relations: temporal.Config{Epsilon: 10, MinOverlap: 20}},
	}
	ctx := context.Background()
	mineAll := func(t *testing.T, label string, view *ShardedView, shards []*events.DB) {
		t.Helper()
		want := make([]*Result, len(cfgs))
		for i, cfg := range cfgs {
			fresh, err := PrepareShards(shards)
			if err != nil {
				t.Fatal(err)
			}
			if want[i], err = MineShardedView(ctx, fresh, cfg); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 3; round++ {
			got := make([]*Result, 2*len(cfgs))
			errs := make([]error, len(got))
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = MineShardedView(ctx, view, cfgs[i%len(cfgs)])
				}(i)
			}
			wg.Wait()
			for i, res := range got {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				l := fmt.Sprintf("%s round %d run %d", label, round, i)
				sameResults(t, l, res, want[i%len(cfgs)])
				sameLevelCounts(t, l, res, want[i%len(cfgs)])
			}
		}
	}

	prevShards, err := events.ConvertShards(base, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	view, err := PrepareShards(prevShards)
	if err != nil {
		t.Fatal(err)
	}
	mineAll(t, "base", view, prevShards)

	shards, stable, err := events.ConvertShardsDelta(full, opt, 3, prevShards, base.End())
	if err != nil {
		t.Fatal(err)
	}
	delta, err := PrepareShardsDelta(view, shards, stable)
	if err != nil {
		t.Fatal(err)
	}
	mineAll(t, "delta", delta, shards)
}

// sameL2Occs requires the level-2 occurrence stores of two KeepGraph runs
// to match run by run and tuple by tuple, in store order: level 3 extends
// them in that order.
func sameL2Occs(t *testing.T, label string, got, want *Result) {
	t.Helper()
	gn, wn := got.Graph.Level(2).Nodes(), want.Graph.Level(2).Nodes()
	if len(gn) != len(wn) {
		t.Fatalf("%s: %d L2 nodes, want %d", label, len(gn), len(wn))
	}
	for i := range gn {
		gp, wp := gn[i].Patterns(), wn[i].Patterns()
		if len(gp) != len(wp) {
			t.Fatalf("%s: node %v has %d patterns, want %d", label, gn[i].Events, len(gp), len(wp))
		}
		for j := range gp {
			g, w := gp[j].Occs, wp[j].Occs
			if g == nil || w == nil {
				t.Fatalf("%s: pattern %v has no occurrences under KeepGraph", label, gp[j].Pattern)
			}
			if g.NumSeqs() != w.NumSeqs() || g.NumOccs() != w.NumOccs() {
				t.Fatalf("%s: pattern %v holds %d runs, %d tuples; want %d, %d", label, gp[j].Pattern,
					g.NumSeqs(), g.NumOccs(), w.NumSeqs(), w.NumOccs())
			}
			for r := 0; r < g.NumSeqs(); r++ {
				glo, ghi := g.Run(r)
				wlo, whi := w.Run(r)
				if g.SeqAt(r) != w.SeqAt(r) || glo != wlo || ghi != whi {
					t.Fatalf("%s: pattern %v run %d is seq %d [%d,%d), want seq %d [%d,%d)", label, gp[j].Pattern,
						r, g.SeqAt(r), glo, ghi, w.SeqAt(r), wlo, whi)
				}
				for o := glo; o < ghi; o++ {
					if !slices.Equal(g.Occ(o), w.Occ(o)) {
						t.Fatalf("%s: pattern %v tuple %d is %v, want %v", label, gp[j].Pattern, o, g.Occ(o), w.Occ(o))
					}
				}
			}
		}
	}
}

// TestMemoOccurrencesMatchCold pins the L2 occurrences a warm run takes
// from the memo: under KeepGraph every level-2 store must equal a cold
// run's, tuple by tuple, whatever the memo held before — stores of a
// stricter run (which lack the slots a looser one keeps), of a parent
// view cut by a delta generation, or published concurrently. A run that
// follows one at least as loose must be served from the memo at every
// verified pair.
func TestMemoOccurrencesMatchCold(t *testing.T) {
	full := memoChainSDB(t, 23, 300, 1<<30)
	base := truncateSDB(t, full, 250)
	opt := events.SplitOptions{WindowLength: 100, Overlap: 50}
	ctx := context.Background()
	cfgOf := func(sigma float64) Config {
		return Config{MinSupport: sigma, MinConfidence: 0.2, MaxK: 3, KeepGraph: true, Workers: 2}
	}
	check := func(t *testing.T, label string, view *ShardedView, shards []*events.DB, cfg Config) *Result {
		t.Helper()
		cold, err := PrepareShards(shards)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MineShardedView(ctx, cold, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MineShardedView(ctx, view, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, label, got, want)
		sameLevelCounts(t, label, got, want)
		sameL2Occs(t, label, got, want)
		return got
	}
	baseShards, err := events.ConvertShards(base, opt, 2)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("stricter-looser", func(t *testing.T) {
		view, err := PrepareShards(baseShards)
		if err != nil {
			t.Fatal(err)
		}
		steps := []struct {
			sigma  float64
			served bool // every verified pair is served from the memo
		}{
			{0.5, false}, {0.3, false}, {0.5, true}, {0.3, true}, {0.5, false},
		}
		for i, st := range steps {
			res := check(t, fmt.Sprintf("step %d (sigma %v)", i, st.sigma), view, baseShards, cfgOf(st.sigma))
			l2 := res.Stats.Levels[1]
			if l2.Patterns == 0 {
				t.Fatalf("step %d mines no L2 pattern", i)
			}
			if st.served && l2.MemoHits != l2.NodesVerified {
				t.Fatalf("step %d: %d of %d verified pairs served from the memo", i, l2.MemoHits, l2.NodesVerified)
			}
		}
	})

	t.Run("delta", func(t *testing.T) {
		view, err := PrepareShards(baseShards)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "parent", view, baseShards, cfgOf(0.3))
		shards, stable, err := events.ConvertShardsDelta(full, opt, 2, baseShards, base.End())
		if err != nil {
			t.Fatal(err)
		}
		delta, err := PrepareShardsDelta(view, shards, stable)
		if err != nil {
			t.Fatal(err)
		}
		if pm := delta.memo.Load().pairs; pm.stores != nil {
			t.Fatal("a delta view's cut memo holds its parent's occurrences")
		}
		check(t, "delta", delta, shards, cfgOf(0.3))
		if l2 := check(t, "delta again", delta, shards, cfgOf(0.3)).Stats.Levels[1]; l2.MemoHits != l2.NodesVerified {
			t.Fatalf("delta again: %d of %d verified pairs served from the memo", l2.MemoHits, l2.NodesVerified)
		}
		check(t, "parent again", view, baseShards, cfgOf(0.3))
	})

	t.Run("concurrent", func(t *testing.T) {
		view, err := PrepareShards(baseShards)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := []Config{cfgOf(0.5), cfgOf(0.3), cfgOf(0.4), cfgOf(0.3)}
		for round := 0; round < 2; round++ {
			var wg sync.WaitGroup
			for i, cfg := range cfgs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					check(t, fmt.Sprintf("round %d run %d", round, i), view, baseShards, cfg)
				}()
			}
			wg.Wait()
		}
	})
}

// TestMemoBytesCountOccurrences checks that the memo's byte report
// includes the occurrence stores it holds: a run that keeps L2
// occurrences grows MemoBytes by at least their arena bytes.
func TestMemoBytesCountOccurrences(t *testing.T) {
	sdb := memoChainSDB(t, 24, 250, 1<<30)
	shards, err := events.ConvertShards(sdb, events.SplitOptions{WindowLength: 100, Overlap: 50}, 2)
	if err != nil {
		t.Fatal(err)
	}
	view, err := PrepareShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinSupport: 0.3, MinConfidence: 0.2, MaxK: 2}
	if _, err := MineShardedView(context.Background(), view, cfg); err != nil {
		t.Fatal(err)
	}
	before := view.MemoBytes()
	cfg.MaxK, cfg.KeepGraph = 3, true
	res, err := MineShardedView(context.Background(), view, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var held int64
	for _, node := range res.Graph.Level(2).Nodes() {
		for _, pd := range node.Patterns() {
			held += pd.Occs.Bytes()
		}
	}
	if held == 0 {
		t.Fatal("the MaxK 3 run kept no L2 occurrences")
	}
	if after := view.MemoBytes(); after-before < held {
		t.Fatalf("MemoBytes %d -> %d, want growth of at least the %d bytes of L2 occurrences held", before, after, held)
	}
}

// sweepSDB is the in-process sweep input of BenchmarkMineSweep: a NIST
// slice of 73 days and 36 series.
func sweepSDB(t testing.TB) *timeseries.SymbolicDB {
	t.Helper()
	sdb, err := datagen.NIST().Generate(datagen.Options{SequenceFraction: 0.05, AttributeFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return sdb
}

// sweepShards cuts the sweep input into 73 one-day windows in two shards.
func sweepShards(t testing.TB) []*events.DB {
	t.Helper()
	shards, err := events.ConvertShards(sweepSDB(t), events.SplitOptions{NumWindows: 73}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return shards
}

// sweepCells is sweep-exact's grid of base in its order: sigma varies
// fastest over {0.65 ... 0.80}, delta over {0.5 ... 0.9}.
func sweepCells(base Config) []Config {
	var cells []Config
	for _, delta := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		for _, sigma := range []float64{0.65, 0.70, 0.75, 0.80} {
			c := base
			c.MinSupport, c.MinConfidence = sigma, delta
			cells = append(cells, c)
		}
	}
	return cells
}

// l3MemoHits is a run's level-3 MemoHits.
func l3MemoHits(res *Result) int {
	for _, l := range res.Stats.Levels {
		if l.K == 3 {
			return l.MemoHits
		}
	}
	return 0
}

// TestLkMemoMatchesCold is the L_k memo's property test. It mines
// sweep-exact's 20-cell grid in its order on one view — under the default
// pruning, a t_max (which turns the insert-position cut off), and
// PruneApriori and PruneNone (which read no L2 masks), at one and two
// workers — and every cell must equal a run on a fresh view: patterns,
// supports, confidences, samples, and every counter but MemoHits. The
// variants share the view, so each meets the memo after a run of another
// verification key. Level 3 must be served from the memo in every
// variant. The sub-tests cover a delta view, concurrent runs on one view,
// and a cancelled run.
func TestLkMemoMatchesCold(t *testing.T) {
	shards := sweepShards(t)
	ctx := context.Background()
	variants := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{MaxK: 3}},
		// A t_max of one window binds no pattern of this input (its
		// frequent pairs span whole days), but turns the cut off.
		{"tmax", Config{MaxK: 3, TMax: 24 * 3600}},
		{"apriori", Config{MaxK: 3, Pruning: PruneApriori}},
		{"none", Config{MaxK: 3, Pruning: PruneNone}},
	}
	// cold mines cfg on a fresh view of shards.
	cold := func(t *testing.T, shards []*events.DB, cfg Config) *Result {
		t.Helper()
		fresh, err := PrepareShards(shards)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MineShardedView(ctx, fresh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// grid is sweep-exact's grid of base; -short keeps its first two
	// confidence rows, every support level.
	grid := func(base Config) []Config {
		if cells := sweepCells(base); testing.Short() {
			return cells[:8]
		} else {
			return cells
		}
	}
	workers := []int{1, 2}
	if testing.Short() {
		workers = workers[1:]
	}
	// sweep mines base's grid on view and checks each cell against want
	// (filled cold on first use); it returns the level-3 memo hits.
	sweep := func(t *testing.T, label string, view *ShardedView, shards []*events.DB, base Config, want []*Result) int {
		t.Helper()
		hits := 0
		for i, cfg := range grid(base) {
			if want[i] == nil {
				want[i] = cold(t, shards, cfg)
			}
			got, err := MineShardedView(ctx, view, cfg)
			if err != nil {
				t.Fatal(err)
			}
			l := fmt.Sprintf("%s cell %d (sigma %v delta %v)", label, i, cfg.MinSupport, cfg.MinConfidence)
			sameResults(t, l, got, want[i])
			sameLevelCounts(t, l, got, want[i])
			hits += l3MemoHits(got)
		}
		return hits
	}

	t.Run("grid", func(t *testing.T) {
		view, err := PrepareShards(shards)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]*Result, len(variants))
		for _, workers := range workers {
			for vi, v := range variants {
				if want[vi] == nil {
					want[vi] = make([]*Result, 20)
				}
				base := v.cfg
				base.Workers = workers
				label := fmt.Sprintf("%s workers %d", v.name, workers)
				if hits := sweep(t, label, view, shards, base, want[vi]); hits == 0 {
					t.Fatalf("%s: no level-3 parent pattern was served from the L_k memo", label)
				}
			}
		}
	})

	t.Run("delta", func(t *testing.T) {
		p := datagen.NIST()
		full := sweepSDB(t)
		base := truncateSDB(t, full, full.Len()-p.SamplesPerSeq)
		opt := events.SplitOptions{WindowLength: p.Step * temporal.Duration(p.SamplesPerSeq)}
		prevShards, err := events.ConvertShards(base, opt, 2)
		if err != nil {
			t.Fatal(err)
		}
		parent, err := PrepareShards(prevShards)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{MaxK: 3, Workers: 2}
		sweep(t, "parent", parent, prevShards, cfg, make([]*Result, 20))
		if parent.memo.Load().lk == nil {
			t.Fatal("the parent's sweep left no L_k memo")
		}
		shards, stable, err := events.ConvertShardsDelta(full, opt, 2, prevShards, base.End())
		if err != nil {
			t.Fatal(err)
		}
		delta, err := PrepareShardsDelta(parent, shards, stable)
		if err != nil {
			t.Fatal(err)
		}
		if delta.memo.Load().lk != nil {
			t.Fatal("a delta view starts with its parent's L_k memo")
		}
		want := make([]*Result, 20)
		sweep(t, "delta", delta, shards, cfg, want)
		if hits := sweep(t, "delta again", delta, shards, cfg, want); hits == 0 {
			t.Fatal("delta again: no level-3 parent pattern was served from the L_k memo")
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		view, err := PrepareShards(shards)
		if err != nil {
			t.Fatal(err)
		}
		cells := grid(Config{MaxK: 3, Workers: 2})
		want := make([]*Result, len(cells))
		for i, cfg := range cells {
			want[i] = cold(t, shards, cfg)
		}
		var hits atomic.Int64
		for round := 0; round < 2; round++ {
			var wg sync.WaitGroup
			for i, cfg := range cells {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := MineShardedView(ctx, view, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					l := fmt.Sprintf("round %d cell %d", round, i)
					sameResults(t, l, got, want[i])
					sameLevelCounts(t, l, got, want[i])
					hits.Add(int64(l3MemoHits(got)))
				}()
			}
			wg.Wait()
		}
		if hits.Load() == 0 {
			t.Fatal("no level-3 parent pattern was served from the L_k memo")
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		view, err := PrepareShards(shards)
		if err != nil {
			t.Fatal(err)
		}
		// Cancel a few milliseconds into level 3, so the drain stops
		// part-way (a node's sweep may stop mid-node).
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		cfg := Config{MinSupport: 0.65, MinConfidence: 0.5, MaxK: 3, Workers: 2,
			WorkersFunc: func(k int) int {
				if k == 3 {
					time.AfterFunc(2*time.Millisecond, cancel)
				}
				return -1
			}}
		if _, err := MineShardedView(cctx, view, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
		if lk := view.memo.Load().lk; lk != nil {
			t.Fatalf("a cancelled run published %d L_k memo entries", len(lk.idx))
		}
		sweep(t, "after cancel", view, shards, Config{MaxK: 3, Workers: 2}, make([]*Result, 20))
	})
}
