package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ftpm/internal/events"
	"ftpm/internal/paperex"
	"ftpm/internal/pattern"
	"ftpm/internal/temporal"
	"ftpm/internal/timeseries"
)

func TestConfigValidate(t *testing.T) {
	good := Config{MinSupport: 0.5, MinConfidence: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{MinSupport: 0, MinConfidence: 0.5},
		{MinSupport: 1.5, MinConfidence: 0.5},
		{MinSupport: 0.5, MinConfidence: -0.1},
		{MinSupport: 0.5, MinConfidence: 1.1},
		{MinSupport: 0.5, TMax: -1},
		{MinSupport: 0.5, MaxK: -2},
		{MinSupport: 0.5, Pruning: PruningMode(9)},
		{MinSupport: 0.5, Relations: temporal.Config{Epsilon: 5, MinOverlap: 2}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestAbsoluteSupport(t *testing.T) {
	c := Config{MinSupport: 0.7}
	if got := c.AbsoluteSupport(4); got != 3 {
		t.Errorf("AbsoluteSupport(4) = %d, want 3 (ceil of 2.8)", got)
	}
	c.MinSupport = 0.0001
	if got := c.AbsoluteSupport(10); got != 1 {
		t.Errorf("tiny support must clamp to 1, got %d", got)
	}
	c.MinSupport = 1
	if got := c.AbsoluteSupport(7); got != 7 {
		t.Errorf("AbsoluteSupport(7)@1.0 = %d", got)
	}
}

func TestPruningModeString(t *testing.T) {
	names := map[PruningMode]string{PruneAll: "All", PruneNone: "NoPrune", PruneApriori: "Apriori", PruneTrans: "Trans"}
	for m, w := range names {
		if m.String() != w {
			t.Errorf("%d.String() = %s, want %s", int(m), m.String(), w)
		}
	}
	if PruningMode(9).String() == "" {
		t.Error("unknown mode must render")
	}
}

func TestMineRejectsBadInput(t *testing.T) {
	if _, err := Mine(context.Background(), nil, Config{MinSupport: 0.5}); err == nil {
		t.Error("nil db must error")
	}
	db := paperex.SequenceDB()
	if _, err := Mine(context.Background(), db, Config{MinSupport: 0}); err == nil {
		t.Error("invalid config must error")
	}
	// Non-positional sequence ids must be rejected.
	broken := &events.DB{Vocab: db.Vocab, Sequences: []*events.Sequence{db.Sequences[1]}}
	if _, err := Mine(context.Background(), broken, Config{MinSupport: 0.5}); err == nil {
		t.Error("non-positional ids must error")
	}
}

// TestPaperL1 reproduces the paper's Fig 4 level L1: with sigma = delta =
// 0.7 over Table III, 11 of the 12 events are frequent; I=On (support 2/4)
// is pruned.
func TestPaperL1(t *testing.T) {
	db := paperex.SequenceDB()
	if db.Size() != 4 {
		t.Fatalf("paper DSEQ must have 4 sequences, got %d", db.Size())
	}
	res, err := Mine(context.Background(), db, Config{MinSupport: 0.7, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Singles) != 11 {
		names := make([]string, 0, len(res.Singles))
		for _, s := range res.Singles {
			names = append(names, db.Vocab.Name(s.Event))
		}
		t.Fatalf("frequent singles = %d (%v), want 11", len(res.Singles), names)
	}
	iOn, ok := db.Vocab.Lookup("I", "On")
	if !ok {
		t.Fatal("I=On undefined")
	}
	for _, s := range res.Singles {
		if s.Event == iOn {
			t.Error("I=On must be pruned at L1 (support 2 < 3)")
		}
	}
	// K=On occurs in all four sequences (bitmap [1,1,1,1] in Fig 4).
	kOn, _ := db.Vocab.Lookup("K", "On")
	for _, s := range res.Singles {
		if s.Event == kOn {
			if s.Support != 4 || s.Bitmap.String() != "1111" {
				t.Errorf("K=On support=%d bitmap=%s, want 4/1111", s.Support, s.Bitmap)
			}
		}
	}
	if res.Stats.TotalPatterns() != len(res.Patterns) {
		t.Error("stats pattern count must match result listing")
	}
	if res.Stats.AbsoluteSupport != 3 {
		t.Errorf("absolute support = %d, want 3", res.Stats.AbsoluteSupport)
	}
}

// TestPaperPairKT checks the paper's Fig 4 node (KOn, TOn): K and T
// activate together in every sequence, so the pair is frequent with
// confidence 1, and Contain relations dominate (T switches on while K is
// on).
func TestPaperPairKT(t *testing.T) {
	db := paperex.SequenceDB()
	res, err := Mine(context.Background(), db, Config{MinSupport: 0.7, MinConfidence: 0.7, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	kOn, _ := db.Vocab.Lookup("K", "On")
	tOn, _ := db.Vocab.Lookup("T", "On")
	found := false
	for _, p := range res.Patterns {
		if p.Pattern.K() != 2 {
			continue
		}
		e := p.Pattern.Events
		if (e[0] == kOn && e[1] == tOn) || (e[0] == tOn && e[1] == kOn) {
			found = true
			if p.Support < 3 {
				t.Errorf("K/T pattern support = %d, want >= 3", p.Support)
			}
		}
	}
	if !found {
		t.Error("no frequent 2-event pattern between K=On and T=On found")
	}
}

func TestSelfRelation(t *testing.T) {
	// One appliance cycling On->Off->On within each window produces the
	// self-relation (A=On -> A=On).
	row := "On Off On Off On Off On Off"
	s, _ := timeseries.ParseSymbols("A", 0, 10, []string{"Off", "On"}, strings.Repeat(row+" ", 3))
	sdb, err := timeseries.NewSymbolicDB(s)
	if err != nil {
		t.Fatal(err)
	}
	db, err := events.Convert(sdb, events.SplitOptions{NumWindows: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(context.Background(), db, Config{MinSupport: 0.9, MinConfidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	aOn, _ := db.Vocab.Lookup("A", "On")
	want := pattern.Pair(aOn, temporal.Follow, aOn).Key()
	found := false
	for _, p := range res.Patterns {
		if p.Pattern.Key() == want {
			found = true
			if p.Support != 3 {
				t.Errorf("self-relation support = %d, want 3", p.Support)
			}
		}
	}
	if !found {
		t.Fatal("self-relation (A=On -> A=On) not mined")
	}
}

func TestDeterminism(t *testing.T) {
	db := paperex.SequenceDB()
	cfg := Config{MinSupport: 0.5, MinConfidence: 0.5, MaxK: 4}
	a, err := Mine(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Patterns) != len(b.Patterns) {
		t.Fatalf("pattern counts differ: %d vs %d", len(a.Patterns), len(b.Patterns))
	}
	for i := range a.Patterns {
		if a.Patterns[i].Pattern.Key() != b.Patterns[i].Pattern.Key() ||
			a.Patterns[i].Support != b.Patterns[i].Support ||
			a.Patterns[i].SampleSeq != b.Patterns[i].SampleSeq {
			t.Fatalf("pattern %d differs between runs", i)
		}
	}
}

func TestSamplesPresent(t *testing.T) {
	db := paperex.SequenceDB()
	res, err := Mine(context.Background(), db, Config{MinSupport: 0.7, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("expected patterns")
	}
	for _, p := range res.Patterns {
		if p.SampleSeq < 0 || len(p.Sample) != p.Pattern.K() {
			t.Fatalf("pattern %v lacks a sample occurrence", p.Pattern)
		}
	}
}

func TestKeepGraph(t *testing.T) {
	db := paperex.SequenceDB()
	res, err := Mine(context.Background(), db, Config{MinSupport: 0.7, MinConfidence: 0.7, KeepGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph == nil || res.Graph.Height() < 2 {
		t.Fatal("KeepGraph must retain the HPG")
	}
	l2 := res.Graph.Level(2)
	if l2.Size() == 0 {
		t.Fatal("L2 must have green nodes")
	}
	for _, n := range l2.Nodes() {
		if n.NumPatterns() == 0 {
			t.Error("level may only contain green nodes")
		}
		for _, pd := range n.Patterns() {
			if pd.Occs == nil {
				t.Error("KeepGraph must retain occurrences")
			}
		}
	}
	// Without KeepGraph the graph is not exposed.
	res2, _ := Mine(context.Background(), db, Config{MinSupport: 0.7, MinConfidence: 0.7})
	if res2.Graph != nil {
		t.Error("graph must be nil without KeepGraph")
	}
}

func TestMaxKBounds(t *testing.T) {
	db := paperex.SequenceDB()
	res, err := Mine(context.Background(), db, Config{MinSupport: 0.7, MinConfidence: 0.3, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		if p.Pattern.K() > 2 {
			t.Fatalf("MaxK=2 violated by %v", p.Pattern)
		}
	}
	one, err := Mine(context.Background(), db, Config{MinSupport: 0.7, MinConfidence: 0.3, MaxK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Patterns) != 0 || len(one.Singles) == 0 {
		t.Error("MaxK=1 must yield singles only")
	}
}

// randomDB builds a small random symbolic database and converts it.
func randomDB(rng *rand.Rand) *events.DB {
	nSeries := 2 + rng.Intn(3)
	nSamples := 30 + rng.Intn(20)
	series := make([]*timeseries.SymbolicSeries, nSeries)
	for i := range series {
		alpha := []string{"Off", "On"}
		if rng.Intn(3) == 0 {
			alpha = []string{"Lo", "Mid", "Hi"}
		}
		syms := make([]int, nSamples)
		cur := rng.Intn(len(alpha))
		for j := range syms {
			if rng.Float64() < 0.35 {
				cur = rng.Intn(len(alpha))
			}
			syms[j] = cur
		}
		series[i] = &timeseries.SymbolicSeries{
			Name: fmt.Sprintf("S%d", i), Start: 0, Step: 10,
			Alphabet: alpha, Symbols: syms,
		}
	}
	sdb, err := timeseries.NewSymbolicDB(series...)
	if err != nil {
		panic(err)
	}
	opt := events.SplitOptions{NumWindows: 3 + rng.Intn(3)}
	if rng.Intn(2) == 0 {
		opt = events.SplitOptions{WindowLength: 100 + temporal.Duration(rng.Intn(100)), Overlap: temporal.Duration(rng.Intn(50))}
	}
	db, err := events.Convert(sdb, opt)
	if err != nil {
		panic(err)
	}
	return db
}

func comparable(res *Result) map[string]string {
	out := make(map[string]string, len(res.Patterns))
	for _, p := range res.Patterns {
		out[p.Pattern.Key()] = fmt.Sprintf("s=%d c=%.6f", p.Support, p.Confidence)
	}
	return out
}

func diffResults(t *testing.T, label string, want, got map[string]string) {
	t.Helper()
	for k, v := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: missing pattern %q (%s)", label, k, v)
		} else if g != v {
			t.Errorf("%s: pattern %q stats %s, want %s", label, k, g, v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: extra pattern %q", label, k)
		}
	}
}

// TestAllPruningModesEquivalent checks that the four ablation modes of
// E-HTPGM mine exactly the same pattern sets with the same supports and
// confidences — pruning must never change results, only cost.
func TestAllPruningModesEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		db := randomDB(rng)
		cfg := Config{
			MinSupport:    0.3 + rng.Float64()*0.4,
			MinConfidence: rng.Float64() * 0.5,
			MaxK:          4,
		}
		if rng.Intn(2) == 0 {
			cfg.TMax = 50 + temporal.Duration(rng.Intn(150))
		}
		base, err := Mine(context.Background(), db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := comparable(base)
		for _, mode := range []PruningMode{PruneNone, PruneApriori, PruneTrans} {
			c := cfg
			c.Pruning = mode
			res, err := Mine(context.Background(), db, c)
			if err != nil {
				t.Fatal(err)
			}
			diffResults(t, fmt.Sprintf("trial %d mode %v", trial, mode), want, comparable(res))
		}
	}
}

func TestStatsPlausibility(t *testing.T) {
	db := paperex.SequenceDB()
	all, _ := Mine(context.Background(), db, Config{MinSupport: 0.5, MinConfidence: 0.5, MaxK: 4})
	none, _ := Mine(context.Background(), db, Config{MinSupport: 0.5, MinConfidence: 0.5, MaxK: 4, Pruning: PruneNone})
	if none.Stats.TotalCandidates() < all.Stats.TotalCandidates() {
		t.Errorf("NoPrune candidates (%d) must be >= All candidates (%d)",
			none.Stats.TotalCandidates(), all.Stats.TotalCandidates())
	}
	var prunedSomething bool
	for _, l := range all.Stats.Levels {
		if l.PrunedApriori > 0 || l.PrunedTrans > 0 {
			prunedSomething = true
		}
		if l.K >= 2 && l.GreenNodes > l.NodesVerified {
			t.Errorf("level %d: green nodes %d > verified %d", l.K, l.GreenNodes, l.NodesVerified)
		}
	}
	_ = prunedSomething // pruning may legitimately not trigger on tiny data
	for _, l := range none.Stats.Levels {
		if l.PrunedApriori != 0 || l.PrunedTrans != 0 {
			t.Error("NoPrune must not prune")
		}
	}
}

// TestInsertRange checks insertRange against its definition on every
// parent of up to three roles, with each role's masks drawn from no bit,
// the green bit alone, and relation bits with or without it: an insert
// position is in the range exactly when every role's triple has a relation
// bit in the mask its side of the new instance reads.
func TestInsertRange(t *testing.T) {
	masks := []uint8{0, l2Green, 1 << temporal.Follow, l2Green | 1<<temporal.Contain | 1<<temporal.Overlap}
	for roles := 1; roles <= 3; roles++ {
		n := 1
		for i := 0; i < 2*roles; i++ {
			n *= len(masks)
		}
		for c := 0; c < n; c++ {
			before, after := make([]uint8, roles), make([]uint8, roles)
			for i, x := 0, c; i < roles; i++ {
				before[i], x = masks[x%len(masks)], x/len(masks)
				after[i], x = masks[x%len(masks)], x/len(masks)
			}
			lo, hi := insertRange(before, after)
			for pos := 0; pos <= roles; pos++ {
				allowed := true
				for i := 0; i < roles; i++ {
					mask := after[i]
					if i < pos {
						mask = before[i]
					}
					allowed = allowed && mask&^l2Green != 0
				}
				if in := int32(pos) >= lo && int32(pos) <= hi; in != allowed {
					t.Fatalf("before %v after %v: range [%d, %d], position %d allowed %v", before, after, lo, hi, pos, allowed)
				}
			}
		}
	}
}

// TestInsertable checks that insertable keeps exactly the instances whose
// insert position into the occurrence lies in [lo, hi].
func TestInsertable(t *testing.T) {
	eIdxs, occ := []int32{1, 4, 6, 9, 10}, []int32{3, 5, 8}
	for lo := int32(0); lo <= 3; lo++ {
		for hi := lo; hi <= 3; hi++ {
			var want []int32
			for _, ie := range eIdxs {
				pos := int32(len(occ))
				for i, idx := range occ {
					if ie < idx {
						pos = int32(i)
						break
					}
				}
				if pos >= lo && pos <= hi {
					want = append(want, ie)
				}
			}
			if got := insertable(eIdxs, occ, lo, hi); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("[%d, %d]: got %v, want %v", lo, hi, got, want)
			}
		}
	}
}
