package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ftpm/internal/events"
	"ftpm/internal/paperex"
)

// These tests pin the zero-allocation verification path: the columnar
// occurrence store, the typed-key pending tables, and the pooled
// per-worker scratch must be observationally identical to the seed's
// map-and-string-key implementation — same patterns, supports,
// confidences, samples, and (under KeepGraph) the same occurrence sets.

// graphOccs flattens every stored occurrence of a kept graph into
// "k|patternKey|seq|tuple" lines for cross-run comparison.
func graphOccs(t *testing.T, res *Result) map[string]int {
	t.Helper()
	if res.Graph == nil {
		t.Fatal("graphOccs requires KeepGraph")
	}
	out := make(map[string]int)
	for k := 2; k <= res.Graph.Height(); k++ {
		for _, node := range res.Graph.Level(k).Nodes() {
			for _, pd := range node.Patterns() {
				st := pd.Occs
				if st == nil {
					t.Fatalf("level %d pattern lost its occurrences under KeepGraph", k)
				}
				for run := 0; run < st.NumSeqs(); run++ {
					lo, hi := st.Run(run)
					for i := lo; i < hi; i++ {
						out[fmt.Sprintf("%d|%x|%d|%v", k, pd.Pattern.Key(), st.SeqAt(run), st.Occ(i))]++
					}
				}
			}
		}
	}
	return out
}

// TestColumnarStorePropertySharded is the end-to-end property test of the
// columnar occurrence store: over random DSEQs, mining the database
// sharded K ∈ {1, 2, 7} ways — serial and parallel — must reproduce the
// unsharded serial run exactly, including every stored occurrence tuple.
func TestColumnarStorePropertySharded(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		db := randomDB(rng)
		cfg := Config{
			MinSupport:    0.3 + rng.Float64()*0.3,
			MinConfidence: rng.Float64() * 0.4,
			MaxK:          4,
			KeepGraph:     true,
		}
		want, err := Mine(context.Background(), db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantOccs := graphOccs(t, want)
		for _, k := range []int{1, 2, 7} {
			for _, workers := range []int{1, 4} {
				shards, err := db.ShardRoundRobin(k)
				if err != nil {
					t.Fatal(err)
				}
				c := cfg
				c.Workers = workers
				got, _, err := mineShards(context.Background(), shards, c)
				if err != nil {
					t.Fatalf("trial %d k=%d w=%d: %v", trial, k, workers, err)
				}
				label := fmt.Sprintf("trial %d k=%d w=%d", trial, k, workers)
				sameResults(t, label, got, want)
				gotOccs := graphOccs(t, got)
				if len(gotOccs) != len(wantOccs) {
					t.Fatalf("%s: %d occurrence entries, want %d", label, len(gotOccs), len(wantOccs))
				}
				for key, n := range wantOccs {
					if gotOccs[key] != n {
						t.Fatalf("%s: occurrence %q count %d, want %d", label, key, gotOccs[key], n)
					}
				}
			}
		}
	}
}

// TestFlushDeterminism documents and enforces the single-sort determinism
// invariant of the flush path. The pending table is a Go map, whose
// iteration order is deliberately randomized by the runtime; the only
// ordering the flush relies on is the one explicit sort over typed
// composite keys in extPend.ordered (the seed sorted twice: composite
// strings, then canonical strings — canonical order now comes from
// flush's stable sort by pattern.Compare, which keeps each pattern's
// entries in composite-key order). Two properties make results
// run-invariant:
//
//  1. ordered() depends only on the key set, not on insertion or map
//     iteration order (checked directly with shuffled insertions);
//  2. repeated mines — where the runtime's map seeds differ — produce
//     identical results, samples and stored occurrences even when several
//     composites canonicalize to the same pattern (the order-sensitive
//     case).
func TestFlushDeterminism(t *testing.T) {
	// Property 1: shuffled insertion orders yield one flush order.
	rng := rand.New(rand.NewSource(5))
	keys := make([]extKey, 0, 64)
	for i := 0; i < 64; i++ {
		keys = append(keys, extKey{
			parent: int32(rng.Intn(5)),
			pos:    int32(rng.Intn(4)),
			event:  events.EventID(rng.Intn(6)),
			rels:   uint64(rng.Intn(1 << 6)),
		})
	}
	var want []extKey
	for round := 0; round < 10; round++ {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		var ep extPend
		ep.reset()
		for _, k := range keys {
			ep.get(k)
		}
		ep.ordered(nil)
		if round == 0 {
			want = append(want, ep.keys...)
			for i := 1; i < len(want); i++ {
				if want[i].less(want[i-1]) {
					t.Fatalf("ordered keys not sorted at %d", i)
				}
			}
			continue
		}
		for i := range want {
			if ep.keys[i] != want[i] {
				t.Fatalf("round %d: flush order differs at %d: %+v vs %+v", round, i, ep.keys[i], want[i])
			}
		}
	}

	// Property 2: repeat mines are identical under merge pressure. The
	// paper example with a low threshold exercises composite merging
	// (duplicate events reach one child pattern from several parent
	// composites) where a wrong merge order would change which sample
	// wins.
	db := paperex.SequenceDB()
	cfg := Config{MinSupport: 0.3, MinConfidence: 0, MaxK: 4, KeepGraph: true}
	base, err := Mine(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseOccs := graphOccs(t, base)
	for round := 0; round < 8; round++ {
		res, err := Mine(context.Background(), db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("round %d", round), res, base)
		occs := graphOccs(t, res)
		if len(occs) != len(baseOccs) {
			t.Fatalf("round %d: occurrence sets differ in size", round)
		}
		for k, n := range baseOccs {
			if occs[k] != n {
				t.Fatalf("round %d: occurrence %q differs", round, k)
			}
		}
	}
}

// TestPooledScratchParallel drives the pooled per-worker scratch hard:
// many nodes, duplicate events, merging, and worker counts above
// the candidate count, repeated so scratches are recycled across drains.
// Run under -race (the CI short suite does) this doubles as the data-race
// check of the scratch pool.
func TestPooledScratchParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := randomDB(rng)
	cfg := Config{MinSupport: 0.25, MinConfidence: 0.1, MaxK: 4, KeepGraph: true}
	want, err := Mine(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantOccs := graphOccs(t, want)
	for _, workers := range []int{2, 8, 64} {
		c := cfg
		c.Workers = workers
		for round := 0; round < 3; round++ {
			got, err := Mine(context.Background(), db, c)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("workers=%d round=%d", workers, round)
			sameResults(t, label, got, want)
			occs := graphOccs(t, got)
			for k, n := range wantOccs {
				if occs[k] != n {
					t.Fatalf("%s: occurrence %q differs", label, k)
				}
			}
		}
	}
}

// TestSampleFromStore pins the flush-time sample derivation: for levels
// that keep occurrences the sample must be the first stored occurrence of
// the minimal supporting sequence, matching the eagerly-tracked sample of
// the deepest (store-less) level.
func TestSampleFromStore(t *testing.T) {
	db := paperex.SequenceDB()
	// keepOccs at level 2 (MaxK 3) vs store-less level 2 (MaxK 2): the L2
	// samples must agree since both follow the same first-occurrence rule.
	withStore, err := Mine(context.Background(), db, Config{MinSupport: 0.5, MinConfidence: 0.5, MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	storeless, err := Mine(context.Background(), db, Config{MinSupport: 0.5, MinConfidence: 0.5, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]string)
	for _, p := range storeless.Patterns {
		samples[p.Pattern.Key()] = fmt.Sprintf("%d %v", p.SampleSeq, p.Sample)
	}
	checked := 0
	for _, p := range withStore.Patterns {
		if p.Pattern.K() != 2 {
			continue
		}
		if got, want := fmt.Sprintf("%d %v", p.SampleSeq, p.Sample), samples[p.Pattern.Key()]; got != want {
			t.Fatalf("pattern %v sample %s, want %s", p.Pattern, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("vacuous: no level-2 patterns compared")
	}
}

// TestOccStoreReleasedWithoutKeepGraph pins the memory contract: without
// KeepGraph the deepest level's stores are dropped after the result is
// assembled (the graph itself is not exposed, so reach in via the miner's
// own structures through a kept run for contrast).
func TestOccStoreReleasedWithoutKeepGraph(t *testing.T) {
	db := paperex.SequenceDB()
	res, err := Mine(context.Background(), db, Config{MinSupport: 0.7, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != nil {
		t.Fatal("graph must not be exposed without KeepGraph")
	}
	kept, err := Mine(context.Background(), db, Config{MinSupport: 0.7, MinConfidence: 0.7, KeepGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for k := 2; k <= kept.Graph.Height(); k++ {
		for _, node := range kept.Graph.Level(k).Nodes() {
			for _, pd := range node.Patterns() {
				if pd.Occs != nil && pd.Occs.NumOccs() > 0 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("KeepGraph run must retain occurrence stores")
	}
}
