package core

import (
	"context"
	"fmt"
	"testing"

	"ftpm/internal/datagen"
	"ftpm/internal/events"
	"ftpm/internal/paperex"
)

// sameResults fails the test unless the two results carry exactly the
// same frequent singles and patterns with identical supports,
// confidences, and sample occurrences — the "byte-identical" contract of
// the sharded path.
func sameResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Stats.Sequences != want.Stats.Sequences || got.Stats.AbsoluteSupport != want.Stats.AbsoluteSupport {
		t.Fatalf("%s: stats differ: %d/%d sequences, %d/%d minsup", label,
			got.Stats.Sequences, want.Stats.Sequences, got.Stats.AbsoluteSupport, want.Stats.AbsoluteSupport)
	}
	if len(got.Singles) != len(want.Singles) {
		t.Fatalf("%s: %d singles, want %d", label, len(got.Singles), len(want.Singles))
	}
	for i := range got.Singles {
		g, w := got.Singles[i], want.Singles[i]
		if g.Event != w.Event || g.Support != w.Support {
			t.Fatalf("%s: single %d = (%v, %d), want (%v, %d)", label, i, g.Event, g.Support, w.Event, w.Support)
		}
		if g.Bitmap.String() != w.Bitmap.String() {
			t.Fatalf("%s: single %v bitmap differs", label, g.Event)
		}
	}
	if len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("%s: %d patterns, want %d", label, len(got.Patterns), len(want.Patterns))
	}
	for i := range got.Patterns {
		g, w := got.Patterns[i], want.Patterns[i]
		if g.Pattern.Key() != w.Pattern.Key() {
			t.Fatalf("%s: pattern %d key differs", label, i)
		}
		if g.Support != w.Support || g.Confidence != w.Confidence {
			t.Fatalf("%s: pattern %d support/conf = %d/%v, want %d/%v", label, i, g.Support, g.Confidence, w.Support, w.Confidence)
		}
		if g.SampleSeq != w.SampleSeq || fmt.Sprint(g.Sample) != fmt.Sprint(w.Sample) {
			t.Fatalf("%s: pattern %d sample = seq %d %v, want seq %d %v", label, i,
				g.SampleSeq, g.Sample, w.SampleSeq, w.Sample)
		}
	}
	if got.Stats.TotalPatterns() != want.Stats.TotalPatterns() {
		t.Fatalf("%s: level stats count %d patterns, want %d", label, got.Stats.TotalPatterns(), want.Stats.TotalPatterns())
	}
}

// mineShards prepares the view of a shard set and mines it once,
// returning the result together with the merged database.
func mineShards(ctx context.Context, shards []*events.DB, cfg Config) (*Result, *events.DB, error) {
	v, err := PrepareShards(shards)
	if err != nil {
		return nil, nil, err
	}
	res, err := MineShardedView(ctx, v, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, v.Merged, nil
}

// TestMineShardedMatchesUnsharded is the shard-merge property test: for
// K in {1, 2, 7}, mining the round-robin sharded database yields exactly
// the same pattern set, supports, confidences, and samples as the
// unsharded miner, across generated datasets and parameterizations —
// including K exceeding the sequence count (empty shards).
func TestMineShardedMatchesUnsharded(t *testing.T) {
	build := func(name string, frac float64) *events.DB {
		p, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		db, _, err := p.Build(datagen.Options{SequenceFraction: frac})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	paper := paperex.SequenceDB()

	cases := []struct {
		name string
		db   *events.DB
		cfg  Config
	}{
		{"paper-example", paper, Config{MinSupport: 0.7, MinConfidence: 0.7}},
		{"paper-low-sigma", paper, Config{MinSupport: 0.3, MinConfidence: 0, Workers: 4}},
	}
	if !testing.Short() { // the generated corpora take ~15s
		cases = append(cases, []struct {
			name string
			db   *events.DB
			cfg  Config
		}{
			{"nist", build("NIST", 0.01), Config{MinSupport: 0.5, MinConfidence: 0.5, MaxK: 3, Workers: 2}},
			{"nist-noprune", build("NIST", 0.01), Config{MinSupport: 0.6, MinConfidence: 0.4, MaxK: 2, Pruning: PruneNone}},
			{"dataport", build("DataPort", 0.01), Config{MinSupport: 0.4, MinConfidence: 0.2, MaxK: 3}},
		}...)
	}
	for _, tc := range cases {
		want, err := Mine(context.Background(), tc.db, tc.cfg)
		if err != nil {
			t.Fatalf("%s: unsharded: %v", tc.name, err)
		}
		for _, k := range []int{1, 2, 7} {
			shards, err := tc.db.ShardRoundRobin(k)
			if err != nil {
				t.Fatal(err)
			}
			got, merged, err := mineShards(context.Background(), shards, tc.cfg)
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			if merged.Size() != tc.db.Size() {
				t.Fatalf("%s k=%d: merged %d sequences, want %d", tc.name, k, merged.Size(), tc.db.Size())
			}
			if got.Stats.Shards != k || len(got.Stats.ShardSequences) != k {
				t.Fatalf("%s k=%d: stats report %d shards (%v)", tc.name, k, got.Stats.Shards, got.Stats.ShardSequences)
			}
			sameResults(t, fmt.Sprintf("%s k=%d", tc.name, k), got, want)
		}
	}
}

// TestMineShardedEmptyShardEdge pins the empty-shard edge case down
// explicitly: a database of 4 sequences sharded 7 ways leaves 3 empty
// shards, which must neither crash nor shift any global index.
func TestMineShardedEmptyShardEdge(t *testing.T) {
	db := paperex.SequenceDB()
	if db.Size() >= 7 {
		t.Fatalf("fixture grew: %d sequences", db.Size())
	}
	cfg := Config{MinSupport: 0.5, MinConfidence: 0.5}
	want, err := Mine(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := db.ShardRoundRobin(7)
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for _, sh := range shards {
		if sh.Size() == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("expected empty shards in this fixture")
	}
	got, _, err := mineShards(context.Background(), shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "empty-shard", got, want)
}

// TestMineShardedValidation covers the error paths.
func TestMineShardedValidation(t *testing.T) {
	cfg := Config{MinSupport: 0.5}
	if _, _, err := mineShards(context.Background(), nil, cfg); err == nil {
		t.Error("no shards must be rejected")
	}
	if _, _, err := mineShards(context.Background(), []*events.DB{nil}, cfg); err == nil {
		t.Error("nil shard must be rejected")
	}
	empty := &events.DB{Vocab: events.NewVocab()}
	if _, _, err := mineShards(context.Background(), []*events.DB{empty}, cfg); err == nil {
		t.Error("all-empty shards must be rejected")
	}
	db := paperex.SequenceDB()
	shards, _ := db.ShardRoundRobin(2)
	if _, _, err := mineShards(context.Background(), shards, Config{MinSupport: -1}); err == nil {
		t.Error("invalid config must be rejected")
	}
}

// TestMineShardedCancellation: a pre-cancelled context aborts the sharded
// run with ctx.Err, like the unsharded path.
func TestMineShardedCancellation(t *testing.T) {
	db := paperex.SequenceDB()
	shards, _ := db.ShardRoundRobin(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := mineShards(ctx, shards, Config{MinSupport: 0.5}); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}
