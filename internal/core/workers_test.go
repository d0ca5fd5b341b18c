package core

import (
	"context"
	"math/rand"
	"testing"
)

// TestWorkersFuncRenegotiatesPerLevel: WorkersFunc is consulted once per
// level boundary with the level about to be mined, its grant is recorded
// on that level's stats, and a changing grant sequence leaves every mined
// output byte-identical to the serial run.
func TestWorkersFuncRenegotiatesPerLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng)
	cfg := Config{MinSupport: 0.3, MinConfidence: 0.1, MaxK: 4}

	serial, err := Mine(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var asked []int
	c := cfg
	c.Workers = 3
	c.WorkersFunc = func(level int) int {
		asked = append(asked, level)
		switch level {
		case 1:
			return 4 // raise
		case 2:
			return 1 // drop to serial mid-run
		case 3:
			return -1 // negative: keep the current grant
		default:
			return 2
		}
	}
	dyn, err := Mine(context.Background(), db, c)
	if err != nil {
		t.Fatal(err)
	}

	if len(asked) != len(dyn.Stats.Levels) {
		t.Fatalf("WorkersFunc called %d times for %d levels", len(asked), len(dyn.Stats.Levels))
	}
	for i, k := range asked {
		if k != i+1 {
			t.Fatalf("call %d renegotiated level %d, want %d", i, k, i+1)
		}
	}
	for _, ls := range dyn.Stats.Levels {
		want := 0
		switch ls.K {
		case 1:
			want = 4
		case 2:
			want = 1
		case 3:
			want = 1 // -1 keeps level 2's grant
		default:
			want = 2
		}
		if ls.Workers != want {
			t.Fatalf("level %d ran with %d workers, want %d", ls.K, ls.Workers, want)
		}
	}

	if len(dyn.Patterns) != len(serial.Patterns) {
		t.Fatalf("%d patterns with renegotiation vs %d serial", len(dyn.Patterns), len(serial.Patterns))
	}
	for i := range dyn.Patterns {
		a, b := dyn.Patterns[i], serial.Patterns[i]
		if a.Pattern.Key() != b.Pattern.Key() || a.Support != b.Support || a.Confidence != b.Confidence {
			t.Fatalf("pattern %d differs under renegotiation", i)
		}
	}
}

// TestWorkersFuncSharded: renegotiation also drives the sharded path,
// whose per-level fan-outs read the worker count repeatedly — the grant
// must be stable within a level and results identical to unsharded.
func TestWorkersFuncSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := randomDB(rng)
	cfg := Config{MinSupport: 0.3, MinConfidence: 0.1, MaxK: 3}
	plain, err := Mine(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}

	c := cfg
	c.Workers = 2
	flips := 0
	c.WorkersFunc = func(level int) int {
		flips++
		if flips%2 == 0 {
			return 1
		}
		return 3
	}
	shards, err := db.ShardRoundRobin(3)
	if err != nil {
		t.Fatal(err)
	}
	sharded, _, err := mineShards(context.Background(), shards, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.Patterns) != len(plain.Patterns) {
		t.Fatalf("%d sharded patterns vs %d plain", len(sharded.Patterns), len(plain.Patterns))
	}
	for i := range sharded.Patterns {
		a, b := sharded.Patterns[i], plain.Patterns[i]
		if a.Pattern.Key() != b.Pattern.Key() || a.Support != b.Support {
			t.Fatalf("pattern %d differs under sharded renegotiation", i)
		}
	}
}
