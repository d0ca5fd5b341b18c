package naive

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ftpm/internal/core"
	"ftpm/internal/events"
	"ftpm/internal/temporal"
)

// unitInterval maps an arbitrary fuzzed float into [0, 1]: values inside
// pass through, NaN becomes 0, and anything else is folded in by its
// fractional part.
func unitInterval(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	x = math.Abs(x)
	if x > 1 {
		x -= math.Floor(x)
	}
	return x
}

// FuzzHTPGMvsNaive mines a random database (randomDB's draw for seed) with
// E-HTPGM four ways: cold and then warm on one prepared view; primed on
// another, after a run at a stricter support (sigma + 0.2, at most 1),
// whose memo lacks the occurrences of the slots only the fuzzed
// thresholds keep; and on a delta view. For the last, the first m of the
// n sequences (m = 1 + seed mod n) are mined on a view of their own, and
// the full view is derived from it by core.PrepareShardsDelta, so the run
// reads that view's L1 and L2 memo cut at m. All four runs must produce exactly the brute-force oracle's
// pattern set, supports and confidences. The arguments choose the
// thresholds (sigma is raised to at least 0.3, which keeps the oracle's
// enumeration small), the relation tolerance (eps%6 < 5 sets epsilon with
// d_o = 5; 5 keeps the default relations), t_max (tmax%200, 0 disables
// it), MaxK (2 + maxK%3), the pruning mode (mode%4) and serial or
// three-worker verification.
//
// Run continuously with: go test -fuzz FuzzHTPGMvsNaive ./internal/naive
func FuzzHTPGMvsNaive(f *testing.F) {
	modes := []core.PruningMode{core.PruneAll, core.PruneNone, core.PruneApriori, core.PruneTrans}
	f.Fuzz(func(t *testing.T, seed int64, sigma, delta float64, eps uint8, tmax uint16, maxK, mode uint8, parallel bool) {
		db := randomDB(rand.New(rand.NewSource(seed)))
		cfg := core.Config{
			MinSupport:    math.Max(unitInterval(sigma), 0.3),
			MinConfidence: unitInterval(delta),
			TMax:          temporal.Duration(tmax % 200),
			MaxK:          2 + int(maxK%3),
			Pruning:       modes[mode%4],
		}
		if e := eps % 6; e < 5 {
			cfg.Relations = temporal.Config{Epsilon: temporal.Duration(e), MinOverlap: 5}
		}
		if parallel {
			cfg.Workers = 3
		}
		want, err := Mine(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wm := asMap(want.Patterns)
		view, err := core.PrepareShards([]*events.DB{db})
		if err != nil {
			t.Fatal(err)
		}
		primed, err := core.PrepareShards([]*events.DB{db})
		if err != nil {
			t.Fatal(err)
		}
		strict := cfg
		strict.MinSupport = math.Min(cfg.MinSupport+0.2, 1)
		if _, err := core.MineShardedView(context.Background(), primed, strict); err != nil {
			t.Fatal(err)
		}
		m := 1 + int(uint64(seed)%uint64(db.Size()))
		prefix, err := core.PrepareShards([]*events.DB{{Vocab: db.Vocab, Sequences: db.Sequences[:m]}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.MineShardedView(context.Background(), prefix, cfg); err != nil {
			t.Fatal(err)
		}
		grown, err := core.PrepareShardsDelta(prefix, []*events.DB{db}, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm", "primed", "delta"} {
			v := view
			switch pass {
			case "primed":
				v = primed
			case "delta":
				v = grown
			}
			got, err := core.MineShardedView(context.Background(), v, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gm := asMap(got.Patterns)
			for k, v := range wm {
				if g, ok := gm[k]; !ok {
					t.Errorf("%s %+v: missing pattern %s (oracle %s)", pass, cfg, k, v)
				} else if g != v {
					t.Errorf("%s %+v: pattern %s has %s, oracle %s", pass, cfg, k, g, v)
				}
			}
			for k := range gm {
				if _, ok := wm[k]; !ok {
					t.Errorf("%s %+v: extra pattern %s", pass, cfg, k)
				}
			}
		}
	})
}
