package naive

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ftpm/internal/core"
	"ftpm/internal/events"
	"ftpm/internal/paperex"
	"ftpm/internal/temporal"
	"ftpm/internal/timeseries"
)

func randomDB(rng *rand.Rand) *events.DB {
	nSeries := 2 + rng.Intn(3)
	nSamples := 24 + rng.Intn(16)
	series := make([]*timeseries.SymbolicSeries, nSeries)
	for i := range series {
		alpha := []string{"Off", "On"}
		if rng.Intn(4) == 0 {
			alpha = []string{"Lo", "Mid", "Hi"}
		}
		syms := make([]int, nSamples)
		cur := rng.Intn(len(alpha))
		for j := range syms {
			if rng.Float64() < 0.4 {
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
	db, err := events.Convert(sdb, events.SplitOptions{NumWindows: 3 + rng.Intn(2)})
	if err != nil {
		panic(err)
	}
	return db
}

func asMap(ps []core.PatternInfo) map[string]string {
	out := make(map[string]string, len(ps))
	for _, p := range ps {
		out[p.Pattern.Key()] = fmt.Sprintf("s=%d c=%.6f", p.Support, p.Confidence)
	}
	return out
}

// TestHTPGMMatchesNaiveOracle is the central correctness test of the exact
// miner: on random databases, every pruning mode of E-HTPGM must produce
// exactly the ground-truth pattern set of the brute-force oracle, with
// identical supports and confidences.
func TestHTPGMMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		db := randomDB(rng)
		cfg := core.Config{
			MinSupport:    0.3 + rng.Float64()*0.4,
			MinConfidence: rng.Float64() * 0.6,
			MaxK:          4,
		}
		if rng.Intn(2) == 0 {
			cfg.TMax = 40 + temporal.Duration(rng.Intn(120))
		}
		if rng.Intn(3) == 0 {
			cfg.Relations = temporal.Config{Epsilon: temporal.Duration(rng.Intn(3)), MinOverlap: 5}
		}
		want, err := Mine(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wm := asMap(want.Patterns)
		// Every pruning mode, serial and with parallel verification.
		for _, run := range []struct {
			mode    core.PruningMode
			workers int
		}{
			{core.PruneAll, 0}, {core.PruneNone, 0}, {core.PruneApriori, 0}, {core.PruneTrans, 0},
			{core.PruneAll, 3}, {core.PruneNone, 3}, {core.PruneApriori, 3}, {core.PruneTrans, 3},
		} {
			mode := run.mode
			c := cfg
			c.Pruning = mode
			c.Workers = run.workers
			got, err := core.Mine(context.Background(), db, c)
			if err != nil {
				t.Fatal(err)
			}
			gm := asMap(got.Patterns)
			if len(gm) != len(wm) {
				t.Errorf("trial %d mode %v workers %d: %d patterns, oracle has %d", trial, mode, c.Workers, len(gm), len(wm))
			}
			for k, v := range wm {
				if g, ok := gm[k]; !ok {
					t.Errorf("trial %d mode %v workers %d: missing pattern (oracle %s)", trial, mode, c.Workers, v)
				} else if g != v {
					t.Errorf("trial %d mode %v workers %d: stats %s, oracle %s", trial, mode, c.Workers, g, v)
				}
			}
			for k := range gm {
				if _, ok := wm[k]; !ok {
					t.Errorf("trial %d mode %v workers %d: extra pattern mined", trial, mode, c.Workers)
				}
			}
			if t.Failed() {
				t.Fatalf("stopping after first failing trial (%d)", trial)
			}
		}
	}
}

// TestNaiveOnPaperExample sanity-checks the oracle itself on Table III:
// singles must match bitmap counting and every reported pattern must meet
// the thresholds.
func TestNaiveOnPaperExample(t *testing.T) {
	db := paperex.SequenceDB()
	res, err := Mine(db, core.Config{MinSupport: 0.7, MinConfidence: 0.7, MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Singles) != 11 {
		t.Errorf("naive singles = %d, want 11", len(res.Singles))
	}
	for _, p := range res.Patterns {
		if p.Support < 3 {
			t.Errorf("pattern below support threshold: %v", p)
		}
		if p.Confidence < 0.7 {
			t.Errorf("pattern below confidence threshold: %v", p)
		}
	}
	if len(res.Patterns) == 0 {
		t.Error("paper example must contain frequent patterns")
	}
}

func TestNaiveValidation(t *testing.T) {
	db := paperex.SequenceDB()
	if _, err := Mine(db, core.Config{MinSupport: 0}); err == nil {
		t.Error("invalid config must error")
	}
}

// TestSubPatternSupportMonotonicity verifies Lemma 2/6 empirically on the
// oracle output: projections of frequent patterns have at least the
// support and confidence of the full pattern.
func TestSubPatternSupportMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := randomDB(rng)
	res, err := Mine(db, core.Config{MinSupport: 0.3, MinConfidence: 0, MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	index := asMap(res.Patterns)
	bySupport := make(map[string]int)
	byConf := make(map[string]float64)
	for _, p := range res.Patterns {
		bySupport[p.Pattern.Key()] = p.Support
		byConf[p.Pattern.Key()] = p.Confidence
	}
	checked := 0
	for _, p := range res.Patterns {
		if p.Pattern.K() != 3 {
			continue
		}
		for _, roles := range [][]int{{0, 1}, {0, 2}, {1, 2}} {
			sub := p.Pattern.Project(roles)
			subSupp, ok := bySupport[sub.Key()]
			if !ok {
				t.Fatalf("projection %v of frequent pattern missing from oracle output (index size %d)", sub, len(index))
			}
			if subSupp < p.Support {
				t.Errorf("Lemma 2 violated: supp(sub)=%d < supp(p)=%d", subSupp, p.Support)
			}
			if byConf[sub.Key()] < p.Confidence-1e-12 {
				t.Errorf("Lemma 6 violated: conf(sub)=%v < conf(p)=%v", byConf[sub.Key()], p.Confidence)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no 3-event patterns in this random draw")
	}
}
