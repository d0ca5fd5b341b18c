package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ftpm/internal/datagen"
	"ftpm/internal/events"
	"ftpm/internal/paperex"
	"ftpm/internal/temporal"
)

// BenchmarkMinePaperExample measures the exact miner on the paper's
// running example (Table III, sigma = delta = 0.7).
func BenchmarkMinePaperExample(b *testing.B) {
	db := paperex.SequenceDB()
	cfg := Config{MinSupport: 0.7, MinConfidence: 0.7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Mine(context.Background(), db, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
}

func benchDB(b *testing.B, name string, frac float64) *events.DB {
	b.Helper()
	p, err := datagen.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	db, _, err := p.Build(datagen.Options{SequenceFraction: frac})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkMineNIST measures the exact miner across pruning modes on a
// small NIST slice — the microscopic version of Fig 6.
func BenchmarkMineNIST(b *testing.B) {
	db := benchDB(b, "NIST", 0.01)
	for _, mode := range []PruningMode{PruneAll, PruneApriori, PruneTrans, PruneNone} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := Config{MinSupport: 0.6, MinConfidence: 0.6, MaxK: 3, Pruning: mode}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Mine(context.Background(), db, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMineWorkers measures the parallel-verification extension.
func BenchmarkMineWorkers(b *testing.B) {
	db := benchDB(b, "NIST", 0.02)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{MinSupport: 0.5, MinConfidence: 0.5, MaxK: 3, Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Mine(context.Background(), db, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtendVerification stresses the Lk (k >= 3) candidate
// verification hot path — the occurrence-extension workload the columnar
// occurrence store, the typed pending keys, and the pooled scratch exist
// for. The allocs/op of this benchmark is the headline number of the
// zero-allocation verification work (gated in CI via bench/BASELINE.txt).
func BenchmarkExtendVerification(b *testing.B) {
	db := benchDB(b, "NIST", 0.01)
	cfg := Config{MinSupport: 0.6, MinConfidence: 0.6, MaxK: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Mine(context.Background(), db, cfg)
		if err != nil {
			b.Fatal(err)
		}
		deep := false
		for _, l := range res.Stats.Levels {
			if l.K >= 3 && l.Patterns > 0 {
				deep = true
			}
		}
		if !deep {
			b.Fatal("benchmark must exercise k >= 3 extension")
		}
	}
}

// BenchmarkMineOutputHeavy mines a cell whose cost is mostly its output:
// two NIST sequences at sigma = delta = 0.6, MaxK 3 and PruneAll, which
// yield about 52 000 patterns from few occurrences each, so building and
// ordering the result listing is a visible share of the run.
// assembly_ms/op is the part of Stats.Duration that no level duration
// covers.
func BenchmarkMineOutputHeavy(b *testing.B) {
	db := benchDB(b, "NIST", 0.0016)
	cfg := Config{MinSupport: 0.6, MinConfidence: 0.6, MaxK: 3, Pruning: PruneAll}
	b.ReportAllocs()
	b.ResetTimer()
	var assembly time.Duration
	for i := 0; i < b.N; i++ {
		res, err := Mine(context.Background(), db, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) < 50000 {
			b.Fatalf("%d patterns: the cell must be output-heavy", len(res.Patterns))
		}
		assembly += res.Stats.Duration
		for _, ls := range res.Stats.Levels {
			assembly -= ls.Duration
		}
	}
	b.ReportMetric(float64(assembly.Microseconds())/1e3/float64(b.N), "assembly_ms/op")
}

// BenchmarkLevelSplit isolates the level costs: MaxK=1 (singles only),
// MaxK=2 (pairs) and MaxK=3 expose how work distributes over levels.
func BenchmarkLevelSplit(b *testing.B) {
	db := benchDB(b, "DataPort", 0.02)
	for k := 1; k <= 3; k++ {
		b.Run(fmt.Sprintf("maxk=%d", k), func(b *testing.B) {
			cfg := Config{MinSupport: 0.5, MinConfidence: 0.5, MaxK: k}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Mine(context.Background(), db, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMineDelta measures re-mining after an append on the geometry
// of the served append path: one one-day window appended to a 133-window
// NIST view, mined at MaxK 2 with sigma = delta = 0.8. cold prepares the
// grown shard set from scratch and mines it; warm derives its view from
// the mined parent with PrepareShardsDelta, so the L1 index and the L2
// memo re-verify only the appended window. CI gates warm >= 3x faster.
func BenchmarkMineDelta(b *testing.B) {
	const days = 134
	p := datagen.NIST()
	full, err := p.Generate(datagen.Options{SequenceFraction: (days + 0.5) / float64(p.Sequences)})
	if err != nil {
		b.Fatal(err)
	}
	if full.Len() != days*p.SamplesPerSeq {
		b.Fatalf("generated %d samples, want %d", full.Len(), days*p.SamplesPerSeq)
	}
	base := truncateSDB(b, full, (days-1)*p.SamplesPerSeq)
	opt := events.SplitOptions{WindowLength: p.Step * temporal.Duration(p.SamplesPerSeq)}
	cfg := Config{MinSupport: 0.8, MinConfidence: 0.8, MaxK: 2}

	prevShards, err := events.ConvertShards(base, opt, 1)
	if err != nil {
		b.Fatal(err)
	}
	parent, err := PrepareShards(prevShards)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := MineShardedView(context.Background(), parent, cfg); err != nil {
		b.Fatal(err)
	}
	shards, stable, err := events.ConvertShardsDelta(full, opt, 1, prevShards, base.End())
	if err != nil {
		b.Fatal(err)
	}
	if stable == 0 {
		b.Fatal("the append left no stable prefix")
	}
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var v *ShardedView
				if mode == "cold" {
					v, err = PrepareShards(shards)
				} else {
					v, err = PrepareShardsDelta(parent, shards, stable)
				}
				if err != nil {
					b.Fatal(err)
				}
				if _, err := MineShardedView(context.Background(), v, cfg); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(v.MemoBytes()), "memo_B")
			}
		})
	}
}

// BenchmarkMineSweep mines the support x confidence grid of the
// end-to-end sweep-exact workload over one prepared view: a NIST slice of
// 73 one-day windows and 36 series in two shards, sigma in {0.65 ...
// 0.80} x delta in {0.5 ... 0.9}, MaxK 3 on two workers. The view is
// warmed by one pass over the grid first, as a served dataset is by its
// earlier jobs, so level 2 is mostly answered from the memo and level 3
// from the L_k memo; lk_ms/cell reports level 3's time per grid cell.
func BenchmarkMineSweep(b *testing.B) { benchSweep(b, false) }

// BenchmarkMineSweepCold mines the same grid on a fresh view per sweep,
// as a newly uploaded dataset meets its first jobs: the first cell
// verifies level 2 cold and every cell sweeps the level-3 extensions no
// earlier cell left in the L_k memo. CI gates it >= 1.25x slower than
// BenchmarkMineSweep.
func BenchmarkMineSweepCold(b *testing.B) { benchSweep(b, true) }

func benchSweep(b *testing.B, cold bool) {
	shards := sweepShards(b)
	view, err := PrepareShards(shards)
	if err != nil {
		b.Fatal(err)
	}
	cells := sweepCells(Config{MaxK: 3, Workers: 2})
	sweep := func() (lk time.Duration) {
		for _, cfg := range cells {
			res, err := MineShardedView(context.Background(), view, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, ls := range res.Stats.Levels {
				if ls.K == 3 {
					lk += ls.Duration
				}
			}
		}
		return lk
	}
	if !cold {
		sweep()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var lk time.Duration
	for i := 0; i < b.N; i++ {
		if cold {
			if view, err = PrepareShards(shards); err != nil {
				b.Fatal(err)
			}
		}
		lk += sweep()
	}
	b.ReportMetric(float64(lk.Microseconds())/1e3/float64(b.N*len(cells)), "lk_ms/cell")
}
