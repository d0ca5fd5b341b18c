// Benchmarks regenerating the paper's evaluation, one per table and
// figure (§VI). Each benchmark runs the corresponding experiment of
// internal/experiments at a reduced dataset scale so the full suite
// completes in minutes; `cmd/ftpm-bench -scale 1 -maxk 3` reproduces the
// paper-sized runs. Run with:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// The per-iteration time of a Table benchmark is the wall time of
// regenerating that entire table (all cells, all methods).
package ftpm_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ftpm"
	"ftpm/internal/experiments"
	"ftpm/internal/paperex"
	"ftpm/internal/server"
	"ftpm/internal/server/store"
)

// benchOpt is the reduced-scale configuration of the bench suite.
func benchOpt() experiments.Options {
	return experiments.Options{Scale: 0.01, MaxK: 2}
}

func runExperiment(b *testing.B, id string, opt experiments.Options) {
	b.Helper()
	runner := experiments.Registry()[id]
	if runner == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := runner(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
		rows := 0
		for _, t := range tables {
			rows += len(t.Rows)
		}
		b.ReportMetric(float64(rows), "rows")
	}
}

// BenchmarkTable4Datasets regenerates Table IV (dataset characteristics).
func BenchmarkTable4Datasets(b *testing.B) { runExperiment(b, "table4", benchOpt()) }

// BenchmarkTable5PatternCounts regenerates Table V (number of extracted
// patterns over the sigma x delta grid, 4 datasets).
func BenchmarkTable5PatternCounts(b *testing.B) { runExperiment(b, "table5", benchOpt()) }

// BenchmarkTable6InterestingPatterns regenerates Table VI (qualitative
// pattern listing).
func BenchmarkTable6InterestingPatterns(b *testing.B) { runExperiment(b, "table6", benchOpt()) }

// BenchmarkTable7Runtime regenerates Table VII (runtime comparison of
// H-DFS, IEMiner, TPMiner, E-HTPGM and A-HTPGM at four µ settings).
func BenchmarkTable7Runtime(b *testing.B) { runExperiment(b, "table7", benchOpt()) }

// BenchmarkTable8Memory regenerates Table VIII (peak memory comparison).
func BenchmarkTable8Memory(b *testing.B) { runExperiment(b, "table8", benchOpt()) }

// BenchmarkTable9Accuracy regenerates Table IX (accuracy of A-HTPGM).
func BenchmarkTable9Accuracy(b *testing.B) { runExperiment(b, "table9", benchOpt()) }

// BenchmarkFig6PruningNIST regenerates Fig 6 (pruning ablation on NIST;
// mines to level 3, where transitivity pruning acts).
func BenchmarkFig6PruningNIST(b *testing.B) { runExperiment(b, "fig6", benchOpt()) }

// BenchmarkFig7PruningSmartCity regenerates Fig 7 (ablation, Smart City).
func BenchmarkFig7PruningSmartCity(b *testing.B) { runExperiment(b, "fig7", benchOpt()) }

// BenchmarkFig8PrunedCDF regenerates Fig 8 (confidence CDF of the
// patterns A-HTPGM prunes).
func BenchmarkFig8PrunedCDF(b *testing.B) { runExperiment(b, "fig8", benchOpt()) }

// BenchmarkFig9TradeOff regenerates Fig 9 (accuracy vs runtime gain).
func BenchmarkFig9TradeOff(b *testing.B) { runExperiment(b, "fig9", benchOpt()) }

// BenchmarkFig10ScaleDataNIST regenerates Fig 10 (runtime vs %sequences,
// NIST x4).
func BenchmarkFig10ScaleDataNIST(b *testing.B) { runExperiment(b, "fig10", benchOpt()) }

// BenchmarkFig11ScaleDataSmartCity regenerates Fig 11 (Smart City x4).
func BenchmarkFig11ScaleDataSmartCity(b *testing.B) { runExperiment(b, "fig11", benchOpt()) }

// BenchmarkFig12ScaleAttrsNIST regenerates Fig 12 (runtime vs
// %attributes, NIST).
func BenchmarkFig12ScaleAttrsNIST(b *testing.B) { runExperiment(b, "fig12", benchOpt()) }

// BenchmarkFig13ScaleAttrsSmartCity regenerates Fig 13 (Smart City).
func BenchmarkFig13ScaleAttrsSmartCity(b *testing.B) { runExperiment(b, "fig13", benchOpt()) }

// BenchmarkEndToEndPaperExample measures the full public-API pipeline on
// the paper's Table I example (symbolic database -> DSEQ -> E-HTPGM).
func BenchmarkEndToEndPaperExample(b *testing.B) {
	sdb := paperex.SymbolicDB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := ftpm.MineSymbolic(context.Background(), sdb, ftpm.Options{
			MinSupport:    0.7,
			MinConfidence: 0.7,
			NumWindows:    4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
}

// approxJobDB builds the cold/warm benchmark dataset: enough series
// that the O(n²) pairwise NMI analysis and the DSEQ conversion — the
// artifacts a Prepared caches — dominate one approximate job even with
// run-based counting (cost ∝ runs, not samples), while the long symbol
// runs and a sparse correlation graph keep the mining phase itself
// small.
func approxJobDB(b *testing.B) *ftpm.SymbolicDB {
	b.Helper()
	const nSeries, nSamples = 96, 32768
	series := make([]*ftpm.TimeSeries, nSeries)
	for s := 0; s < nSeries; s++ {
		vals := make([]float64, nSamples)
		period := 128 + 32*(s%9)
		phase := (s * 5) % period
		for i := range vals {
			if ((i+phase)/period)%2 == 0 {
				vals[i] = 1
			}
		}
		ts, err := ftpm.NewTimeSeries(fmt.Sprintf("S%02d", s), 0, 1, vals)
		if err != nil {
			b.Fatal(err)
		}
		series[s] = ts
	}
	sdb, err := ftpm.Symbolize(series, func(string) ftpm.Symbolizer { return ftpm.OnOff(0.5) })
	if err != nil {
		b.Fatal(err)
	}
	return sdb
}

// BenchmarkApproxJobColdVsWarm measures what the prepared-dataset engine
// saves on repeat A-HTPGM jobs: "cold" prepares a fresh handle per job
// (DSEQ conversion + O(n²) pairwise NMI + mining, the old per-job cost),
// "warm" reuses one Prepared so only the threshold resolution and the
// mining itself run. CI asserts warm is at least 3× faster than cold on
// any core count — cache reuse does not depend on parallelism (the
// "always" speedup spec in .github/workflows/ci.yml).
func BenchmarkApproxJobColdVsWarm(b *testing.B) {
	sdb := approxJobDB(b)
	split := ftpm.SplitOptions{NumWindows: 16}
	opt := ftpm.Options{
		MinSupport: 0.5, MinConfidence: 0,
		NumWindows: 16, MaxPatternSize: 2,
		Approx: &ftpm.ApproxOptions{Density: 0.01},
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := ftpm.Prepare(sdb, split, 1)
			if err != nil {
				b.Fatal(err)
			}
			res, err := p.Mine(context.Background(), opt)
			if err != nil {
				b.Fatal(err)
			}
			if res.Graph == nil {
				b.Fatal("no correlation graph")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		p, err := ftpm.Prepare(sdb, split, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Mine(context.Background(), opt); err != nil { // prime the caches
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := p.Mine(context.Background(), opt)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Cache.DSEQ || !res.Cache.NMI {
				b.Fatalf("warm run missed the caches: %+v", res.Cache)
			}
		}
	})
}

// BenchmarkEndToEndApprox measures the A-HTPGM pipeline including NMI
// computation and correlation-graph construction.
func BenchmarkEndToEndApprox(b *testing.B) {
	sdb := paperex.SymbolicDB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := ftpm.MineSymbolic(context.Background(), sdb, ftpm.Options{
			MinSupport:    0.7,
			MinConfidence: 0.7,
			NumWindows:    4,
			Approx:        &ftpm.ApproxOptions{Density: 0.4},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Graph == nil {
			b.Fatal("no graph")
		}
	}
}

// appendBenchDB builds the append benchmark's symbolic database: long
// alternating runs so the DSEQ conversion and L1 scan — the work the
// append path makes incremental — dominate, with the mining itself kept
// to singles.
func appendBenchDB(b *testing.B, nSeries, nSamples int) *ftpm.SymbolicDB {
	b.Helper()
	series := make([]*ftpm.SymbolicSeries, nSeries)
	for s := 0; s < nSeries; s++ {
		syms := make([]int, nSamples)
		period := 12 + 2*(s%7)
		phase := (s * 11) % period
		for i := range syms {
			if ((i+phase)/period)%2 == 0 {
				syms[i] = 1
			}
		}
		series[s] = &ftpm.SymbolicSeries{
			Name: fmt.Sprintf("S%02d", s), Start: 0, Step: 1,
			Alphabet: []string{"Off", "On"}, Symbols: syms,
		}
	}
	sdb, err := ftpm.NewSymbolicDB(series...)
	if err != nil {
		b.Fatal(err)
	}
	return sdb
}

// BenchmarkAppendVsReupload measures what the append path saves over
// re-ingesting everything when 10% of the data is new: "reupload"
// prepares and mines the full database from scratch each iteration (the
// only option before incremental appends), "append" starts from a primed
// handle over the first 90% and per iteration extends the series
// (copy-on-append), advances the handle, and mines — so only the window
// suffix touched by the delta is re-cut and re-scanned. CI asserts
// append is at least 3x faster than reupload on any core count (the
// "always" speedup spec in .github/workflows/ci.yml).
func BenchmarkAppendVsReupload(b *testing.B) {
	const (
		nSeries = 16
		total   = 16384
		baseLen = total * 9 / 10
		shards  = 4
	)
	full := appendBenchDB(b, nSeries, total)
	base := make([]*ftpm.SymbolicSeries, nSeries)
	for i, s := range full.Series {
		base[i] = &ftpm.SymbolicSeries{
			Name: s.Name, Start: s.Start, Step: s.Step,
			Alphabet: s.Alphabet, Symbols: s.Symbols[:baseLen:baseLen],
		}
	}
	baseSDB, err := ftpm.NewSymbolicDB(base...)
	if err != nil {
		b.Fatal(err)
	}
	split := ftpm.SplitOptions{WindowLength: 256, Overlap: 248}
	opt := ftpm.Options{
		MinSupport: 0.4, MinConfidence: 0,
		WindowLength: 256, Overlap: 248, MaxPatternSize: 1,
	}

	b.Run("reupload", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := ftpm.Prepare(full, split, shards)
			if err != nil {
				b.Fatal(err)
			}
			res, err := p.Mine(context.Background(), opt)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Sequences == 0 {
				b.Fatal("no sequences mined")
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		p, err := ftpm.Prepare(baseSDB, split, shards)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Mine(context.Background(), opt); err != nil { // prime conversion + L1 index
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ext := make([]*ftpm.SymbolicSeries, nSeries)
			for si, s := range baseSDB.Series {
				n := len(s.Symbols)
				ext[si] = &ftpm.SymbolicSeries{
					Name: s.Name, Start: s.Start, Step: s.Step,
					Alphabet: s.Alphabet,
					Symbols:  append(s.Symbols[:n:n], full.Series[si].Symbols[baseLen:]...),
				}
			}
			extSDB, err := ftpm.NewSymbolicDB(ext...)
			if err != nil {
				b.Fatal(err)
			}
			np, err := p.Advance(ftpm.NewAnalysis(extSDB))
			if err != nil {
				b.Fatal(err)
			}
			res, err := np.Mine(context.Background(), opt)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Sequences == 0 {
				b.Fatal("no sequences mined")
			}
		}
	})
}

// benchDatasetRecord mirrors the wire shape of the mining service's
// persisted dataset record — enough of it to plant either storage mode's
// record in a fresh write-ahead log.
type benchDatasetRecord struct {
	ID          string            `json:"id"`
	Name        string            `json:"name"`
	CreatedAt   time.Time         `json:"created_at"`
	Shards      int               `json:"shards"`
	Series      []benchSeriesJSON `json:"series,omitempty"`
	Segments    []string          `json:"segments,omitempty"`
	Fingerprint string            `json:"fingerprint,omitempty"`
	Samples     int               `json:"samples,omitempty"`
}

// benchSeriesJSON is the legacy full-payload series record.
type benchSeriesJSON struct {
	Name     string   `json:"name"`
	Start    int64    `json:"start"`
	Step     int64    `json:"step"`
	Alphabet []string `json:"alphabet"`
	Symbols  []int    `json:"symbols"`
}

// timeRestart measures server.New over a data directory that plant
// prepares afresh before every iteration — the restart path: WAL/snapshot
// replay plus dataset restoration. Opening a server rewrites its log (a
// legacy payload record is upgraded, and Close compacts), so the
// re-plant keeps every iteration measuring the same open at any
// -benchtime. Planting, verifying the served dataset and closing the
// server run off the clock.
func timeRestart(b *testing.B, plant func(b *testing.B, dir string), wantSamples int) {
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		plant(b, dir)
		b.StartTimer()
		srv, err := server.New(server.Options{Workers: 1, DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/datasets/ds-1", nil))
		if rw.Code != http.StatusOK {
			b.Fatalf("restored server: GET dataset = %d: %s", rw.Code, rw.Body)
		}
		var info struct {
			Samples int `json:"samples"`
		}
		if err := json.Unmarshal(rw.Body.Bytes(), &info); err != nil || info.Samples != wantSamples {
			b.Fatalf("restored dataset = %s (err %v), want %d samples", rw.Body, err, wantSamples)
		}
		srv.Close()
		b.StartTimer()
	}
}

// BenchmarkRestartRecovery measures what out-of-core segment storage
// saves at restart: "payload" restores a dataset from a legacy
// full-payload WAL record (JSON symbol arrays decoded, the symbolic
// database rebuilt, fingerprinted and sealed into a segment file, and a
// segment record logged — the one-time upgrade of a pre-segment log),
// "segment" restores the same content from a metadata record plus a
// sealed columnar segment file, which is an mmap and a footer read. CI
// asserts segment restart is at least 5x faster than payload restart on
// any core count (the "always" speedup spec in
// .github/workflows/ci.yml).
func BenchmarkRestartRecovery(b *testing.B) {
	const (
		nSeries  = 4
		nSamples = 400000
	)
	sdb := appendBenchDB(b, nSeries, nSamples)
	created := time.Unix(0, 0).UTC()

	plantRecord := func(b *testing.B, dir string, rec benchDatasetRecord) {
		b.Helper()
		l, _, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		data, err := json.Marshal(rec)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Append(store.Kind(1), data); err != nil { // kind: dataset added
			b.Fatal(err)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("payload", func(b *testing.B) {
		rec := benchDatasetRecord{ID: "ds-1", Name: "restart", CreatedAt: created, Shards: 1,
			Series: make([]benchSeriesJSON, nSeries)}
		for i, s := range sdb.Series {
			rec.Series[i] = benchSeriesJSON{Name: s.Name, Start: int64(s.Start), Step: int64(s.Step),
				Alphabet: s.Alphabet, Symbols: s.Symbols}
		}
		timeRestart(b, func(b *testing.B, dir string) { plantRecord(b, dir, rec) }, nSamples)
	})
	b.Run("segment", func(b *testing.B) {
		timeRestart(b, func(b *testing.B, dir string) {
			segDir := filepath.Join(dir, "segments")
			if err := os.MkdirAll(segDir, 0o755); err != nil {
				b.Fatal(err)
			}
			if _, err := store.WriteSegment(filepath.Join(segDir, "ds-1-g0.seg"), sdb, "bench-fp"); err != nil {
				b.Fatal(err)
			}
			plantRecord(b, dir, benchDatasetRecord{ID: "ds-1", Name: "restart", CreatedAt: created, Shards: 1,
				Segments: []string{"ds-1-g0.seg"}, Fingerprint: "bench-fp", Samples: nSamples})
		}, nSamples)
	})
}
