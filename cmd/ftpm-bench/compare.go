package main

// Benchmark comparison mode: ftpm-bench -compare BASELINE -with CURRENT
// parses two `go test -bench` outputs, fails on ns/op and allocs/op
// regressions beyond their tolerances, and optionally asserts a speedup
// ratio between two benchmarks of the current run (the sharded-ingestion
// gate). Results are also written as a JSON document for CI artifacts.
//
// The time regression gate compares the median ns/op of the baseline's
// and the current run's -count runs, so one fast outlier on either side
// neither trips nor hides a regression. Cross-hardware ns/op comparison
// is meaningless, so the gate applies to a benchmark only when the
// baseline and the current run report the same `cpu:` line for it and
// the same GOMAXPROCS; otherwise that benchmark's gate is skipped with a
// warning (refresh its baseline lines on the new hardware to re-arm it).
// A file may hold several `go test` outputs, one per package and not
// necessarily from one host, so each benchmark takes the `cpu:` line of
// its own block. Allocation counts are a property of the code, not the
// clock or the core count — the repo's
// benchmarks fix their worker counts explicitly, so GOMAXPROCS only
// perturbs pool scheduling by a handful of allocations — which is why the
// allocs/op gate stays armed across both CPU models and GOMAXPROCS: the
// tolerance absorbs the scheduling noise, and a baseline recorded on a
// single-core builder still guards multi-core CI runs. Speedup
// assertions compare the median ns/op of two benchmarks of the same run —
// hardware-independent, and not swayed by one fast outlier among the
// -count runs — but by default are only enforced when the run had
// GOMAXPROCS > 1, since a parallel variant cannot beat a serial one on a
// single core; a spec's trailing "always" enforces it on any core count
// (cache-reuse ratios).

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one result line of `go test -bench` output with the
// optional -benchmem columns, which follow any custom metrics
// (testing.B.ReportMetric), e.g.
//
//	BenchmarkIngestConvert/serial-8   1   120132295 ns/op   36385920 B/op   57072 allocs/op
//	BenchmarkMineSweep-8              1   258000000 ns/op   9.9 lk_ms/cell   39292089 B/op   540476 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// procSuffix is the GOMAXPROCS suffix go test appends to benchmark names
// (absent when GOMAXPROCS is 1).
var procSuffix = regexp.MustCompile(`-(\d+)$`)

// benchFile is one parsed benchmark output.
type benchFile struct {
	// CPU maps the benchmark name to the `cpu:` line of the block its
	// runs were recorded in, "" when there was none or its runs come from
	// blocks that name different CPUs.
	CPU      map[string]string
	MaxProcs int
	// MedianNsPerOp maps the benchmark name (GOMAXPROCS suffix stripped)
	// to the median ns/op of its runs, which the regression gate and the
	// speedup assertions compare.
	MedianNsPerOp map[string]float64
	// AllocsPerOp and BytesPerOp carry the -benchmem columns (minimum
	// observed), absent for benchmarks that did not report them.
	AllocsPerOp map[string]float64
	BytesPerOp  map[string]float64
}

func parseBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bf := &benchFile{
		CPU:           make(map[string]string),
		MaxProcs:      1,
		MedianNsPerOp: make(map[string]float64),
		AllocsPerOp:   make(map[string]float64),
		BytesPerOp:    make(map[string]float64),
	}
	type entry struct {
		name          string
		cpu           string
		ns            float64
		bytes, allocs float64
		hasMem        bool
	}
	var entries []entry
	cpu := "" // the cpu: line of the block being read
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "goos: ") {
			cpu = "" // a new block: its cpu: line follows
			continue
		}
		if c, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = c
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		e := entry{name: m[1], cpu: cpu, ns: ns}
		if m[4] != "" && m[5] != "" {
			b, errB := strconv.ParseFloat(m[4], 64)
			a, errA := strconv.ParseFloat(m[5], 64)
			if errB == nil && errA == nil {
				e.bytes, e.allocs, e.hasMem = b, a, true
			}
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no benchmark results in %s", path)
	}
	// The GOMAXPROCS suffix is only stripped when every line carries the
	// same "-N": one run shares one proc count, whereas a sub-benchmark
	// that merely happens to end in a hyphenated number (say "chunk-4")
	// would disagree across lines (and is left intact on GOMAXPROCS=1
	// runs, which emit no suffix at all).
	proc := ""
	for i, e := range entries {
		sm := procSuffix.FindStringSubmatch(e.name)
		if sm == nil || (i > 0 && sm[1] != proc) {
			proc = ""
			break
		}
		proc = sm[1]
	}
	if proc != "" {
		if n, err := strconv.Atoi(proc); err == nil {
			bf.MaxProcs = n
			for i := range entries {
				entries[i].name = strings.TrimSuffix(entries[i].name, "-"+proc)
			}
		}
	}
	runs := make(map[string][]float64)
	for _, e := range entries {
		if prev, ok := bf.CPU[e.name]; ok && prev != e.cpu {
			e.cpu = "" // runs from two hosts: no one host to compare with
		}
		bf.CPU[e.name] = e.cpu
		runs[e.name] = append(runs[e.name], e.ns)
		if e.hasMem {
			if prev, ok := bf.AllocsPerOp[e.name]; !ok || e.allocs < prev {
				bf.AllocsPerOp[e.name] = e.allocs
			}
			if prev, ok := bf.BytesPerOp[e.name]; !ok || e.bytes < prev {
				bf.BytesPerOp[e.name] = e.bytes
			}
		}
	}
	for name, ns := range runs {
		bf.MedianNsPerOp[name] = median(ns)
	}
	return bf, nil
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count); it sorts xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// comparisonJSON is one benchmark's baseline-vs-current entry.
type comparisonJSON struct {
	Name        string `json:"name"`
	BaselineCPU string `json:"baseline_cpu"`
	CurrentCPU  string `json:"current_cpu"`
	// HardwareMatch reports whether the ns/op gate applied: both runs
	// name the same CPU for this benchmark, at the same GOMAXPROCS.
	HardwareMatch bool    `json:"hardware_match"`
	BaselineNs    float64 `json:"baseline_ns_op"`
	CurrentNs     float64 `json:"current_ns_op"`
	Ratio         float64 `json:"ratio"`
	Regressed     bool    `json:"regressed"`
	// Allocation columns, present when both runs reported -benchmem data.
	BaselineAllocs float64 `json:"baseline_allocs_op,omitempty"`
	CurrentAllocs  float64 `json:"current_allocs_op,omitempty"`
	BaselineBytes  float64 `json:"baseline_b_op,omitempty"`
	CurrentBytes   float64 `json:"current_b_op,omitempty"`
	AllocRatio     float64 `json:"alloc_ratio,omitempty"`
	AllocRegressed bool    `json:"alloc_regressed,omitempty"`
	hasAllocs      bool    // both runs reported -benchmem for this benchmark
}

// speedupJSON reports the intra-run speedup assertion.
type speedupJSON struct {
	Slow     string  `json:"slow"`
	Fast     string  `json:"fast"`
	Ratio    float64 `json:"ratio"`
	MinRatio float64 `json:"min_ratio"`
	Enforced bool    `json:"enforced"`
	Pass     bool    `json:"pass"`
}

// compareJSON is the artifact document of one compare run.
type compareJSON struct {
	MaxProcs  int     `json:"maxprocs"`
	Tolerance float64 `json:"tolerance"`
	// AllocGateArmed reports whether the allocs/op gate applied: whenever
	// both runs carry -benchmem data — allocation counts do not require
	// matching hardware (see the package comment).
	AllocGateArmed bool             `json:"alloc_gate_armed"`
	AllocTolerance float64          `json:"alloc_tolerance"`
	Benchmarks     []comparisonJSON `json:"benchmarks"`
	Regressions    []string         `json:"regressions"`
	Speedups       []speedupJSON    `json:"speedups,omitempty"`
}

// speedupFlags collects repeated -speedup specs.
type speedupFlags []string

func (f *speedupFlags) String() string { return strings.Join(*f, "; ") }

func (f *speedupFlags) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// runCompare executes the compare mode and returns the process exit code.
func runCompare(baselinePath, currentPath string, tolerance, allocTolerance float64, speedupSpecs []string, jsonOut string) int {
	base, err := parseBenchFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftpm-bench: baseline: %v\n", err)
		return 2
	}
	cur, err := parseBenchFile(currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftpm-bench: current: %v\n", err)
		return 2
	}

	doc := compareJSON{
		MaxProcs:  cur.MaxProcs,
		Tolerance: tolerance,
		// Allocation counts do not depend on clock speed and only
		// negligibly on scheduling (the benchmarks fix their worker counts
		// explicitly), so the alloc gate stays armed across hardware — the
		// whole point of gating allocs next to the hardware-gated ns/op.
		// It disarms only when a run carries no -benchmem data at all.
		AllocGateArmed: len(base.AllocsPerOp) > 0 && len(cur.AllocsPerOp) > 0,
		AllocTolerance: allocTolerance,
	}

	names := make([]string, 0, len(cur.MedianNsPerOp))
	for name := range cur.MedianNsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		baseNs, ok := base.MedianNsPerOp[name]
		if !ok {
			continue // new benchmark: nothing to regress against
		}
		curNs := cur.MedianNsPerOp[name]
		c := comparisonJSON{
			Name:        name,
			BaselineCPU: base.CPU[name],
			CurrentCPU:  cur.CPU[name],
			// Parallel benchmarks scale with the core count, so a baseline
			// recorded at a different GOMAXPROCS is as incomparable as one
			// from a different CPU.
			HardwareMatch: base.CPU[name] != "" && base.CPU[name] == cur.CPU[name] && base.MaxProcs == cur.MaxProcs,
			BaselineNs:    baseNs,
			CurrentNs:     curNs,
			Ratio:         curNs / baseNs,
		}
		c.Regressed = c.HardwareMatch && c.Ratio > 1+tolerance
		if c.Regressed {
			doc.Regressions = append(doc.Regressions, name)
		}
		if baseAllocs, ok := base.AllocsPerOp[name]; ok {
			if curAllocs, ok := cur.AllocsPerOp[name]; ok {
				c.hasAllocs = true
				c.BaselineAllocs = baseAllocs
				c.CurrentAllocs = curAllocs
				c.BaselineBytes = base.BytesPerOp[name]
				c.CurrentBytes = cur.BytesPerOp[name]
				if baseAllocs > 0 {
					c.AllocRatio = curAllocs / baseAllocs
					c.AllocRegressed = doc.AllocGateArmed && c.AllocRatio > 1+allocTolerance
				} else {
					// A zero-alloc baseline is the end state this project
					// optimizes toward; any allocation reappearing there is
					// an unbounded regression (the ratio is left 0 — ±Inf
					// would break the JSON artifact).
					c.AllocRegressed = doc.AllocGateArmed && curAllocs > 0
				}
				if c.AllocRegressed {
					doc.Regressions = append(doc.Regressions, name+" (allocs/op)")
				}
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, c)
	}

	fail := false
	// One warning per pair of hardware the gate could not compare.
	type hardware struct{ base, cur string }
	var pairs []hardware
	skipped := make(map[hardware][]string)
	for _, c := range doc.Benchmarks {
		if !c.HardwareMatch {
			h := hardware{c.BaselineCPU, c.CurrentCPU}
			if skipped[h] == nil {
				pairs = append(pairs, h)
			}
			skipped[h] = append(skipped[h], c.Name)
		}
	}
	for _, h := range pairs {
		msg := fmt.Sprintf("baseline hardware (cpu %q, GOMAXPROCS %d) != current (cpu %q, GOMAXPROCS %d); ns/op regression gate skipped for %s (refresh their baseline lines on this hardware to re-arm it)",
			h.base, base.MaxProcs, h.cur, cur.MaxProcs, strings.Join(skipped[h], ", "))
		fmt.Fprintf(os.Stderr, "ftpm-bench: %s\n", msg)
		if os.Getenv("GITHUB_ACTIONS") == "true" {
			// Surface the disarmed gate as a workflow annotation so it is
			// visible on the PR, not buried in the job log.
			fmt.Printf("::warning title=benchmark gate disarmed::%s\n", msg)
		}
	}
	for _, c := range doc.Benchmarks {
		status := "ok"
		switch {
		case c.Regressed:
			status = "REGRESSED"
			fail = true
		case !c.HardwareMatch:
			status = "unchecked (other hardware)"
		}
		fmt.Printf("%-60s %14.0f -> %14.0f ns/op  %.2fx  %s\n", c.Name, c.BaselineNs, c.CurrentNs, c.Ratio, status)
		if c.hasAllocs {
			status = "ok"
			if c.AllocRegressed {
				status = "REGRESSED"
				fail = true
			}
			fmt.Printf("%-60s %14.0f -> %14.0f allocs/op %.2fx  %s\n", "", c.BaselineAllocs, c.CurrentAllocs, c.AllocRatio, status)
		}
	}

	for _, spec := range speedupSpecs {
		sp, err := evalSpeedup(cur, spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftpm-bench: %v\n", err)
			return 2
		}
		doc.Speedups = append(doc.Speedups, *sp)
		verdict := "pass"
		if !sp.Enforced {
			verdict = "skipped (single-core run)"
		} else if !sp.Pass {
			verdict = "FAIL"
			fail = true
		}
		fmt.Printf("speedup %s vs %s: %.2fx (min %.2fx) — %s\n", sp.Fast, sp.Slow, sp.Ratio, sp.MinRatio, verdict)
	}

	if jsonOut != "" {
		data, _ := json.MarshalIndent(doc, "", "  ")
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ftpm-bench: %v\n", err)
			return 2
		}
	}
	if fail {
		return 1
	}
	return 0
}

// evalSpeedup parses "slowName,fastName,minRatio[,always]" and evaluates
// it against the current run: the ratio is of the two benchmarks' median
// ns/op over their -count runs. By default the assertion is only enforced
// on multi-core runs — a parallel variant cannot beat a serial one on a
// single core; the trailing "always" enforces regardless, for ratios
// that do not depend on parallelism (e.g. warm-vs-cold cache reuse).
func evalSpeedup(cur *benchFile, spec string) (*speedupJSON, error) {
	parts := strings.Split(spec, ",")
	always := len(parts) == 4 && parts[3] == "always"
	if len(parts) != 3 && !always {
		return nil, fmt.Errorf("bad -speedup %q (want slowBench,fastBench,minRatio[,always])", spec)
	}
	min, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return nil, fmt.Errorf("bad -speedup ratio %q: %v", parts[2], err)
	}
	slowNs, ok := cur.MedianNsPerOp[parts[0]]
	if !ok {
		return nil, fmt.Errorf("-speedup benchmark %q not in current results", parts[0])
	}
	fastNs, ok := cur.MedianNsPerOp[parts[1]]
	if !ok {
		return nil, fmt.Errorf("-speedup benchmark %q not in current results", parts[1])
	}
	sp := &speedupJSON{
		Slow:     parts[0],
		Fast:     parts[1],
		Ratio:    slowNs / fastNs,
		MinRatio: min,
		Enforced: always || cur.MaxProcs > 1,
	}
	sp.Pass = !sp.Enforced || sp.Ratio >= min
	return sp, nil
}
