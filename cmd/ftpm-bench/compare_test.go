package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const multiCoreOut = `goos: linux
cpu: Test CPU
BenchmarkFoo-8           	       1	  100000 ns/op	 123 B/op	 4 allocs/op
BenchmarkFoo-8           	       1	  120000 ns/op	 123 B/op	 4 allocs/op
BenchmarkIngestConvert/serial-8  	 1	 9000000 ns/op
BenchmarkIngestConvert/sharded-8 	 1	 3000000 ns/op
PASS
`

func TestParseBenchFile(t *testing.T) {
	bf, err := parseBenchFile(writeBench(t, "b.txt", multiCoreOut))
	if err != nil {
		t.Fatal(err)
	}
	if cpu := bf.CPU["BenchmarkFoo"]; cpu != "Test CPU" || bf.MaxProcs != 8 {
		t.Fatalf("parsed cpu %q maxprocs %d", cpu, bf.MaxProcs)
	}
	// -count repeats collapse to the median; the -8 suffix strips.
	if ns := bf.MedianNsPerOp["BenchmarkFoo"]; ns != 110000 {
		t.Fatalf("BenchmarkFoo median ns/op = %v, want 110000", ns)
	}
	if _, ok := bf.MedianNsPerOp["BenchmarkIngestConvert/sharded"]; !ok {
		t.Fatalf("sub-benchmark missing: %v", bf.MedianNsPerOp)
	}
	// Custom metrics sit between ns/op and the -benchmem columns.
	custom, err := parseBenchFile(writeBench(t, "custom.txt",
		"BenchmarkSweep-8  1  250000 ns/op  9.9 lk_ms/cell  64 B/op  3 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ns, a := custom.MedianNsPerOp["BenchmarkSweep"], custom.AllocsPerOp["BenchmarkSweep"]; ns != 250000 || a != 3 {
		t.Fatalf("line with a custom metric: ns/op %v allocs/op %v, want 250000 and 3", ns, a)
	}
	if _, err := parseBenchFile(writeBench(t, "empty.txt", "PASS\n")); err == nil {
		t.Fatal("file without results must error")
	}
}

// twoHosts is a baseline of two go test outputs recorded on different
// hosts, as bench/BASELINE.txt concatenates one per package.
const twoHosts = `goos: linux
goarch: amd64
pkg: ftpm/internal/core
cpu: Host A
BenchmarkOnA 1 1000 ns/op 64 B/op 2 allocs/op
BenchmarkOnA 1 1000 ns/op 64 B/op 2 allocs/op
PASS
ok  	ftpm/internal/core	1.000s
goos: linux
goarch: amd64
pkg: ftpm/internal/server
cpu: Host B
BenchmarkOnB 1 1000 ns/op 64 B/op 2 allocs/op
BenchmarkOnB 1 1000 ns/op 64 B/op 2 allocs/op
PASS
ok  	ftpm/internal/server	1.000s
`

// TestParseBenchFileTwoHosts keys each benchmark to the cpu: line of its
// own block: a run on one host gates that host's lines of a two-host
// baseline, and skips the other host's, whichever block comes last.
func TestParseBenchFileTwoHosts(t *testing.T) {
	base := writeBench(t, "base.txt", twoHosts)
	bf, err := parseBenchFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := bf.CPU["BenchmarkOnA"], bf.CPU["BenchmarkOnB"]; a != "Host A" || b != "Host B" {
		t.Fatalf("cpu of BenchmarkOnA %q, of BenchmarkOnB %q; want Host A and Host B", a, b)
	}
	for _, c := range []struct {
		host, slow string
		code       int
	}{
		{"Host A", "BenchmarkOnA", 1}, // the block before the last: armed
		{"Host A", "BenchmarkOnB", 0},
		{"Host B", "BenchmarkOnB", 1},
		{"Host B", "BenchmarkOnA", 0},
	} {
		cur := "cpu: " + c.host + "\n"
		for _, name := range []string{"BenchmarkOnA", "BenchmarkOnB"} {
			ns := 1000
			if name == c.slow {
				ns = 2000
			}
			cur += fmt.Sprintf("%s 1 %d ns/op 64 B/op 2 allocs/op\n", name, ns)
		}
		if code := runCompare(base, writeBench(t, "cur.txt", cur), 0.20, 0.20, nil, ""); code != c.code {
			t.Errorf("run on %s with %s 2x slower returned %d, want %d", c.host, c.slow, code, c.code)
		}
	}

	// Runs of one benchmark on two hosts have no one host to compare with.
	mixed, err := parseBenchFile(writeBench(t, "mixed.txt", "cpu: Host A\nBenchmarkX 1 10 ns/op\ngoos: linux\ncpu: Host B\nBenchmarkX 1 10 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cpu := mixed.CPU["BenchmarkX"]; cpu != "" {
		t.Fatalf("runs on two hosts keyed to %q, want none", cpu)
	}
}

func TestEvalSpeedup(t *testing.T) {
	bf, err := parseBenchFile(writeBench(t, "b.txt", multiCoreOut))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := evalSpeedup(bf, "BenchmarkIngestConvert/serial,BenchmarkIngestConvert/sharded,1.5")
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Enforced || !sp.Pass || sp.Ratio != 3 {
		t.Fatalf("speedup = %+v, want enforced pass at 3x", sp)
	}
	if _, err := evalSpeedup(bf, "nope"); err == nil {
		t.Fatal("malformed spec must error")
	}
	if _, err := evalSpeedup(bf, "BenchmarkMissing,BenchmarkFoo,1.5"); err == nil {
		t.Fatal("unknown benchmark must error")
	}

	// Single-core runs never enforce the ratio.
	single, err := parseBenchFile(writeBench(t, "s.txt",
		"cpu: Test CPU\nBenchmarkA 1 100 ns/op\nBenchmarkB 1 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err = evalSpeedup(single, "BenchmarkA,BenchmarkB,1.5")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Enforced || !sp.Pass {
		t.Fatalf("single-core speedup = %+v, want skipped", sp)
	}

	// ...unless the spec demands enforcement on any core count.
	sp, err = evalSpeedup(single, "BenchmarkA,BenchmarkB,1.5,always")
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Enforced || sp.Pass {
		t.Fatalf("always-speedup on single core = %+v, want enforced fail", sp)
	}
	if _, err := evalSpeedup(single, "BenchmarkA,BenchmarkB,1.5,sometimes"); err == nil {
		t.Fatal("unknown trailing token must error")
	}

	// A minimum below 1 is a ceiling: 0.77 lets the second benchmark take
	// up to 1.3x the first, so a 1.2x pair passes and a 1.4x pair fails.
	ceiling, err := parseBenchFile(writeBench(t, "c.txt", `cpu: Test CPU
BenchmarkNear/depth=1 1 1000 ns/op
BenchmarkNear/depth=120 1 1200 ns/op
BenchmarkFar/depth=1 1 1000 ns/op
BenchmarkFar/depth=120 1 1400 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pass bool
	}{{"BenchmarkNear", true}, {"BenchmarkFar", false}} {
		sp, err := evalSpeedup(ceiling, c.name+"/depth=1,"+c.name+"/depth=120,0.77,always")
		if err != nil {
			t.Fatal(err)
		}
		if !sp.Enforced || sp.Pass != c.pass {
			t.Fatalf("%s: ceiling = %+v, want enforced with pass %v", c.name, sp, c.pass)
		}
	}

	// The ratio is of medians: one fast outlier among the slow benchmark's
	// five runs (1000 ns against a typical 2000) would fail a 1.5x gate on
	// the minimum (1000/1000), but the medians read 2000/1000.
	outlier, err := parseBenchFile(writeBench(t, "o.txt", `cpu: Test CPU
BenchmarkSlow-2 1 2100 ns/op
BenchmarkSlow-2 1 1000 ns/op
BenchmarkSlow-2 1 2000 ns/op
BenchmarkSlow-2 1 1900 ns/op
BenchmarkSlow-2 1 2200 ns/op
BenchmarkFast-2 1 1000 ns/op
BenchmarkFast-2 1 1100 ns/op
BenchmarkFast-2 1 1000 ns/op
BenchmarkFast-2 1 950 ns/op
BenchmarkFast-2 1 1050 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	sp, err = evalSpeedup(outlier, "BenchmarkSlow,BenchmarkFast,1.5")
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Enforced || !sp.Pass || sp.Ratio != 2 {
		t.Fatalf("speedup with a fast outlier = %+v, want enforced pass at the median ratio 2", sp)
	}
}

func TestRunCompareGates(t *testing.T) {
	base := writeBench(t, "base.txt", multiCoreOut)
	// The gate compares medians: the baseline's is 110000 ns.
	regressed := writeBench(t, "cur.txt", `cpu: Test CPU
BenchmarkFoo-8  1  143000 ns/op
`)
	if code := runCompare(base, regressed, 0.20, 0.20, nil, ""); code != 1 {
		t.Fatalf("30%% regression returned %d, want 1", code)
	}
	if code := runCompare(base, regressed, 0.35, 0.20, nil, ""); code != 0 {
		t.Fatalf("regression within tolerance returned %d, want 0", code)
	}

	// One fast outlier among the baseline's runs (60000 against a typical
	// 100000) makes a steady 110000 read as an 80% regression on the
	// minima, but the medians read 100000 -> 110000, inside 20%.
	outlierBase := writeBench(t, "outlier.txt", `cpu: Test CPU
BenchmarkFoo-8  1  100000 ns/op
BenchmarkFoo-8  1   60000 ns/op
BenchmarkFoo-8  1  105000 ns/op
BenchmarkFoo-8  1   98000 ns/op
BenchmarkFoo-8  1  100000 ns/op
`)
	steady := writeBench(t, "steady.txt", `cpu: Test CPU
BenchmarkFoo-8  1  110000 ns/op
BenchmarkFoo-8  1  108000 ns/op
BenchmarkFoo-8  1  112000 ns/op
`)
	if code := runCompare(outlierBase, steady, 0.20, 0.20, nil, ""); code != 0 {
		t.Fatalf("a fast baseline outlier returned %d, want 0 (medians within tolerance)", code)
	}

	// Different hardware: the ns/op gate disarms.
	otherCPU := writeBench(t, "other.txt", `cpu: Other CPU
BenchmarkFoo-8  1  900000 ns/op
`)
	if code := runCompare(base, otherCPU, 0.20, 0.20, nil, ""); code != 0 {
		t.Fatalf("hardware mismatch returned %d, want 0 (gate skipped)", code)
	}

	// JSON artifact lands on disk; multiple -speedup specs all evaluate.
	out := filepath.Join(t.TempDir(), "BENCH_PR1.json")
	specs := []string{
		"BenchmarkIngestConvert/serial,BenchmarkIngestConvert/sharded,1.5",
		"BenchmarkIngestConvert/serial,BenchmarkFoo,2",
	}
	if code := runCompare(base, base, 0.20, 0.20, specs, out); code != 0 {
		t.Fatalf("self-compare returned %d, want 0", code)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("missing JSON artifact: %v", err)
	}

	// One failing spec among several fails the run.
	failing := []string{
		"BenchmarkIngestConvert/serial,BenchmarkIngestConvert/sharded,1.5",
		"BenchmarkIngestConvert/sharded,BenchmarkIngestConvert/serial,1.5", // inverted: ratio 1/3
	}
	if code := runCompare(base, base, 0.20, 0.20, failing, ""); code != 1 {
		t.Fatalf("failing speedup spec returned %d, want 1", code)
	}
}

// TestAllocGate covers the allocs/op regression gate: it parses the
// -benchmem columns, stays armed across CPU *and* GOMAXPROCS changes
// (allocation counts do not depend on the clock, and the benchmarks fix
// their worker counts, so a single-core baseline still guards multi-core
// CI runs), and fails on >tolerance allocation growth.
func TestAllocGate(t *testing.T) {
	bf, err := parseBenchFile(writeBench(t, "b.txt", multiCoreOut))
	if err != nil {
		t.Fatal(err)
	}
	if a := bf.AllocsPerOp["BenchmarkFoo"]; a != 4 {
		t.Fatalf("BenchmarkFoo allocs/op = %v, want 4", a)
	}
	if b := bf.BytesPerOp["BenchmarkFoo"]; b != 123 {
		t.Fatalf("BenchmarkFoo B/op = %v, want 123", b)
	}
	if _, ok := bf.AllocsPerOp["BenchmarkIngestConvert/serial"]; ok {
		t.Fatal("benchmark without -benchmem columns must not carry allocs")
	}

	base := writeBench(t, "base.txt", multiCoreOut)
	// Same ns/op, 2x the allocations, on different hardware: only the
	// alloc gate can fail — and it must, despite the CPU change.
	allocRegressed := writeBench(t, "alloc.txt", `cpu: Other CPU
BenchmarkFoo-8  1  100000 ns/op  246 B/op  8 allocs/op
`)
	if code := runCompare(base, allocRegressed, 0.20, 0.20, nil, ""); code != 1 {
		t.Fatalf("2x allocation regression returned %d, want 1", code)
	}
	if code := runCompare(base, allocRegressed, 0.20, 1.5, nil, ""); code != 0 {
		t.Fatalf("allocation growth within tolerance returned %d, want 0", code)
	}

	// Different GOMAXPROCS: the gate must still fire — a single-core
	// baseline guards multi-core CI runs (the time gate disarms, the
	// alloc gate does not).
	otherProcs := writeBench(t, "procs.txt", `cpu: Other CPU
BenchmarkFoo-4  1  100000 ns/op  246 B/op  8 allocs/op
`)
	if code := runCompare(base, otherProcs, 0.20, 0.20, nil, ""); code != 1 {
		t.Fatalf("GOMAXPROCS mismatch returned %d, want 1 (alloc gate stays armed)", code)
	}

	// A zero-alloc baseline gaining any allocation is an unbounded
	// regression — the gate must fire rather than divide by zero or skip.
	zeroBase := writeBench(t, "zero.txt", `cpu: Test CPU
BenchmarkFoo-8  1  100000 ns/op  0 B/op  0 allocs/op
`)
	if code := runCompare(zeroBase, allocRegressed, 0.20, 0.20, nil, ""); code != 1 {
		t.Fatalf("0 -> 8 allocs/op returned %d, want 1", code)
	}
	if code := runCompare(zeroBase, zeroBase, 0.20, 0.20, nil, ""); code != 0 {
		t.Fatalf("0 -> 0 allocs/op returned %d, want 0", code)
	}

	// Runs without any -benchmem data disarm the gate (and say so).
	noMem := writeBench(t, "nomem.txt", `cpu: Test CPU
BenchmarkFoo-8  1  100000 ns/op
`)
	if code := runCompare(noMem, allocRegressed, 0.20, 0.20, nil, ""); code != 0 {
		t.Fatalf("baseline without -benchmem returned %d, want 0 (gate disarmed)", code)
	}

	// The artifact document carries the alloc columns and the regression.
	out := filepath.Join(t.TempDir(), "BENCH_ALLOC.json")
	if code := runCompare(base, allocRegressed, 0.20, 0.20, nil, out); code != 1 {
		t.Fatalf("alloc regression with artifact returned %d, want 1", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"alloc_gate_armed": true`, `"alloc_regressed": true`, `"BenchmarkFoo (allocs/op)"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("artifact missing %q:\n%s", want, data)
		}
	}
}
