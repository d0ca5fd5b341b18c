package main

import (
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100, 102, 98, 100, 101, 99}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 60, 140, 90, 110, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		def  metricDef
		want string
	}{
		{"same", steady, steady, lower, "PASS"},
		{"5% slower is within the bound", steady, scale(steady, 1.05), lower, "PASS"},
		{"20% slower", steady, scale(steady, 1.2), lower, "FAIL"},
		{"20% faster", steady, scale(steady, 0.8), lower, "PASS"},
		{"20% less throughput", steady, scale(steady, 0.8), higher, "FAIL"},
		{"20% more throughput", steady, scale(steady, 1.2), higher, "PASS"},
		{"noise wider than the bound", steady, noisy, lower, "unresolved"},
		{"noisy but every run better", scale(noisy, 3), noisy, lower, "PASS"},
		{"noisy and one run worse", scale(noisy, 1.1), noisy, lower, "unresolved"},
		{"any increase of a zero-bound metric", []float64{0, 0, 0}, []float64{0, 0.01, 0.01}, metricDef{Better: "lower"}, "FAIL"},
		{"zero-bound metric unchanged", []float64{0, 0, 0}, []float64{0, 0, 0}, metricDef{Better: "lower"}, "PASS"},
	} {
		if got := verdict(tc.a, tc.b, tc.def, true); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
	if got := verdict(steady, steady, metricDef{}, false); got != "-" {
		t.Errorf("unbounded metric verdict = %s, want -", got)
	}
}

func testRecord(workload string, env envStamp, p50 float64) record {
	return record{Workload: workload, Env: env, Correct: true,
		Metrics: map[string]metricOut{"op_p50_ms": {Value: p50, Unit: "ms", N: 100}}}
}

func TestCompareSetsRefusesDifferentMachines(t *testing.T) {
	env := envStamp{NProc: 2, GOMAXPROCS: 2, CPU: "cpu", GoVersion: "go1.22", DataFS: "ext2/3/4", Commit: "a"}
	other := env
	other.Commit = "b" // a different commit is what a comparison is for
	defs := map[string]metricDef{"op_p50_ms": {Name: "op_p50_ms", Better: "lower", Bound: 0.1}}
	a := []record{testRecord("sweep-exact", env, 100), testRecord("sweep-exact", env, 101)}
	b := []record{testRecord("sweep-exact", other, 150), testRecord("sweep-exact", other, 151)}
	rows, err := compareSets(a, b, defs)
	if err != nil {
		t.Fatalf("different commits refused: %v", err)
	}
	if len(rows) != 1 || rows[0].verdict != "FAIL" || len(rows[0].a) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, change := range []func(*envStamp){
		func(e *envStamp) { e.NProc = 4 },
		func(e *envStamp) { e.GOMAXPROCS = 1 },
		func(e *envStamp) { e.CPU = "other" },
		func(e *envStamp) { e.GoVersion = "go1.23" },
		func(e *envStamp) { e.DataFS = "tmpfs" },
	} {
		moved := env
		change(&moved)
		b := []record{testRecord("sweep-exact", moved, 100)}
		if _, err := compareSets(a, b, defs); err == nil || !strings.Contains(err.Error(), "environment") {
			t.Errorf("stamp %+v compared with %+v: %v", moved, env, err)
		}
	}
}

func TestCompareSetsSkipsIncorrectRuns(t *testing.T) {
	env := envStamp{NProc: 2}
	bad := testRecord("fetch-cached", env, 1)
	bad.Correct = false
	a := []record{testRecord("fetch-cached", env, 100), bad}
	rows, err := compareSets(a, a, map[string]metricDef{})
	if err != nil || len(rows) != 1 || len(rows[0].a) != 1 || rows[0].verdict != "-" {
		t.Fatalf("rows = %+v, err %v", rows, err)
	}
}
