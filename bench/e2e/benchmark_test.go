package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json, decoded strictly.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the harness in
// step: the same workloads and whys, and exactly the metrics the result
// line exports, with the harness's units, directions and bounds.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bm benchmarkFile
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.Command, []string{"bash", "bench/e2e/run.sh"}) || !reflect.DeepEqual(bm.Paths, []string{"bench/e2e"}) {
		t.Errorf("command %q, paths %q", bm.Command, bm.Paths)
	}
	if bm.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness default %d", bm.RunSeconds, runSeconds)
	}

	specs := newWorkloads()
	if len(bm.Workloads) != len(specs) {
		t.Fatalf("%d workloads, harness has %d", len(bm.Workloads), len(specs))
	}
	for i, w := range bm.Workloads {
		sp := specs[i].spec()
		if w.Name != sp.name || w.Why != sp.why {
			t.Errorf("workload %d: %q %q, harness %q %q", i, w.Name, w.Why, sp.name, sp.why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}

	seen := make(map[string]bool)
	checkName := func(name, unit string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("metric %q unit %q: bad or repeated", name, unit)
		}
		seen[name] = true
	}
	var e2e []metricDef
	maxBound, setupBound := 0.0, -1.0
	for _, m := range bm.EndToEnd {
		checkName(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		e2e = append(e2e, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound, Export: true})
	}
	if want := exported(endToEnd); !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end %+v,\nharness exports %+v", e2e, want)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s must be listed with the largest bound (%v), has %v", maxBound, setupBound)
	}

	var layer []metricDef
	for _, m := range bm.PerLayer {
		checkName(m.Name, m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		layer = append(layer, metricDef{Name: m.Name, Unit: m.Unit, Export: true})
	}
	if want := exported(perLayer); !reflect.DeepEqual(layer, want) {
		t.Errorf("per_layer %+v,\nharness exports %+v", layer, want)
	}
}

// TestSecondsIsFrozen: the operation counts are fixed, so a run length
// other than the one they were calibrated for is refused, not silently
// ignored.
func TestSecondsIsFrozen(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-root", t.TempDir(), "-workload", "sweep-exact", "-seconds", strconv.Itoa(runSeconds + 1)}
	if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "-ops") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

func exported(defs []metricDef) []metricDef {
	var out []metricDef
	for _, d := range defs {
		if d.Export {
			out = append(out, d)
		}
	}
	return out
}

// TestSmokeAllWorkloads runs every workload against a real ftpm-serve at
// two operations on tiny inputs, untraced and traced: every metric must be
// printed, no operation may fail, and the result line must be complete.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ftpm-serve")
	}
	build := t.TempDir()
	workloadOnly := map[string]string{
		"upload_p50_ms": "approx-wide", "append_p50_ms": "append-durable",
		"restart_p50_ms": "append-durable", "disk_bytes_per_sample": "append-durable",
	}
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-root", filepath.Join("..", ".."), "-build", build, "-workload", "all",
			"-ops", "2", "-tiny", "-seed", "7", "-trace", trace}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s\n%s", trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 8 {
			t.Errorf("trace %s: result %+v", trace, res)
		}
		printed := make(map[string]map[string]float64) // metric → workload → value
		for _, line := range lines[:len(lines)-1] {
			f := strings.Fields(line)
			if len(f) != 5 || f[0] == "#" {
				continue
			}
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				t.Errorf("line %q: %v", line, err)
			}
			if printed[f[1]] == nil {
				printed[f[1]] = make(map[string]float64)
			}
			printed[f[1]][f[0]] = v
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		for _, d := range defs {
			byWorkload := printed[d.Name]
			switch {
			case len(byWorkload) == 0:
				t.Errorf("trace %s: %s never printed", trace, d.Name)
			case d.Export && len(byWorkload) != len(newWorkloads()):
				t.Errorf("trace %s: exported %s printed only for %v", trace, d.Name, byWorkload)
			case workloadOnly[d.Name] != "" && len(byWorkload) != 1:
				t.Errorf("%s printed for %v, want only %s", d.Name, byWorkload, workloadOnly[d.Name])
			}
			for _, w := range newWorkloads() {
				key := w.spec().name + "." + d.Name
				if _, ok := res.Metrics[key]; ok != d.Export {
					t.Errorf("trace %s: result line has %s: %v, want %v", trace, key, ok, d.Export)
				}
			}
		}
		if trace == "0" {
			for w, v := range printed["error_rate"] {
				if v != 0 {
					t.Errorf("%s error_rate %v", w, v)
				}
			}
			continue
		}
		data, err := os.ReadFile(filepath.Join(build, "spans-all-7.json"))
		if err != nil {
			t.Fatal(err)
		}
		var traces []traceFile
		if err := json.Unmarshal(data, &traces); err != nil || len(traces) != len(newWorkloads()) {
			t.Fatalf("spans file: %d workloads, %v", len(traces), err)
		}
		for _, tf := range traces {
			if err := checkSelfTimes(tf.Replay); err != nil || len(tf.Replay) == 0 {
				t.Errorf("%s replay spans (%d): %v", tf.Workload, len(tf.Replay), err)
			}
		}
	}
}
