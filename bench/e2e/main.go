// Command e2e is the end-to-end benchmark of ftpm-serve. It builds
// ./cmd/ftpm-serve from the checkout, runs it as a separate process on
// 127.0.0.1, and drives it with closed-loop clients through the /v1 HTTP
// API over four workloads made from the seeded datagen profiles. Every
// operation's output is checked, and selected results are recomputed
// in-process and compared. A traced run additionally replays every
// operation in-process through the server's layers, under spans, and
// reports per-layer metrics.
//
// Usage, from the checkout root (see README.md):
//
//	bash bench/e2e/run.sh --workload <name|all> --seed <n> [--trace 0|1|<spans.json>] [--records <file.jsonl>]
//	bash bench/e2e/run.sh --agree a.jsonl b.jsonl
//
// It prints one "workload metric value unit n" line per metric, then one
// JSON object as its last line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runSeconds is the run_seconds of BENCHMARK.json: the length, on the
// reference host, of the timed operations of a run at the workloads'
// frozen operation counts.
const runSeconds = 15

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range newWorkloads() {
		names = append(names, w.spec().name)
	}
	var (
		wlName  = fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
		seed    = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Int("seconds", runSeconds, "run length the frozen operation counts were calibrated for; no other value is accepted")
		trace   = fs.String("trace", "0", "1, or a spans file path: replay every operation under spans and report per-layer metrics")
		records = fs.String("records", "", "append one JSON record per workload run to this file")
		ops     = fs.Int("ops", 0, "operation count, overriding the workload's frozen count (smoke tests)")
		tiny    = fs.Bool("tiny", false, "shrink every input (smoke tests)")
		agree   = fs.Bool("agree", false, "compare two record files: -agree a.jsonl b.jsonl")
		root    = fs.String("root", ".", "checkout whose ./cmd/ftpm-serve is measured")
		build   = fs.String("build", "", "directory for the server binary and run directories (default <root>/.bench_build/e2e)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		return runAgree(fs.Args(), *root, stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds != runSeconds {
		fmt.Fprintf(stderr, "-seconds %d: the operation counts are frozen for %d s runs; use -ops to change them\n", *seconds, runSeconds)
		return 2
	}
	var selected []workload
	for _, w := range newWorkloads() {
		if *wlName == "all" || *wlName == w.spec().name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "unknown -workload %q (want %s, or all)\n", *wlName, strings.Join(names, ", "))
		return 2
	}
	cfg := config{root: *root, build: *build, seed: *seed, ops: *ops, tiny: *tiny,
		gomaxprocs: runtime.NumCPU(), log: stderr}
	spansPath := ""
	switch *trace {
	case "0", "":
	case "1":
		cfg.trace = true
	default:
		cfg.trace, spansPath = true, *trace
	}
	if cfg.build == "" {
		cfg.build = filepath.Join(cfg.root, ".bench_build", "e2e")
	}
	if cfg.trace && spansPath == "" {
		spansPath = filepath.Join(cfg.build, fmt.Sprintf("spans-%s-%d.json", *wlName, *seed))
	}
	if err := measure(cfg, selected, spansPath, *records, stdout); err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		var incorrect errIncorrect
		if errors.As(err, &incorrect) {
			return 1
		}
		return 2
	}
	return 0
}

// errIncorrect reports a run whose outputs failed a check; its result line
// is still printed.
type errIncorrect struct{ failed int }

func (e errIncorrect) Error() string { return fmt.Sprintf("%d operations or checks failed", e.failed) }

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload run as -records stores it and -agree reads it.
type record struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Trace     bool                 `json:"trace"`
	Env       envStamp             `json:"env"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// traceFile is one workload's spans as the spans file holds them.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Client   []span `json:"client"`
	Replay   []span `json:"replay"`
}

func measure(cfg config, selected []workload, spansPath, recordsPath string, stdout io.Writer) error {
	if _, err := os.Stat(filepath.Join(cfg.root, "cmd", "ftpm-serve")); err != nil {
		return fmt.Errorf("%s is not an ftpm checkout: %w", cfg.root, err)
	}
	if err := os.MkdirAll(cfg.build, 0o755); err != nil {
		return err
	}
	if err := buildServer(cfg.root, filepath.Join(cfg.build, "ftpm-serve")); err != nil {
		return err
	}
	env := stampEnv(cfg.root, cfg.build, cfg.gomaxprocs)
	fmt.Fprintf(stdout, "# env %s\n", env)

	line := resultLine{Correct: true, Metrics: make(map[string]resultMetric)}
	var traces []traceFile
	for _, wl := range selected {
		name := wl.spec().name
		o, err := runWorkload(cfg, wl)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for i, e := range o.errs {
			if i == 5 {
				fmt.Fprintf(cfg.log, "%s: … %d more failures\n", name, len(o.errs)-i)
				break
			}
			fmt.Fprintf(cfg.log, "%s: FAIL %v\n", name, e)
		}
		for _, m := range o.metrics {
			fmt.Fprintf(stdout, "%s %s %s %s %d\n", name, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, m.N)
		}
		line.Correct = line.Correct && o.correct()
		line.Attempted += o.attempted
		line.Failed += o.failed
		// A failed run may lack metrics (a traced one skips its replay); it
		// reports what it measured and is marked incorrect.
		if err := exportMetrics(line.Metrics, o, cfg.trace, len(selected) > 1); err != nil && o.correct() {
			return fmt.Errorf("%s: %w", name, err)
		}
		if recordsPath != "" {
			if err := appendRecord(recordsPath, record{Workload: name, Seed: cfg.seed, Trace: cfg.trace, Env: env,
				Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: byName(o.metrics)}); err != nil {
				return err
			}
		}
		if cfg.trace {
			traces = append(traces, traceFile{Workload: name, Seed: cfg.seed, Client: o.client, Replay: o.replay})
		}
	}
	if cfg.trace {
		if err := writeJSON(spansPath, traces); err != nil {
			return err
		}
		fmt.Fprintf(cfg.log, "spans written to %s\n", spansPath)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !line.Correct {
		return errIncorrect{line.Failed}
	}
	return nil
}

// exportMetrics adds the BENCHMARK.json metrics of one workload to the
// result line: the end-to-end ones, or the per-layer ones of a traced run.
// Several workloads in one invocation prefix each name with its workload.
func exportMetrics(into map[string]resultMetric, o *outcome, traced, prefix bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	got := byName(o.metrics)
	var missing []string
	for _, d := range defs {
		if !d.Export {
			continue
		}
		m, ok := got[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		key := d.Name
		if prefix {
			key = o.workload + "." + d.Name
		}
		into[key] = resultMetric{Value: m.Value, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return nil
}

// byName indexes the measured metrics by name. A NaN, a time of a run in
// which no operation succeeded, is left out: JSON cannot carry it.
func byName(ms []metricOut) map[string]metricOut {
	out := make(map[string]metricOut, len(ms))
	for _, m := range ms {
		if !math.IsNaN(m.Value) {
			out[m.Name] = m
		}
	}
	return out
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
