package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// runAgree compares two sets of runs, each a -records file, per
// (workload, metric): for each set the median and quartiles, then a
// verdict against the metric's bound.
func runAgree(args []string, root string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: -agree a.jsonl b.jsonl")
		return 2
	}
	var sets [2][]record
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 2
		}
		sets[i] = recs
	}
	defs, err := boundDefs(root)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	rows, err := compareSets(sets[0], sets[1], defs)
	if err != nil {
		fmt.Fprintln(stderr, "e2e: refusing to compare:", err)
		return 2
	}
	failed := false
	fmt.Fprintf(stdout, "%-15s %-24s %-22s %-34s %-34s %s\n", "workload", "metric", "bound", "A median [q1 q3] n", "B median [q1 q3] n", "verdict")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-15s %-24s %-22s %-34s %-34s %s\n", r.workload, r.metric, r.boundText(), summary(r.a, r.unit), summary(r.b, r.unit), r.verdict)
		failed = failed || r.verdict == "FAIL"
	}
	if failed {
		return 1
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s holds no records", path)
	}
	return recs, nil
}

// boundDefs returns the bound of every end-to-end metric that has one:
// BENCHMARK.json's where it lists the metric, the harness's own table
// otherwise. A metric without a direction, such as the host's reference
// time, is compared without a verdict.
func boundDefs(root string) (map[string]metricDef, error) {
	defs := make(map[string]metricDef)
	for _, d := range endToEnd {
		if d.Better != "" {
			defs[d.Name] = d
		}
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if os.IsNotExist(err) {
		return defs, nil
	}
	if err != nil {
		return nil, err
	}
	var bm struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range bm.EndToEnd {
		defs[m.Name] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
	}
	return defs, nil
}

// agreeRow is one (workload, metric) comparison.
type agreeRow struct {
	workload, metric, unit string
	def                    metricDef
	bounded                bool
	a, b                   []float64
	verdict                string
}

func (r agreeRow) boundText() string {
	if !r.bounded {
		return "-"
	}
	if r.def.Bound == 0 {
		return "any worsening"
	}
	return fmt.Sprintf("%g%% (%s better)", 100*r.def.Bound, r.def.Better)
}

func summary(xs []float64, unit string) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %s n=%d", q2, q1, q3, unit, len(xs))
}

// compareSets groups both sets by (workload, metric) and judges each pair
// present in both. Every record of both sets must carry the same machine
// stamp; the commits may differ, since comparing commits is the point.
func compareSets(a, b []record, defs map[string]metricDef) ([]agreeRow, error) {
	ref := a[0].Env.machine()
	for _, set := range [][]record{a, b} {
		for _, r := range set {
			if m := r.Env.machine(); m != ref {
				return nil, fmt.Errorf("environment stamps differ: %v versus %v", ref, m)
			}
		}
	}
	group := func(set []record) (map[string]map[string][]float64, map[string]string) {
		vals := make(map[string]map[string][]float64)
		units := make(map[string]string)
		for _, r := range set {
			if !r.Correct {
				continue
			}
			if vals[r.Workload] == nil {
				vals[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
				units[name] = m.Unit
			}
		}
		return vals, units
	}
	av, units := group(a)
	bv, _ := group(b)
	var rows []agreeRow
	for _, w := range sortedKeys(av) {
		for _, name := range sortedKeys(av[w]) {
			bs, ok := bv[w][name]
			if !ok {
				continue
			}
			d, bounded := defs[name]
			row := agreeRow{workload: w, metric: name, unit: units[name], def: d, bounded: bounded, a: av[w][name], b: bs}
			row.verdict = verdict(row.a, row.b, d, bounded)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// verdict judges set b against set a. FAIL: b's median is worse than a's
// by more than the bound. unresolved: either set's spread (interquartile
// range over median) is wider than the bound, so the difference cannot be
// told from noise, unless every run of b reads better than every run of a.
// PASS otherwise. Unbounded metrics get "-".
func verdict(a, b []float64, d metricDef, bounded bool) string {
	if !bounded {
		return "-"
	}
	ma, mb := median(a), median(b)
	worse := mb - ma
	if d.Better == "higher" {
		worse = ma - mb
	}
	if d.Bound == 0 {
		if worse > 0 {
			return "FAIL"
		}
		return "PASS"
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		if allBetter(a, b, d.Better) {
			return "PASS"
		}
		return "unresolved"
	}
	if worse > 0 && (ma == 0 || worse/math.Abs(ma) > d.Bound) {
		return "FAIL"
	}
	return "PASS"
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
