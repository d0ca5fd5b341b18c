// Package timeseries implements the data-transformation front of the
// FTPMfTS process (paper §IV-B): raw numeric time series, the mapping
// functions that encode them into symbolic representations (Def 3.2), and
// the symbolic database DSYB (Def 3.3).
//
// Two mapping-function families cover the paper's datasets:
//
//   - Threshold (energy datasets): two symbols, e.g. On when v >= 0.05 and
//     Off otherwise (§VI-A2).
//   - Quantile (smart-city datasets): multi-state variables split at
//     percentile cut points of the observed distribution, e.g. temperature
//     into {VeryCold, Cold, Mild, Hot, VeryHot}.
package timeseries

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"ftpm/internal/temporal"
)

// Series is a regularly sampled univariate time series (Def 3.1). Sample i
// was observed at Start + i*Step.
type Series struct {
	Name   string
	Start  temporal.Time
	Step   temporal.Duration
	Values []float64
}

// NewSeries constructs a Series and validates the sampling step.
func NewSeries(name string, start temporal.Time, step temporal.Duration, values []float64) (*Series, error) {
	if step <= 0 {
		return nil, fmt.Errorf("timeseries: step must be positive, got %d", step)
	}
	if name == "" {
		return nil, fmt.Errorf("timeseries: series name must be non-empty")
	}
	return &Series{Name: name, Start: start, Step: step, Values: values}, nil
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// TimeAt returns the observation time of sample i.
func (s *Series) TimeAt(i int) temporal.Time { return s.Start + temporal.Time(i)*s.Step }

// End returns the time just after the last sample's coverage, i.e.
// Start + Len*Step.
func (s *Series) End() temporal.Time { return s.Start + temporal.Time(s.Len())*s.Step }

// Symbolizer is the mapping function f: X -> Sigma_X of Def 3.2.
type Symbolizer interface {
	// Symbolize maps one raw value to a symbol index in Alphabet().
	Symbolize(v float64) int
	// Alphabet returns the finite set of permitted symbols, in index order.
	Alphabet() []string
}

// ThresholdSymbolizer is the two-state mapper used for the energy datasets:
// symbol index 1 ("On") when v >= Threshold, index 0 ("Off") otherwise.
type ThresholdSymbolizer struct {
	Threshold float64
	Low, High string // symbol names for below / at-or-above threshold
}

// NewOnOff returns the paper's energy mapper: On when v >= threshold.
func NewOnOff(threshold float64) ThresholdSymbolizer {
	return ThresholdSymbolizer{Threshold: threshold, Low: "Off", High: "On"}
}

// Symbolize implements Symbolizer.
func (t ThresholdSymbolizer) Symbolize(v float64) int {
	if v >= t.Threshold {
		return 1
	}
	return 0
}

// Alphabet implements Symbolizer.
func (t ThresholdSymbolizer) Alphabet() []string { return []string{t.Low, t.High} }

// QuantileSymbolizer maps values to states split at precomputed cut points:
// state i covers values in [cuts[i-1], cuts[i]). It realizes the paper's
// percentile-based mapping for multi-state variables (§VI-A2).
type QuantileSymbolizer struct {
	cuts   []float64 // ascending; len(cuts) == len(labels)-1
	labels []string
}

// NewQuantileSymbolizer builds the mapper from observed data: percentiles
// (in (0,100), ascending, one fewer than labels) define the cut points.
// For example 5 labels with percentiles {10,25,50,75} split the value
// distribution into 5 states.
func NewQuantileSymbolizer(values []float64, percentiles []float64, labels []string) (*QuantileSymbolizer, error) {
	if len(labels) < 2 {
		return nil, fmt.Errorf("timeseries: need at least 2 labels, got %d", len(labels))
	}
	if len(percentiles) != len(labels)-1 {
		return nil, fmt.Errorf("timeseries: need %d percentiles for %d labels, got %d",
			len(labels)-1, len(labels), len(percentiles))
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("timeseries: cannot compute percentiles of empty data")
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	cuts := make([]float64, len(percentiles))
	prev := -1.0
	for i, p := range percentiles {
		if p <= 0 || p >= 100 {
			return nil, fmt.Errorf("timeseries: percentile %v out of (0,100)", p)
		}
		if p <= prev {
			return nil, fmt.Errorf("timeseries: percentiles must be strictly ascending")
		}
		prev = p
		// Nearest-rank percentile.
		rank := int(p / 100 * float64(len(sorted)))
		if rank >= len(sorted) {
			rank = len(sorted) - 1
		}
		cuts[i] = sorted[rank]
	}
	return &QuantileSymbolizer{cuts: cuts, labels: append([]string(nil), labels...)}, nil
}

// Symbolize implements Symbolizer.
func (q *QuantileSymbolizer) Symbolize(v float64) int {
	// First cut with v < cuts[i] determines the state.
	for i, c := range q.cuts {
		if v < c {
			return i
		}
	}
	return len(q.labels) - 1
}

// Alphabet implements Symbolizer.
func (q *QuantileSymbolizer) Alphabet() []string { return q.labels }

// SymbolicSeries is the symbolic representation X_S of a time series
// (Def 3.2): a sequence of symbol indices over a fixed alphabet, sampled
// like the originating series.
type SymbolicSeries struct {
	Name     string
	Start    temporal.Time
	Step     temporal.Duration
	Alphabet []string
	Symbols  []int
}

// Symbolize encodes the series with the given mapping function.
func (s *Series) Symbolize(f Symbolizer) *SymbolicSeries {
	out := &SymbolicSeries{
		Name:     s.Name,
		Start:    s.Start,
		Step:     s.Step,
		Alphabet: append([]string(nil), f.Alphabet()...),
		Symbols:  make([]int, len(s.Values)),
	}
	for i, v := range s.Values {
		out.Symbols[i] = f.Symbolize(v)
	}
	return out
}

// Len returns the number of symbolic samples.
func (s *SymbolicSeries) Len() int { return len(s.Symbols) }

// TimeAt returns the observation time of sample i.
func (s *SymbolicSeries) TimeAt(i int) temporal.Time { return s.Start + temporal.Time(i)*s.Step }

// End returns Start + Len*Step.
func (s *SymbolicSeries) End() temporal.Time { return s.Start + temporal.Time(s.Len())*s.Step }

// SymbolAt returns the symbol name of sample i.
func (s *SymbolicSeries) SymbolAt(i int) string { return s.Alphabet[s.Symbols[i]] }

// Counts returns the occurrence count of each alphabet symbol; the
// marginal distribution behind the entropy of Def 5.1.
func (s *SymbolicSeries) Counts() []int {
	c := make([]int, len(s.Alphabet))
	for _, sym := range s.Symbols {
		c[sym]++
	}
	return c
}

// Run is a maximal run of one symbol: samples [First, Last] all carry
// Symbol and the neighbours (if any) differ.
type Run struct {
	Symbol      int
	First, Last int // sample indexes, inclusive
}

// Runs returns the maximal runs of identical consecutive symbols, the raw
// material of temporal events (Def 3.4: "combining identical consecutive
// symbols into one time interval").
func (s *SymbolicSeries) Runs() []Run { return s.AppendRuns(nil) }

// AppendRuns appends the maximal symbol runs of the series to dst and
// returns the extended slice — the allocation-free form of Runs for
// callers that sweep many series with one scratch buffer.
func (s *SymbolicSeries) AppendRuns(dst []Run) []Run {
	if len(s.Symbols) == 0 {
		return dst
	}
	cur := Run{Symbol: s.Symbols[0], First: 0, Last: 0}
	for i := 1; i < len(s.Symbols); i++ {
		if s.Symbols[i] == cur.Symbol {
			cur.Last = i
			continue
		}
		dst = append(dst, cur)
		cur = Run{Symbol: s.Symbols[i], First: i, Last: i}
	}
	return append(dst, cur)
}

// Interval returns the continuous-time extent of run r within s: it begins
// at the run's first sample and ends where the next run begins (touching
// intervals, as in paper Table III).
func (s *SymbolicSeries) Interval(r Run) temporal.Interval {
	return temporal.NewInterval(s.TimeAt(r.First), s.TimeAt(r.Last)+s.Step)
}

// ParseSymbols builds a SymbolicSeries from whitespace-separated symbol
// names, e.g. "On On Off" — convenient for fixtures like paper Table I.
// The alphabet lists the permitted names.
func ParseSymbols(name string, start temporal.Time, step temporal.Duration, alphabet []string, row string) (*SymbolicSeries, error) {
	index := make(map[string]int, len(alphabet))
	for i, a := range alphabet {
		index[a] = i
	}
	fields := strings.Fields(row)
	syms := make([]int, len(fields))
	for i, f := range fields {
		id, ok := index[f]
		if !ok {
			return nil, fmt.Errorf("timeseries: symbol %q not in alphabet %v", f, alphabet)
		}
		syms[i] = id
	}
	return &SymbolicSeries{Name: name, Start: start, Step: step, Alphabet: append([]string(nil), alphabet...), Symbols: syms}, nil
}

// SymbolicDB is the symbolic database DSYB (Def 3.3): a set of aligned
// symbolic series.
type SymbolicDB struct {
	Series []*SymbolicSeries
}

// NewSymbolicDB validates that all series are mutually aligned (same start,
// step and length) — required by the splitting strategy and by the MI
// computation, which pairs samples positionally.
func NewSymbolicDB(series ...*SymbolicSeries) (*SymbolicDB, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("timeseries: symbolic database needs at least one series")
	}
	first := series[0]
	names := make(map[string]bool, len(series))
	for _, s := range series {
		if s.Start != first.Start || s.Step != first.Step || s.Len() != first.Len() {
			return nil, fmt.Errorf("timeseries: series %q not aligned with %q (start/step/len %d/%d/%d vs %d/%d/%d)",
				s.Name, first.Name, s.Start, s.Step, s.Len(), first.Start, first.Step, first.Len())
		}
		if names[s.Name] {
			return nil, fmt.Errorf("timeseries: duplicate series name %q", s.Name)
		}
		names[s.Name] = true
	}
	if err := checkGridEnd(first.Start, first.Step, first.Len()); err != nil {
		return nil, err
	}
	return &SymbolicDB{Series: series}, nil
}

// checkGridEnd rejects a grid whose end Start + n·Step lies past the
// largest timestamp: the sum would wrap, and the window split and run
// intervals downstream would see time run backwards. Every ingest path —
// both CSV layouts and appends — builds its database through
// NewSymbolicDB, so this is where such grids stop.
func checkGridEnd(start temporal.Time, step temporal.Duration, n int) error {
	if step <= 0 || n <= 0 {
		return nil
	}
	hi, span := bits.Mul64(uint64(n), uint64(step))
	if room := uint64(math.MaxInt64 - start); hi != 0 || span > room {
		return fmt.Errorf("timeseries: %d samples from time %d at step %d end past the largest timestamp %d",
			n, start, step, int64(math.MaxInt64))
	}
	return nil
}

// Find returns the series with the given name, or nil.
func (db *SymbolicDB) Find(name string) *SymbolicSeries {
	for _, s := range db.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Len returns the number of samples per series.
func (db *SymbolicDB) Len() int { return db.Series[0].Len() }

// Start returns the common start time.
func (db *SymbolicDB) Start() temporal.Time { return db.Series[0].Start }

// Step returns the common sampling step.
func (db *SymbolicDB) Step() temporal.Duration { return db.Series[0].Step }

// End returns the common end time (start + len*step).
func (db *SymbolicDB) End() temporal.Time { return db.Series[0].End() }

// Restrict returns a new database containing only the named series, in the
// given order. Unknown names are reported as an error. A-HTPGM uses this to
// drop uncorrelated series before mining (Alg 2, lines 7-8).
func (db *SymbolicDB) Restrict(names []string) (*SymbolicDB, error) {
	out := make([]*SymbolicSeries, 0, len(names))
	for _, n := range names {
		s := db.Find(n)
		if s == nil {
			return nil, fmt.Errorf("timeseries: unknown series %q", n)
		}
		out = append(out, s)
	}
	return NewSymbolicDB(out...)
}

// SymbolSource is a read-only columnar view of a symbolic database: the
// minimal surface the DSEQ conversion and the mutual-information analysis
// actually consume. Both the in-memory SymbolicDB and the server's
// mmap'd segment files implement it, and mining through either view is
// byte-identical — the conversion only ever looks at maximal symbol runs
// and the shared sampling grid, never at individual samples.
//
// Implementations must present mutually aligned series: every series
// covers samples [0, Len()) on the grid Start() + i*Step(), and
// AppendRuns(i, ...) yields the maximal runs of series i in ascending
// sample order, partitioning [0, Len()). Being read-only, they must be
// safe for concurrent use: the analysis reads series in parallel.
type SymbolSource interface {
	// NumSeries returns the number of series in the view.
	NumSeries() int
	// SeriesName returns the name of series i.
	SeriesName(i int) string
	// SeriesAlphabet returns the alphabet of series i, in symbol-id
	// order. Callers must not mutate the returned slice.
	SeriesAlphabet(i int) []string
	// AppendRuns appends the maximal symbol runs of series i to dst and
	// returns the extended slice.
	AppendRuns(i int, dst []Run) []Run
	// Len returns the number of samples per series.
	Len() int
	// Start returns the common start time.
	Start() temporal.Time
	// Step returns the common sampling step.
	Step() temporal.Duration
	// End returns Start() + Len()*Step().
	End() temporal.Time
}

var _ SymbolSource = (*SymbolicDB)(nil)

// NumSeries implements SymbolSource.
func (db *SymbolicDB) NumSeries() int { return len(db.Series) }

// SeriesName implements SymbolSource.
func (db *SymbolicDB) SeriesName(i int) string { return db.Series[i].Name }

// SeriesAlphabet implements SymbolSource.
func (db *SymbolicDB) SeriesAlphabet(i int) []string { return db.Series[i].Alphabet }

// AppendRuns implements SymbolSource.
func (db *SymbolicDB) AppendRuns(i int, dst []Run) []Run { return db.Series[i].AppendRuns(dst) }

// SliceSamples returns a copy of the database restricted to the sample
// range [from, to) — used by the %-of-data scalability sweeps.
func (db *SymbolicDB) SliceSamples(from, to int) (*SymbolicDB, error) {
	if from < 0 || to > db.Len() || from >= to {
		return nil, fmt.Errorf("timeseries: invalid sample range [%d,%d) of %d", from, to, db.Len())
	}
	out := make([]*SymbolicSeries, len(db.Series))
	for i, s := range db.Series {
		out[i] = &SymbolicSeries{
			Name:     s.Name,
			Start:    s.TimeAt(from),
			Step:     s.Step,
			Alphabet: s.Alphabet,
			Symbols:  append([]int(nil), s.Symbols[from:to]...),
		}
	}
	return NewSymbolicDB(out...)
}
