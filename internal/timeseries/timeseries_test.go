package timeseries

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSeriesValidation(t *testing.T) {
	if _, err := NewSeries("x", 0, 0, nil); err == nil {
		t.Error("zero step must be rejected")
	}
	if _, err := NewSeries("", 0, 1, nil); err == nil {
		t.Error("empty name must be rejected")
	}
	s, err := NewSeries("power", 100, 10, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.TimeAt(0) != 100 || s.TimeAt(2) != 120 || s.End() != 130 {
		t.Errorf("sampling math wrong: %+v", s)
	}
}

func TestOnOffSymbolizer(t *testing.T) {
	m := NewOnOff(0.5)
	if m.Symbolize(0.49) != 0 || m.Symbolize(0.5) != 1 || m.Symbolize(10) != 1 {
		t.Error("threshold boundary wrong")
	}
	if got := m.Alphabet(); got[0] != "Off" || got[1] != "On" {
		t.Errorf("alphabet = %v", got)
	}
	// The paper's §III-A example: X = 1.61, 1.21, 0.41, 0.0 with
	// threshold 0.5 becomes On, On, Off, Off.
	s, _ := NewSeries("X", 0, 1, []float64{1.61, 1.21, 0.41, 0.0})
	sym := s.Symbolize(m)
	want := []string{"On", "On", "Off", "Off"}
	for i, w := range want {
		if sym.SymbolAt(i) != w {
			t.Errorf("sample %d = %s, want %s", i, sym.SymbolAt(i), w)
		}
	}
}

func TestQuantileSymbolizer(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i) // 0..99 uniform
	}
	q, err := NewQuantileSymbolizer(values, []float64{10, 25, 50, 75}, []string{"VeryCold", "Cold", "Mild", "Hot", "VeryHot"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    float64
		want string
	}{
		{-5, "VeryCold"}, {5, "VeryCold"}, {15, "Cold"}, {30, "Mild"}, {60, "Hot"}, {90, "VeryHot"}, {1000, "VeryHot"},
	}
	for _, c := range cases {
		if got := q.Alphabet()[q.Symbolize(c.v)]; got != c.want {
			t.Errorf("Symbolize(%v) = %s, want %s", c.v, got, c.want)
		}
	}
}

func TestQuantileSymbolizerValidation(t *testing.T) {
	vals := []float64{1, 2, 3}
	if _, err := NewQuantileSymbolizer(vals, []float64{50}, []string{"one"}); err == nil {
		t.Error("single label must be rejected")
	}
	if _, err := NewQuantileSymbolizer(vals, []float64{50, 60}, []string{"a", "b"}); err == nil {
		t.Error("wrong percentile count must be rejected")
	}
	if _, err := NewQuantileSymbolizer(vals, []float64{0}, []string{"a", "b"}); err == nil {
		t.Error("percentile 0 must be rejected")
	}
	if _, err := NewQuantileSymbolizer(vals, []float64{60, 50, 70}, []string{"a", "b", "c", "d"}); err == nil {
		t.Error("non-ascending percentiles must be rejected")
	}
	if _, err := NewQuantileSymbolizer(nil, []float64{50}, []string{"a", "b"}); err == nil {
		t.Error("empty data must be rejected")
	}
}

func TestParseSymbolsAndRuns(t *testing.T) {
	s, err := ParseSymbols("K", 0, 10, []string{"Off", "On"}, "On On Off Off Off On")
	if err != nil {
		t.Fatal(err)
	}
	runs := s.Runs()
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(runs))
	}
	// First run: On over samples 0-1 => [0, 20).
	if iv := s.Interval(runs[0]); iv.Start != 0 || iv.End != 20 {
		t.Errorf("run 0 interval = %v", iv)
	}
	// Second run: Off over samples 2-4 => [20, 50).
	if iv := s.Interval(runs[1]); iv.Start != 20 || iv.End != 50 {
		t.Errorf("run 1 interval = %v", iv)
	}
	// Last run ends at End() = 60.
	if iv := s.Interval(runs[2]); iv.Start != 50 || iv.End != 60 {
		t.Errorf("run 2 interval = %v", iv)
	}
	if _, err := ParseSymbols("K", 0, 10, []string{"Off", "On"}, "On Maybe"); err == nil {
		t.Error("unknown symbol must be rejected")
	}
}

func TestRunsEmptyAndCounts(t *testing.T) {
	s := &SymbolicSeries{Name: "e", Step: 1, Alphabet: []string{"a"}}
	if s.Runs() != nil {
		t.Error("empty series has no runs")
	}
	s2, _ := ParseSymbols("x", 0, 1, []string{"a", "b"}, "a b b a")
	c := s2.Counts()
	if c[0] != 2 || c[1] != 2 {
		t.Errorf("counts = %v", c)
	}
}

// Property: runs partition the sample range, alternate symbols, and their
// intervals tile [Start, End) exactly (touching intervals).
func TestRunsPartitionProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := &SymbolicSeries{Name: "p", Start: 50, Step: 7, Alphabet: []string{"a", "b", "c"}}
		for _, r := range raw {
			s.Symbols = append(s.Symbols, int(r%3))
		}
		runs := s.Runs()
		next := 0
		var prevSym = -1
		var prevEnd = s.Start
		for _, r := range runs {
			if r.First != next {
				return false
			}
			if r.Symbol == prevSym {
				return false // runs must be maximal
			}
			for i := r.First; i <= r.Last; i++ {
				if s.Symbols[i] != r.Symbol {
					return false
				}
			}
			iv := s.Interval(r)
			if iv.Start != prevEnd {
				return false // touching intervals
			}
			prevEnd = iv.End
			prevSym = r.Symbol
			next = r.Last + 1
		}
		return next == s.Len() && prevEnd == s.End()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func buildDB(t *testing.T) *SymbolicDB {
	t.Helper()
	a, _ := ParseSymbols("A", 0, 10, []string{"Off", "On"}, "On Off On Off")
	b, _ := ParseSymbols("B", 0, 10, []string{"Off", "On"}, "Off On Off On")
	db, err := NewSymbolicDB(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSymbolicDBAlignment(t *testing.T) {
	db := buildDB(t)
	if db.Len() != 4 || db.Start() != 0 || db.Step() != 10 || db.End() != 40 {
		t.Errorf("db geometry wrong")
	}
	if db.Find("A") == nil || db.Find("nope") != nil {
		t.Error("Find failed")
	}

	short, _ := ParseSymbols("S", 0, 10, []string{"Off", "On"}, "On")
	if _, err := NewSymbolicDB(db.Series[0], short); err == nil {
		t.Error("misaligned series must be rejected")
	}
	dup, _ := ParseSymbols("A", 0, 10, []string{"Off", "On"}, "On Off On Off")
	if _, err := NewSymbolicDB(db.Series[0], dup); err == nil {
		t.Error("duplicate names must be rejected")
	}
	if _, err := NewSymbolicDB(); err == nil {
		t.Error("empty database must be rejected")
	}
}

func TestSliceSamples(t *testing.T) {
	db := buildDB(t)
	s, err := db.SliceSamples(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Start() != 10 || s.End() != 30 {
		t.Errorf("slice geometry wrong: len=%d start=%d", s.Len(), s.Start())
	}
	if s.Series[0].SymbolAt(0) != "Off" {
		t.Errorf("slice content wrong")
	}
	if _, err := db.SliceSamples(3, 2); err == nil {
		t.Error("inverted range must error")
	}
	if _, err := db.SliceSamples(0, 5); err == nil {
		t.Error("out-of-range must error")
	}
}

func TestSymbolizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	s, _ := NewSeries("load", 1000, 60, vals)
	sym := s.Symbolize(NewOnOff(0.5))
	if sym.Len() != s.Len() || sym.Start != s.Start || sym.Step != s.Step {
		t.Fatal("geometry must carry over")
	}
	for i, v := range vals {
		want := "Off"
		if v >= 0.5 {
			want = "On"
		}
		if sym.SymbolAt(i) != want {
			t.Fatalf("sample %d: got %s for %v", i, sym.SymbolAt(i), v)
		}
	}
	// Rendering symbols back should contain only alphabet words.
	var names []string
	for i := 0; i < sym.Len(); i++ {
		names = append(names, sym.SymbolAt(i))
	}
	re, err := ParseSymbols("load2", sym.Start, sym.Step, sym.Alphabet, strings.Join(names, " "))
	if err != nil {
		t.Fatal(err)
	}
	for i := range re.Symbols {
		if re.Symbols[i] != sym.Symbols[i] {
			t.Fatal("parse/render round trip failed")
		}
	}
}

func TestSymbolicDBRejectsWrappingEnd(t *testing.T) {
	const maxTime = 1<<63 - 1
	last, _ := ParseSymbols("A", maxTime-4, 2, []string{"Off", "On"}, "On Off")
	if _, err := NewSymbolicDB(last); err != nil {
		t.Errorf("grid ending exactly at the largest timestamp rejected: %v", err)
	}
	over, _ := ParseSymbols("A", maxTime-4, 2, []string{"Off", "On"}, "On Off On")
	if _, err := NewSymbolicDB(over); err == nil {
		t.Error("grid whose end wraps past the largest timestamp must be rejected")
	}
	huge, _ := ParseSymbols("A", -1<<63, 1<<62, []string{"Off", "On"}, "On Off")
	if _, err := NewSymbolicDB(huge); err != nil {
		t.Errorf("grid from the smallest timestamp ending at 0 rejected: %v", err)
	}
}
