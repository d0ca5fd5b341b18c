package mi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ftpm/internal/paperex"
	"ftpm/internal/server/store"
	"ftpm/internal/timeseries"
)

// serialTable is the serial definition of a pairwise NMI table over the
// given series, evaluated per sample: the upper triangle and every cell
// against a constant series by NMI, the rest of the lower triangle
// derived from the transpose, constant series' rows zero.
func serialTable(t testing.TB, ss []*timeseries.SymbolicSeries) [][]float64 {
	t.Helper()
	want := make([][]float64, len(ss))
	for i, x := range ss {
		want[i] = make([]float64, len(ss))
		hx := Entropy(x)
		for j, y := range ss {
			switch hy := Entropy(y); {
			case hx == 0:
			case i == j:
				want[i][j] = 1
			case j > i || hy == 0:
				v, err := NMI(x, y)
				if err != nil {
					t.Fatal(err)
				}
				want[i][j] = v
			default:
				want[i][j] = want[j][i] * hy / hx
			}
		}
	}
	return want
}

// indicatorSeries expands every series into one binary series per symbol,
// in EventPairwise key order: 1 where the series holds the symbol, 0
// elsewhere.
func indicatorSeries(ss []*timeseries.SymbolicSeries) []*timeseries.SymbolicSeries {
	var out []*timeseries.SymbolicSeries
	for _, s := range ss {
		for sym, name := range s.Alphabet {
			ind := &timeseries.SymbolicSeries{
				Name: s.Name + "=" + name, Start: s.Start, Step: s.Step,
				Alphabet: []string{"0", "1"}, Symbols: make([]int, len(s.Symbols)),
			}
			for k, v := range s.Symbols {
				if v == sym {
					ind.Symbols[k] = 1
				}
			}
			out = append(out, ind)
		}
	}
	return out
}

// sameBits fails unless got and want agree bit for bit in every cell.
func sameBits(t testing.TB, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: Values[%d][%d] = %v, want %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// checkBothTables holds the series- and event-level tables of ss, built
// from a SymbolicDB and from a sealed segment at workers 1 and 3, to the
// per-sample serial definition.
func checkBothTables(t testing.TB, ss []*timeseries.SymbolicSeries) {
	t.Helper()
	db, err := timeseries.NewSymbolicDB(ss...)
	if err != nil {
		t.Fatal(err)
	}
	img, err := store.EncodeSegment(db, "fp")
	if err != nil {
		t.Fatal(err)
	}
	seg, err := store.ParseSegment(img)
	if err != nil {
		t.Fatal(err)
	}
	wantSeries := serialTable(t, ss)
	wantEvents := serialTable(t, indicatorSeries(ss))
	for _, src := range []struct {
		name string
		timeseries.SymbolSource
	}{{"db", db}, {"segment", seg}} {
		for _, workers := range []int{1, 3} {
			pw, err := ComputePairwiseWorkers(src, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("%s/series/workers=%d", src.name, workers), pw.Values, wantSeries)
			epw, err := ComputeEventPairwiseWorkers(src, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("%s/events/workers=%d", src.name, workers), epw.Values, wantEvents)
		}
	}
}

// TestPairwiseBitIdenticalAtWordEdges pins both tables to per-sample NMI
// at series lengths on and around the 64-bit word edges of the bitmaps,
// over alphabets of one to six symbols, some of which never occur.
func TestPairwiseBitIdenticalAtWordEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, samples := range []int{1, 63, 64, 65, 129, 300} {
		var ss []*timeseries.SymbolicSeries
		for k := 0; k < 8; k++ {
			alpha := []string{"a", "b", "c", "d", "e", "f"}[:1+k%6]
			used := 1 + rng.Intn(len(alpha)) // symbols at or past used never occur
			s := &timeseries.SymbolicSeries{Name: fmt.Sprintf("s%d", k), Step: 1, Alphabet: alpha, Symbols: make([]int, samples)}
			cur := rng.Intn(used)
			for i := range s.Symbols {
				if rng.Float64() < 0.15 {
					cur = rng.Intn(used)
				}
				s.Symbols[i] = cur
			}
			ss = append(ss, s)
		}
		t.Run(fmt.Sprintf("samples=%d", samples), func(t *testing.T) { checkBothTables(t, ss) })
	}
}

// TestPairwiseEmptySeries: series of no samples, and so no symbols, give
// all-zero tables instead of failing.
func TestPairwiseEmptySeries(t *testing.T) {
	db := mustDB(t, &timeseries.SymbolicSeries{Name: "a", Step: 1}, &timeseries.SymbolicSeries{Name: "b", Step: 1})
	pw, err := ComputePairwise(db)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "series", pw.Values, [][]float64{{0, 0}, {0, 0}})
	epw, err := ComputeEventPairwise(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(epw.Keys) != 0 || len(epw.Values) != 0 {
		t.Errorf("event table of symbol-less series: %d keys, %d rows", len(epw.Keys), len(epw.Values))
	}
}

// FuzzPairwiseVsPerSample decodes its input into a small symbolic
// database and holds both pairwise tables, from a SymbolicDB and from a
// sealed segment at workers 1 and 3, bit for bit to per-sample NMI. The
// input reads as: two bytes of length (1..320 samples), one byte of
// series count (1..6), then per series one byte of alphabet size (1..6)
// followed by (symbol, run length) byte pairs until the series is full.
// An exhausted input reads as zeros.
func FuzzPairwiseVsPerSample(f *testing.F) {
	f.Add([]byte{0x3f, 0x00, 2, 2, 0, 10, 1, 30, 0, 40, 2, 1, 63, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		samples := 1 + (next()|next()<<8)%320
		ss := make([]*timeseries.SymbolicSeries, 1+next()%6)
		for k := range ss {
			alpha := []string{"a", "b", "c", "d", "e", "f"}[:1+next()%6]
			s := &timeseries.SymbolicSeries{Name: fmt.Sprintf("s%d", k), Step: 1, Alphabet: alpha, Symbols: make([]int, 0, samples)}
			for len(s.Symbols) < samples {
				sym, n := next()%len(alpha), 1+next()%70
				for ; n > 0 && len(s.Symbols) < samples; n-- {
					s.Symbols = append(s.Symbols, sym)
				}
			}
			ss[k] = s
		}
		checkBothTables(t, ss)
	})
}

// TestDensityRoundingToNoPairGivesEmptyGraph: a density whose pair count
// rounds to zero yields an empty graph even when a pair's min-NMI is 1,
// on both tables — every binary series has two complementary event
// indicators, and balanced twin series are perfectly correlated — while
// an explicit µ above 1 is still rejected.
func TestDensityRoundingToNoPairGivesEmptyGraph(t *testing.T) {
	db := paperex.SymbolicDB()
	epw, err := ComputeEventPairwise(db)
	if err != nil {
		t.Fatal(err)
	}
	// 12 events, 66 pairs: round(0.006·66) = 0.
	mu, err := ResolveMu(epw, 0, 0.006)
	if err != nil {
		t.Fatal(err)
	}
	eg, err := epw.Graph(mu)
	if err != nil {
		t.Fatal(err)
	}
	if eg.NumEdges() != 0 {
		t.Errorf("event graph at density 0.006: µ=%v, %d edges, want none", mu, eg.NumEdges())
	}

	// X and its twin Y are balanced, so both NMIs of the pair are exactly 1.
	mk := func(name string, syms ...int) *timeseries.SymbolicSeries {
		return &timeseries.SymbolicSeries{Name: name, Step: 1, Alphabet: []string{"a", "b"}, Symbols: syms}
	}
	pw, err := ComputePairwise(mustDB(t, mk("X", 0, 0, 1, 1), mk("Y", 0, 0, 1, 1), mk("Z", 0, 1, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if pw.MinNMI(0, 1) != 1 {
		t.Fatalf("MinNMI(X, Y) = %v, want 1", pw.MinNMI(0, 1))
	}
	// 3 pairs: round(0.1·3) = 0.
	mu, err = ResolveMu(pw, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pw.Graph(mu)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("series graph at density 0.1: µ=%v, %d edges, want none", mu, g.NumEdges())
	}
	// round(0.4·3) = 1 keeps exactly the X–Y edge, at µ = 1.
	mu, err = ResolveMu(pw, 0, 0.4)
	if err != nil || mu != 1 {
		t.Fatalf("density 0.4: µ = %v, %v; want 1", mu, err)
	}
	if g, _ = pw.Graph(mu); g.NumEdges() != 1 || !g.PairAllowed("X", "Y") {
		t.Errorf("density 0.4: edges %v, want only X–Y", g.Edges())
	}

	for _, tbl := range []DensityThresholder{pw, epw} {
		if _, err := ResolveMu(tbl, 1.5, 0); err == nil {
			t.Errorf("%T: explicit µ = 1.5 accepted", tbl)
		}
		if mu, err := ResolveMu(tbl, 1, 0); err != nil || mu != 1 {
			t.Errorf("%T: explicit µ = 1 resolved to %v, %v", tbl, mu, err)
		}
	}
}
