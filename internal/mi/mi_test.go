package mi

import (
	"math"
	"math/rand"
	"testing"

	"ftpm/internal/paperex"
	"ftpm/internal/timeseries"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, want %.4f ± %.4f", name, got, want, tol)
	}
}

// TestPaperWorkedExample reproduces §V-A: I(K;T) = 0.29 and the NMI values
// of Fig 5 for the Table I database.
func TestPaperWorkedExample(t *testing.T) {
	db := paperex.SymbolicDB()
	k, tt := db.Find("K"), db.Find("T")
	i, err := MutualInformation(k, tt)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "I(K;T)", i, 0.29, 0.005)

	nkt, _ := NMI(k, tt)
	ntk, _ := NMI(tt, k)
	// The paper rounds these to 0.43 and 0.42; exact evaluation of Eq 10
	// over the Table I grid gives 0.4221 and 0.4211.
	approx(t, "NMI(K;T)", nkt, 0.4221, 0.001)
	approx(t, "NMI(T;K)", ntk, 0.4211, 0.001)
	if nkt == ntk {
		t.Error("NMI must be asymmetric on this data (paper: I~(K;T) != I~(T;K))")
	}

	m, c := db.Find("M"), db.Find("C")
	nmc, _ := NMI(m, c)
	approx(t, "NMI(M;C)", nmc, 0.68, 0.01) // Fig 5 edge M-C
	nkm, _ := NMI(k, m)
	approx(t, "NMI(K;M)", nkm, 0.49, 0.01) // Fig 5 edge K-M
}

// TestPaperFig5Graph reproduces Fig 5: at 40% density the correlation
// graph is the complete graph over {K, T, M, C}; I and B are uncorrelated
// and drop out.
func TestPaperFig5Graph(t *testing.T) {
	pw, err := ComputePairwise(paperex.SymbolicDB())
	if err != nil {
		t.Fatal(err)
	}
	mu, err := pw.MuForDensity(0.4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pw.Graph(mu)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 6 {
		t.Fatalf("40%% density must give 6 of 15 edges, got %d", g.NumEdges())
	}
	want := []string{"C", "K", "M", "T"}
	got := g.Vertices()
	if len(got) != len(want) {
		t.Fatalf("vertices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertices = %v, want %v", got, want)
		}
	}
	for _, name := range []string{"I", "B"} {
		if g.SeriesAllowed(name) {
			t.Errorf("series %s must be uncorrelated at this density", name)
		}
	}
	if !g.PairAllowed("K", "T") || !g.PairAllowed("M", "C") {
		t.Error("Fig 5 edges missing")
	}
	if g.PairAllowed("K", "B") {
		t.Error("K-B must not be an edge")
	}
	if !g.PairAllowed("K", "K") {
		t.Error("a series is always correlated with itself")
	}
	if g.PairAllowed("K", "unknown") || g.SeriesAllowed("unknown") {
		t.Error("unknown series must be rejected")
	}
	approx(t, "density", g.Density(), 0.4, 1e-9)
}

func TestEntropyBasics(t *testing.T) {
	flat, _ := timeseries.ParseSymbols("flat", 0, 1, []string{"a", "b"}, "a a a a")
	if Entropy(flat) != 0 {
		t.Error("constant series must have zero entropy")
	}
	fair, _ := timeseries.ParseSymbols("fair", 0, 1, []string{"a", "b"}, "a b a b")
	approx(t, "H(fair)", Entropy(fair), math.Ln2, 1e-12)
	empty := &timeseries.SymbolicSeries{Name: "e", Step: 1, Alphabet: []string{"a"}}
	if Entropy(empty) != 0 {
		t.Error("empty series entropy must be 0")
	}
}

func TestMutualInformationIdentities(t *testing.T) {
	db := paperex.SymbolicDB()
	k := db.Find("K")
	// I(X;X) = H(X).
	i, err := MutualInformation(k, k)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "I(K;K)", i, Entropy(k), 1e-12)
	n, _ := NMI(k, k)
	approx(t, "NMI(K;K)", n, 1, 1e-12)

	// I(X;Y) = H(X) - H(X|Y).
	tt := db.Find("T")
	ikt, _ := MutualInformation(k, tt)
	hkGivenT, _ := ConditionalEntropy(k, tt)
	approx(t, "H(K)-H(K|T)", Entropy(k)-hkGivenT, ikt, 1e-12)
}

func TestAlignmentErrors(t *testing.T) {
	a, _ := timeseries.ParseSymbols("a", 0, 1, []string{"x", "y"}, "x y")
	b, _ := timeseries.ParseSymbols("b", 0, 2, []string{"x", "y"}, "x y")
	if _, err := MutualInformation(a, b); err == nil {
		t.Error("misaligned series must error")
	}
	if _, err := ConditionalEntropy(a, b); err == nil {
		t.Error("misaligned series must error")
	}
	empty := &timeseries.SymbolicSeries{Name: "e", Step: 1, Alphabet: []string{"x"}}
	empty2 := &timeseries.SymbolicSeries{Name: "f", Step: 1, Alphabet: []string{"x"}}
	if _, err := MutualInformation(empty, empty2); err == nil {
		t.Error("empty series must error")
	}
}

// TestMIProperties checks the analytic properties on random data:
// symmetry of I, the bound 0 <= I <= min(H(X), H(Y)), and NMI in [0,1].
func TestMIProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 10 + rng.Intn(60)
		gen := func(name string, k int) *timeseries.SymbolicSeries {
			alpha := make([]string, k)
			for i := range alpha {
				alpha[i] = string(rune('a' + i))
			}
			s := &timeseries.SymbolicSeries{Name: name, Step: 1, Alphabet: alpha, Symbols: make([]int, n)}
			for i := range s.Symbols {
				s.Symbols[i] = rng.Intn(k)
			}
			return s
		}
		x := gen("x", 2+rng.Intn(3))
		y := gen("y", 2+rng.Intn(3))
		ixy, err := MutualInformation(x, y)
		if err != nil {
			t.Fatal(err)
		}
		iyx, _ := MutualInformation(y, x)
		approx(t, "I symmetry", ixy, iyx, 1e-9)
		hx, hy := Entropy(x), Entropy(y)
		if ixy < 0 || ixy > math.Min(hx, hy)+1e-9 {
			t.Fatalf("I=%v outside [0, min(H)=%v]", ixy, math.Min(hx, hy))
		}
		nxy, _ := NMI(x, y)
		if nxy < 0 || nxy > 1 {
			t.Fatalf("NMI=%v outside [0,1]", nxy)
		}
	}
}

func TestConstantSeriesNMI(t *testing.T) {
	flat, _ := timeseries.ParseSymbols("flat", 0, 1, []string{"a", "b"}, "a a a a")
	other, _ := timeseries.ParseSymbols("o", 0, 1, []string{"a", "b"}, "a b a b")
	n, err := NMI(flat, other)
	if err != nil || n != 0 {
		t.Errorf("NMI of constant series = %v, %v; want 0, nil", n, err)
	}
	pw, err := ComputePairwise(mustDB(t, flat, other))
	if err != nil {
		t.Fatal(err)
	}
	if pw.Values[0][0] != 0 || pw.Values[0][1] != 0 {
		t.Error("constant series rows must be zero")
	}
	if pw.Values[1][1] != 1 {
		t.Error("diagonal of non-constant series must be 1")
	}
	// The transpose shortcut must not be used against a zero-entropy
	// series: NMI(other; flat) = I/H(other) = 0 since I = 0.
	if pw.Values[1][0] != 0 {
		t.Errorf("NMI(other;flat) = %v, want 0", pw.Values[1][0])
	}
}

func mustDB(t *testing.T, ss ...*timeseries.SymbolicSeries) *timeseries.SymbolicDB {
	t.Helper()
	db, err := timeseries.NewSymbolicDB(ss...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestComputePairwiseTransposeConsistency(t *testing.T) {
	db := paperex.SymbolicDB()
	pw, err := ComputePairwise(db)
	if err != nil {
		t.Fatal(err)
	}
	// Values[i][j]*H(i) must equal Values[j][i]*H(j) (both equal I).
	for i := range pw.Names {
		hi := Entropy(db.Series[i])
		for j := range pw.Names {
			if i == j {
				continue
			}
			hj := Entropy(db.Series[j])
			if math.Abs(pw.Values[i][j]*hi-pw.Values[j][i]*hj) > 1e-9 {
				t.Fatalf("transpose inconsistency at (%d,%d)", i, j)
			}
		}
	}
}

func TestMuForDensityEdgeCases(t *testing.T) {
	pw, _ := ComputePairwise(paperex.SymbolicDB())
	if _, err := pw.MuForDensity(-0.1); err == nil {
		t.Error("negative density must error")
	}
	if _, err := pw.MuForDensity(1.1); err == nil {
		t.Error("density > 1 must error")
	}
	mu0, err := pw.MuForDensity(0)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := pw.Graph(math.Min(mu0, 1))
	if g.NumEdges() != 0 {
		t.Errorf("density 0 must give empty graph, got %d edges", g.NumEdges())
	}
	mu1, _ := pw.MuForDensity(1)
	if mu1 <= 0 {
		t.Error("µ must stay positive even at full density")
	}
	g1, _ := pw.Graph(mu1)
	if g1.NumEdges() != 15 {
		t.Errorf("density 1 must keep all 15 edges, got %d", g1.NumEdges())
	}
	// Single series: no pairs.
	one := mustDB(t, paperex.SymbolicDB().Series[0])
	pw1, _ := ComputePairwise(one)
	if mu, err := pw1.MuForDensity(0.5); err != nil || mu != 1 {
		t.Errorf("no-pair MuForDensity = %v, %v", mu, err)
	}
	if pw1Graph, _ := pw1.Graph(0.5); pw1Graph.Density() != 0 {
		t.Error("single-vertex graph density must be 0")
	}
}

func TestGraphValidation(t *testing.T) {
	pw, _ := ComputePairwise(paperex.SymbolicDB())
	if _, err := pw.Graph(0); err == nil {
		t.Error("µ = 0 must error (Def 5.4 requires µ > 0)")
	}
	if _, err := pw.Graph(1.5); err == nil {
		t.Error("µ > 1 must error")
	}
}

func TestGraphEdgesListing(t *testing.T) {
	pw, _ := ComputePairwise(paperex.SymbolicDB())
	mu, _ := pw.MuForDensity(0.4)
	g, _ := pw.Graph(mu)
	edges := g.Edges()
	if len(edges) != 6 {
		t.Fatalf("edges = %d, want 6", len(edges))
	}
	for i, e := range edges {
		if e[0] >= e[1] {
			t.Errorf("edge %v not name-sorted", e)
		}
		if i > 0 && !(edges[i-1][0] < e[0] || (edges[i-1][0] == e[0] && edges[i-1][1] < e[1])) {
			t.Error("edge list not sorted")
		}
	}
}

func TestConfidenceLowerBound(t *testing.T) {
	// µ = 1 collapses the information term: LB = σ/(2σm−σ).
	lb, err := ConfidenceLowerBound(0.5, 0.5, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "LB(σ=σm=0.5,µ=1)", lb, 1, 1e-12)
	lb, _ = ConfidenceLowerBound(0.4, 0.8, 1, 2)
	approx(t, "LB(σ=0.4,σm=0.8,µ=1)", lb, 0.4/1.2, 1e-12)

	// LB grows with µ (more correlation, higher guaranteed confidence).
	prev := -1.0
	for _, mu := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		v, err := ConfidenceLowerBound(0.3, 0.6, mu, 2)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Errorf("LB must be non-decreasing in µ: %v after %v", v, prev)
		}
		if v < 0 || v > 1 {
			t.Errorf("LB out of range: %v", v)
		}
		prev = v
	}

	// Degenerate σm = 1 with a binary alphabet: base is 0, LB collapses to
	// zero for µ < 1.
	lb, _ = ConfidenceLowerBound(0.5, 1, 0.5, 2)
	if lb != 0 {
		t.Errorf("LB with σm=1, µ<1 = %v, want 0", lb)
	}

	for _, bad := range [][4]float64{{0, 0.5, 0.5, 2}, {0.5, 0.4, 0.5, 2}, {0.5, 1.2, 0.5, 2}, {0.5, 0.5, 0, 2}, {0.5, 0.5, 1.4, 2}, {0.5, 0.5, 0.5, 1}} {
		if _, err := ConfidenceLowerBound(bad[0], bad[1], bad[2], int(bad[3])); err == nil {
			t.Errorf("bad inputs %v accepted", bad)
		}
	}
}

// TestTheoremOneEmpirically: identical series are maximally correlated
// (NMI = 1); a frequent event pair of such series has confidence 1 in
// DSEQ, which trivially satisfies every lower bound. More interestingly,
// the bound must stay below the observed confidence for the paper's K/T
// pair with the supports read off Table I.
func TestTheoremOneEmpirically(t *testing.T) {
	// supp(KOn,TOn) in DSYB = 15/36 ≈ 0.4167; σm = max(17,18)/36 = 0.5;
	// NMI(K;T)≈0.4221, NMI(T;K)≈0.4211 → µ = 0.42 holds both ways.
	// conf(KOn,TOn) in DSEQ = 4/4 = 1 (they co-occur in every sequence).
	lb, err := ConfidenceLowerBound(0.4167, 0.5, 0.42, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lb > 1 {
		t.Fatalf("LB = %v > 1", lb)
	}
	if lb <= 0 {
		t.Fatalf("LB = %v, want positive for correlated pair", lb)
	}
	// Observed DSEQ confidence of (K=On, T=On) over Table III is 1.
	if lb > 1.0 {
		t.Errorf("Theorem 1 violated: LB %v exceeds observed confidence 1", lb)
	}
}

// TestComputePairwiseWorkersBitIdentical pins the pairwise table, at every
// worker count, bit for bit to the serial definition: the upper triangle
// and every cell against a constant series evaluated per sample by NMI,
// the rest of the lower triangle derived from the transpose, and
// constant series' rows zero.
func TestComputePairwiseWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ss []*timeseries.SymbolicSeries
	for k := 0; k < 23; k++ {
		alpha := []string{"a", "b", "c", "d"}[:1+rng.Intn(4)]
		s := &timeseries.SymbolicSeries{Name: string(rune('A' + k)), Step: 1, Alphabet: alpha, Symbols: make([]int, 300)}
		cur := 0
		for i := range s.Symbols {
			if k%5 != 0 && rng.Float64() < 0.2 { // every fifth series stays constant
				cur = rng.Intn(len(alpha))
			}
			s.Symbols[i] = cur
		}
		ss = append(ss, s)
	}
	db := mustDB(t, ss...)
	n := len(ss)
	want := make([][]float64, n)
	for i, x := range ss {
		want[i] = make([]float64, n)
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
	for _, workers := range []int{1, 2, 3, 8} {
		pw, err := ComputePairwiseWorkers(db, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(pw.Values[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("workers=%d: Values[%d][%d] = %v, want %v", workers, i, j, pw.Values[i][j], want[i][j])
				}
			}
		}
	}
}
