package mi

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"ftpm/internal/bitmap"
	"ftpm/internal/par"
	"ftpm/internal/timeseries"
)

// Entropy returns H(X_S) (Def 5.1) in nats.
func Entropy(s *timeseries.SymbolicSeries) float64 {
	n := float64(s.Len())
	if n == 0 {
		return 0
	}
	h := 0.0
	for _, c := range s.Counts() {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log(p)
	}
	return h
}

// jointCounts tallies the aligned sample pairs of x and y.
func jointCounts(x, y *timeseries.SymbolicSeries) ([][]int, error) {
	if x.Len() != y.Len() || x.Start != y.Start || x.Step != y.Step {
		return nil, fmt.Errorf("mi: series %q and %q are not aligned", x.Name, y.Name)
	}
	if x.Len() == 0 {
		return nil, fmt.Errorf("mi: empty series %q", x.Name)
	}
	joint := make([][]int, len(x.Alphabet))
	for i := range joint {
		joint[i] = make([]int, len(y.Alphabet))
	}
	for i := range x.Symbols {
		joint[x.Symbols[i]][y.Symbols[i]]++
	}
	return joint, nil
}

// ConditionalEntropy returns H(X_S | Y_S) (Eq 8) in nats.
func ConditionalEntropy(x, y *timeseries.SymbolicSeries) (float64, error) {
	joint, err := jointCounts(x, y)
	if err != nil {
		return 0, err
	}
	n := float64(x.Len())
	yCounts := y.Counts()
	h := 0.0
	for xi := range joint {
		for yi, c := range joint[xi] {
			if c == 0 {
				continue
			}
			pxy := float64(c) / n
			py := float64(yCounts[yi]) / n
			h -= pxy * math.Log(pxy/py)
		}
	}
	return h, nil
}

// MutualInformation returns I(X_S; Y_S) (Eq 9) in nats.
func MutualInformation(x, y *timeseries.SymbolicSeries) (float64, error) {
	joint, err := jointCounts(x, y)
	if err != nil {
		return 0, err
	}
	n := float64(x.Len())
	xCounts, yCounts := x.Counts(), y.Counts()
	mi := 0.0
	for xi := range joint {
		for yi, c := range joint[xi] {
			if c == 0 {
				continue
			}
			pxy := float64(c) / n
			px := float64(xCounts[xi]) / n
			py := float64(yCounts[yi]) / n
			mi += pxy * math.Log(pxy/(px*py))
		}
	}
	if mi < 0 { // guard against floating point noise
		mi = 0
	}
	return mi, nil
}

// NMI returns the normalized mutual information Ĩ(X_S; Y_S) = I/H(X)
// (Eq 10) — the percentage reduction of uncertainty about X given Y. NMI
// is asymmetric. A constant series has no uncertainty to reduce; we define
// its NMI as 0 so it never forms correlation edges.
func NMI(x, y *timeseries.SymbolicSeries) (float64, error) {
	i, err := MutualInformation(x, y)
	if err != nil {
		return 0, err
	}
	h := Entropy(x)
	if h == 0 {
		return 0, nil
	}
	nmi := i / h
	if nmi > 1 { // floating point guard; I <= H(X) analytically
		nmi = 1
	}
	return nmi, nil
}

// Bitset counting. The entropy and mutual-information formulas only
// consume integer occurrence counts, and the pairwise tables compute them
// exactly from the maximal symbol runs a SymbolSource exposes. A run of
// length L contributes L to its symbol's marginal. Each series also gets a
// bitmap of the samples holding each of its symbols but the last, filled a
// word range per run. A joint cell of two bitmapped symbols is the
// popcount of their AND; the cells of a last symbol are what the
// marginals leave over. The counts are identical integers to a per-sample
// tally, and the floating-point summation below visits cells in the same
// order as the per-sample formulas above, so NMI tables computed through a
// SymbolSource (e.g. an mmap'd segment file) are bit-identical to the
// in-memory ones. A pair costs (nx−1)(ny−1)·⌈samples/64⌉ branch-free word
// operations.

// countsFromRuns tallies the marginal symbol counts of one series from
// its maximal runs.
func countsFromRuns(runs []timeseries.Run, alphabetLen int) []int {
	c := make([]int, alphabetLen)
	for _, r := range runs {
		c[r.Symbol] += r.Last - r.First + 1
	}
	return c
}

// runBitmaps returns, for each symbol below syms, the bitmap of the
// samples the runs give that symbol.
func runBitmaps(runs []timeseries.Run, syms, samples int) []*bitmap.Bitmap {
	out := make([]*bitmap.Bitmap, syms)
	for s := range out {
		out[s] = bitmap.New(samples)
	}
	for _, r := range runs {
		if r.Symbol < syms {
			out[r.Symbol].SetRange(r.First, r.Last)
		}
	}
	return out
}

// entropyFromCounts is Entropy over precomputed marginal counts; the
// iteration order and float operations match Entropy exactly.
func entropyFromCounts(counts []int, samples int) float64 {
	n := float64(samples)
	if n == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log(p)
	}
	return h
}

// symbolBits is one series prepared for joint counting: its marginal
// symbol counts, and the bitmaps of every symbol but the last.
type symbolBits struct {
	counts []int
	bits   []*bitmap.Bitmap
}

// jointFromBits fills the flat row-major joint table of x and y (cell
// (a, b) at a*ny+b, len nx*ny). A cell of two bitmapped symbols is a
// popcount; the last column is each row's marginal minus its other cells,
// and the last row each column's marginal minus the rows above. Equal to
// the per-sample tally of jointCounts. Every cell is written, so one
// scratch serves every pair.
func jointFromBits(joint []int, x, y *symbolBits) {
	ny := len(y.counts)
	for a, xa := range x.bits {
		row := joint[a*ny : (a+1)*ny]
		rest := x.counts[a]
		for b, yb := range y.bits {
			row[b] = xa.AndCount(yb)
			rest -= row[b]
		}
		row[ny-1] = rest
	}
	last := joint[len(x.bits)*ny:]
	for b := range last {
		c := y.counts[b]
		for a := range x.bits {
			c -= joint[a*ny+b]
		}
		last[b] = c
	}
}

// nmiFromCounts evaluates Ĩ(X;Y) = I/H(X) from precomputed counts with
// the exact float operation order of MutualInformation + NMI; joint is
// the flat row-major table of jointFromBits. hx must be
// entropyFromCounts(xCounts, samples) and must be non-zero (callers
// short-circuit constant series to 0 first).
func nmiFromCounts(joint []int, xCounts, yCounts []int, samples int, hx float64) float64 {
	n := float64(samples)
	ny := len(yCounts)
	mi := 0.0
	for xi := range xCounts {
		for yi, c := range joint[xi*ny : (xi+1)*ny] {
			if c == 0 {
				continue
			}
			pxy := float64(c) / n
			px := float64(xCounts[xi]) / n
			py := float64(yCounts[yi]) / n
			mi += pxy * math.Log(pxy/(px*py))
		}
	}
	if mi < 0 { // guard against floating point noise
		mi = 0
	}
	nmi := mi / hx
	if nmi > 1 { // floating point guard; I <= H(X) analytically
		nmi = 1
	}
	return nmi
}

// nmiTable evaluates the NMI table of variables with the given entropies,
// rows fanned out over up to workers goroutines. cell(i, j, joint)
// returns Ĩ(i; j) using joint, a per-row scratch of the given length.
// Each row's upper-triangle cells, and its cells against constant
// variables, come from cell; the rest of the lower triangle is derived
// from the transpose, I being symmetric. A constant variable's row is 0,
// and every other diagonal cell is 1. The table is bit-identical at every
// worker count.
func nmiTable(entropies []float64, workers, scratch int, cell func(i, j int, joint []int) float64) [][]float64 {
	n := len(entropies)
	values := make([][]float64, n)
	par.For(n, workers, func(i int) {
		row := make([]float64, n)
		values[i] = row
		if entropies[i] == 0 {
			return // constant: NMI 0 against everything
		}
		row[i] = 1
		joint := make([]int, scratch)
		for j := range row {
			if j == i || (j < i && entropies[j] != 0) {
				continue // the diagonal, or derived from the transpose below
			}
			row[j] = cell(i, j, joint)
		}
	})
	for i := range values {
		if entropies[i] == 0 {
			continue
		}
		for j := 0; j < i; j++ {
			if entropies[j] != 0 {
				values[i][j] = values[j][i] * entropies[j] / entropies[i]
			}
		}
	}
	return values
}

// Pairwise holds the NMI values of every ordered series pair of a symbolic
// database.
type Pairwise struct {
	Names []string
	// Values[i][j] = Ĩ(series_i ; series_j). The diagonal is 1 unless the
	// series is constant.
	Values [][]float64
}

// ComputePairwise evaluates NMI for all ordered pairs (Alg 2, lines 2-3)
// on one goroutine; it is ComputePairwiseWorkers(src, 1).
func ComputePairwise(src timeseries.SymbolSource) (*Pairwise, error) {
	return ComputePairwiseWorkers(src, 1)
}

// ComputePairwiseWorkers evaluates NMI for all ordered pairs with the
// table's rows fanned out over up to workers goroutines. It consumes the
// source's maximal symbol runs only, so any SymbolSource — the in-memory
// database or an mmap'd segment — yields a bit-identical table, and so
// does every worker count (see nmiTable).
func ComputePairwiseWorkers(src timeseries.SymbolSource, workers int) (*Pairwise, error) {
	n := src.NumSeries()
	samples := src.Len()
	names := make([]string, n)
	series := make([]symbolBits, n)
	entropies := make([]float64, n)
	maxAlpha := 0
	for i := range names {
		names[i] = src.SeriesName(i)
		maxAlpha = max(maxAlpha, len(src.SeriesAlphabet(i)))
	}
	par.For(n, workers, func(i int) {
		runs := src.AppendRuns(i, nil)
		counts := countsFromRuns(runs, len(src.SeriesAlphabet(i)))
		series[i] = symbolBits{counts: counts, bits: runBitmaps(runs, max(len(counts)-1, 0), samples)}
		entropies[i] = entropyFromCounts(counts, samples)
	})
	values := nmiTable(entropies, workers, maxAlpha*maxAlpha, func(i, j int, joint []int) float64 {
		x, y := &series[i], &series[j]
		cells := joint[:len(x.counts)*len(y.counts)]
		jointFromBits(cells, x, y)
		return nmiFromCounts(cells, x.counts, y.counts, samples, entropies[i])
	})
	return &Pairwise{Names: names, Values: values}, nil
}

// MinNMI returns min(Ĩ(i;j), Ĩ(j;i)) — the quantity an undirected
// correlation edge is thresholded on (Def 5.5).
func (p *Pairwise) MinNMI(i, j int) float64 { return minNMI(p.Values, i, j) }

func minNMI(values [][]float64, i, j int) float64 {
	a, b := values[i][j], values[j][i]
	if a < b {
		return a
	}
	return b
}

// MuForDensity chooses the MI threshold µ realizing the expected
// correlation-graph density (Def 5.6): the k-th largest pairwise min-NMI,
// where k = round(density · #pairs). This is how the evaluation's
// "µ = 80%/60%/40%/20% of edges" settings are produced. A density that
// rounds to no pair returns a threshold just above the largest min-NMI,
// so the graph is empty; it exceeds 1 when some pair is perfectly
// correlated, and Graph accepts it (see muCeiling).
func (p *Pairwise) MuForDensity(density float64) (float64, error) {
	return muForDensity(p.Values, density)
}

// muCeiling is the largest threshold Graph accepts: the float just above
// 1, which no NMI reaches. MuForDensity returns it for a density that
// rounds to no pair when a pair's min-NMI is 1 — complementary event
// indicators, or identical series — so that the graph is still empty. An
// explicit µ stays in (0, 1] (ResolveMu).
const muCeiling = 1 + 0x1p-52

// muForDensity implements MuForDensity for either pairwise table.
func muForDensity(values [][]float64, density float64) (float64, error) {
	if density < 0 || density > 1 {
		return 0, fmt.Errorf("mi: density %v out of [0,1]", density)
	}
	n := len(values)
	mins := make([]float64, 0, n*(n-1)/2)
	for i := range values {
		for j := i + 1; j < n; j++ {
			mins = append(mins, minNMI(values, i, j))
		}
	}
	if len(mins) == 0 {
		return 1, nil
	}
	slices.Sort(mins)
	k := int(math.Round(density * float64(len(mins))))
	if k <= 0 {
		return math.Nextafter(mins[len(mins)-1], math.Inf(1)), nil
	}
	mu := mins[len(mins)-min(k, len(mins))]
	if mu <= 0 {
		// µ must be positive (Def 5.4); the smallest positive threshold
		// keeps every pair with any mutual dependency.
		mu = math.SmallestNonzeroFloat64
	}
	return mu, nil
}

// DensityThresholder resolves an expected correlation-graph density to
// the MI threshold µ realizing it. Both pairwise tables (series-level
// Pairwise, event-level EventPairwise) implement it.
type DensityThresholder interface {
	MuForDensity(density float64) (float64, error)
}

// ValidateSelector checks that exactly one of the two µ selectors — an
// explicit threshold or an expected graph density — is set. Callers that
// build pairwise tables lazily should validate before triggering the
// O(n²) analysis; ResolveMu re-checks it regardless.
func ValidateSelector(mu, density float64) error {
	if (mu > 0) == (density > 0) {
		return fmt.Errorf("mi: exactly one of mu and density must be set")
	}
	return nil
}

// ResolveMu derives the MI threshold µ of one A-HTPGM run from its two
// mutually exclusive selectors: an explicit µ, which must lie in (0, 1],
// or an expected graph density evaluated against the pairwise table
// (Def 5.6). Exactly one of mu and density must be positive.
func ResolveMu(t DensityThresholder, mu, density float64) (float64, error) {
	if err := ValidateSelector(mu, density); err != nil {
		return 0, err
	}
	if density > 0 {
		return t.MuForDensity(density)
	}
	if mu > 1 {
		return 0, errMuRange(mu)
	}
	return mu, nil
}

func errMuRange(mu float64) error {
	return fmt.Errorf("mi: µ must be in (0,1], got %v", mu)
}

// correlated returns the adjacency of the undirected graph over an NMI
// table whose edges join the pairs meeting µ in both directions.
func correlated(values [][]float64, mu float64) ([][]bool, error) {
	if mu <= 0 || mu > muCeiling {
		return nil, errMuRange(mu)
	}
	n := len(values)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if values[i][j] >= mu && values[j][i] >= mu {
				adj[i][j] = true
				adj[j][i] = true
			}
		}
	}
	return adj, nil
}

// numEdges counts the undirected edges of an adjacency matrix.
func numEdges(adj [][]bool) int {
	n := 0
	for i := range adj {
		for j := i + 1; j < len(adj); j++ {
			if adj[i][j] {
				n++
			}
		}
	}
	return n
}

// Graph is the undirected correlation graph G_C (Def 5.5): vertices are
// correlated series, edges connect pairs whose NMI meets µ in both
// directions. It implements the miner's SeriesFilter.
type Graph struct {
	Mu    float64
	names []string
	index map[string]int
	adj   [][]bool
}

// Graph thresholds the pairwise NMI matrix at µ (Alg 2, lines 4-6).
func (p *Pairwise) Graph(mu float64) (*Graph, error) {
	adj, err := correlated(p.Values, mu)
	if err != nil {
		return nil, err
	}
	g := &Graph{Mu: mu, names: p.Names, index: make(map[string]int, len(p.Names)), adj: adj}
	for i, name := range p.Names {
		g.index[name] = i
	}
	return g, nil
}

// SeriesAllowed reports whether the series is a vertex of the correlation
// graph, i.e. a member of X_C (it has at least one incident edge).
func (g *Graph) SeriesAllowed(series string) bool {
	i, ok := g.index[series]
	if !ok {
		return false
	}
	for _, e := range g.adj[i] {
		if e {
			return true
		}
	}
	return false
}

// PairAllowed reports whether the two series share a correlation edge.
// Unknown series have no edges.
func (g *Graph) PairAllowed(a, b string) bool {
	i, ok := g.index[a]
	if !ok {
		return false
	}
	j, ok := g.index[b]
	if !ok {
		return false
	}
	if i == j {
		return true
	}
	return g.adj[i][j]
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return numEdges(g.adj) }

// Density returns d_C (Def 5.6): edges divided by the complete graph's
// edge count.
func (g *Graph) Density() float64 {
	n := len(g.names)
	if n < 2 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n*(n-1)/2)
}

// Vertices returns the names of series with at least one edge (X_C),
// sorted.
func (g *Graph) Vertices() []string {
	var out []string
	for _, name := range g.names {
		if g.SeriesAllowed(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Edges lists the undirected edges as sorted name pairs, sorted
// lexicographically.
func (g *Graph) Edges() [][2]string {
	var out [][2]string
	for i := range g.adj {
		for j := i + 1; j < len(g.adj); j++ {
			if g.adj[i][j] {
				a, b := g.names[i], g.names[j]
				if b < a {
					a, b = b, a
				}
				out = append(out, [2]string{a, b})
			}
		}
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x][0] != out[y][0] {
			return out[x][0] < out[y][0]
		}
		return out[x][1] < out[y][1]
	})
	return out
}

// ConfidenceLowerBound evaluates Theorem 1's bound LB on the DSEQ
// confidence of a frequent event pair of two correlated series:
//
//	LB = (σ^σm · (1−σm/(nx−1))^(1−σ))^((1−µ)/σ) · σ/(2σm−σ)
//
// where σ is the support threshold, σm the maximum support of the pair in
// DSYB, µ the MI threshold and nx the alphabet size of X. It returns an
// error when the preconditions (0 < σ ≤ σm ≤ 1, 0 < µ ≤ 1, nx ≥ 2) are
// violated.
func ConfidenceLowerBound(sigma, sigmaM, mu float64, nx int) (float64, error) {
	if sigma <= 0 || sigma > 1 {
		return 0, fmt.Errorf("mi: sigma %v out of (0,1]", sigma)
	}
	if sigmaM < sigma || sigmaM > 1 {
		return 0, fmt.Errorf("mi: sigma_m %v out of [sigma,1]", sigmaM)
	}
	if mu <= 0 || mu > 1 {
		return 0, fmt.Errorf("mi: mu %v out of (0,1]", mu)
	}
	if nx < 2 {
		return 0, fmt.Errorf("mi: alphabet size %d must be at least 2", nx)
	}
	base := math.Pow(sigma, sigmaM) * math.Pow(1-sigmaM/float64(nx-1), 1-sigma)
	lb := math.Pow(base, (1-mu)/sigma) * sigma / (2*sigmaM - sigma)
	if math.IsNaN(lb) || lb < 0 {
		lb = 0
	}
	if lb > 1 {
		lb = 1
	}
	return lb, nil
}
