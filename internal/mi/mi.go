package mi

import (
	"fmt"
	"math"
	"sort"

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

// Run-based counting. The entropy and mutual-information formulas only
// consume integer occurrence counts; those counts are computed exactly
// from the maximal symbol runs a SymbolSource exposes — a run of length L
// contributes L to its symbol's marginal, and two overlapping runs
// contribute their overlap length to one joint cell. The counts are
// identical integers to a per-sample tally, and the floating-point
// summation below visits cells in the same order as the per-sample
// formulas above, so NMI tables computed through a SymbolSource (e.g. an
// mmap'd segment file) are bit-identical to the in-memory ones. It is
// also the cheaper path: a pair costs O(|runs_x| + |runs_y|) instead of
// O(samples).

// countsFromRuns tallies the marginal symbol counts of one series from
// its maximal runs.
func countsFromRuns(runs []timeseries.Run, alphabetLen int) []int {
	c := make([]int, alphabetLen)
	for _, r := range runs {
		c[r.Symbol] += r.Last - r.First + 1
	}
	return c
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

// jointFromRuns tallies the joint counts of two aligned series into the
// flat row-major table joint (cell (a, b) at a*ny+b, len nx*ny), by a
// two-pointer sweep over their run partitions: the overlap length of each
// run pair lands in one cell. Equal to the per-sample tally of
// jointCounts, in O(|xr| + |yr|). The table is cleared first, so one
// scratch serves every pair.
func jointFromRuns(joint []int, xr, yr []timeseries.Run, ny int) {
	clear(joint)
	i, j := 0, 0
	for i < len(xr) && j < len(yr) {
		a, b := xr[i], yr[j]
		lo, hi := a.First, a.Last
		if b.First > lo {
			lo = b.First
		}
		if b.Last < hi {
			hi = b.Last
		}
		if hi >= lo {
			joint[a.Symbol*ny+b.Symbol] += hi - lo + 1
		}
		if a.Last <= b.Last {
			i++
		}
		if b.Last <= a.Last {
			j++
		}
	}
}

// nmiFromCounts evaluates Ĩ(X;Y) = I/H(X) from precomputed counts with
// the exact float operation order of MutualInformation + NMI; joint is
// the flat table jointFromRuns filled. hx must be
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
// does every worker count: each row's upper-triangle cells (and the cells
// against constant series) are computed directly, then the rest of the
// lower triangle is derived from the transpose, I being symmetric.
func ComputePairwiseWorkers(src timeseries.SymbolSource, workers int) (*Pairwise, error) {
	n := src.NumSeries()
	samples := src.Len()
	p := &Pairwise{
		Names:  make([]string, n),
		Values: make([][]float64, n),
	}
	runs := make([][]timeseries.Run, n)
	counts := make([][]int, n)
	entropies := make([]float64, n)
	maxAlpha := 0
	for i := 0; i < n; i++ {
		p.Names[i] = src.SeriesName(i)
		maxAlpha = max(maxAlpha, len(src.SeriesAlphabet(i)))
	}
	par.For(n, workers, func(i int) {
		p.Values[i] = make([]float64, n)
		runs[i] = src.AppendRuns(i, nil)
		counts[i] = countsFromRuns(runs[i], len(src.SeriesAlphabet(i)))
		entropies[i] = entropyFromCounts(counts[i], samples)
	})
	par.For(n, workers, func(i int) {
		if entropies[i] == 0 {
			return // constant series: NMI 0 against everything
		}
		row := p.Values[i]
		row[i] = 1
		joint := make([]int, len(counts[i])*maxAlpha) // one flat scratch for all of the row's pairs
		for j := 0; j < n; j++ {
			if j == i || (j < i && entropies[j] != 0) {
				continue // the diagonal, or derived from the transpose below
			}
			cells := joint[:len(counts[i])*len(counts[j])]
			jointFromRuns(cells, runs[i], runs[j], len(counts[j]))
			row[j] = nmiFromCounts(cells, counts[i], counts[j], samples, entropies[i])
		}
	})
	for i := 0; i < n; i++ {
		if entropies[i] == 0 {
			continue
		}
		for j := 0; j < i; j++ {
			if entropies[j] != 0 {
				p.Values[i][j] = p.Values[j][i] * entropies[j] / entropies[i]
			}
		}
	}
	return p, nil
}

// MinNMI returns min(Ĩ(i;j), Ĩ(j;i)) — the quantity an undirected
// correlation edge is thresholded on (Def 5.5).
func (p *Pairwise) MinNMI(i, j int) float64 {
	a, b := p.Values[i][j], p.Values[j][i]
	if a < b {
		return a
	}
	return b
}

// MuForDensity chooses the MI threshold µ realizing the expected
// correlation-graph density (Def 5.6): the k-th largest pairwise min-NMI,
// where k = round(density · #pairs). This is how the evaluation's
// "µ = 80%/60%/40%/20% of edges" settings are produced. A density of 0
// returns a threshold just above the maximum (empty graph).
func (p *Pairwise) MuForDensity(density float64) (float64, error) {
	if density < 0 || density > 1 {
		return 0, fmt.Errorf("mi: density %v out of [0,1]", density)
	}
	n := len(p.Names)
	var mins []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mins = append(mins, p.MinNMI(i, j))
		}
	}
	if len(mins) == 0 {
		return 1, nil
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(mins)))
	k := int(math.Round(density * float64(len(mins))))
	if k <= 0 {
		return math.Nextafter(mins[0], math.Inf(1)), nil
	}
	if k > len(mins) {
		k = len(mins)
	}
	mu := mins[k-1]
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
// mutually exclusive selectors: an explicit µ, or an expected graph
// density evaluated against the pairwise table (Def 5.6). Exactly one of
// mu and density must be positive. A density-derived µ is clamped to 1 —
// MuForDensity can exceed it on degenerate tables (e.g. a single pair of
// identical series) and Graph rejects µ > 1.
func ResolveMu(t DensityThresholder, mu, density float64) (float64, error) {
	if err := ValidateSelector(mu, density); err != nil {
		return 0, err
	}
	if density > 0 {
		m, err := t.MuForDensity(density)
		if err != nil {
			return 0, err
		}
		if m > 1 {
			m = 1
		}
		return m, nil
	}
	return mu, nil
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
	if mu <= 0 || mu > 1 {
		return nil, fmt.Errorf("mi: µ must be in (0,1], got %v", mu)
	}
	n := len(p.Names)
	g := &Graph{Mu: mu, names: p.Names, index: make(map[string]int, n), adj: make([][]bool, n)}
	for i, name := range p.Names {
		g.index[name] = i
		g.adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if p.Values[i][j] >= mu && p.Values[j][i] >= mu {
				g.adj[i][j] = true
				g.adj[j][i] = true
			}
		}
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
func (g *Graph) NumEdges() int {
	n := 0
	for i := range g.adj {
		for j := i + 1; j < len(g.adj); j++ {
			if g.adj[i][j] {
				n++
			}
		}
	}
	return n
}

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
