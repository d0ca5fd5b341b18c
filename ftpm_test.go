package ftpm_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"ftpm"
	"ftpm/internal/csvio"
	"ftpm/internal/paperex"
)

// tableIDB builds the paper's Table I database through the public API.
func tableIDB(t *testing.T) *ftpm.SymbolicDB {
	t.Helper()
	series := make([]*ftpm.SymbolicSeries, 0, len(paperex.Rows))
	for _, r := range paperex.Rows {
		s, err := ftpm.ParseSymbols(r.Name, paperex.Start, paperex.Step, paperex.Alphabet, r.Data)
		if err != nil {
			t.Fatal(err)
		}
		series = append(series, s)
	}
	db, err := ftpm.NewSymbolicDB(series...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestEndToEndExact(t *testing.T) {
	db := tableIDB(t)
	res, err := ftpm.MineSymbolic(context.Background(), db, ftpm.Options{
		MinSupport:    0.7,
		MinConfidence: 0.7,
		NumWindows:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Singles) != 11 {
		t.Errorf("frequent singles = %d, want 11 (paper Fig 4)", len(res.Singles))
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns mined")
	}
	for _, p := range res.Patterns {
		d := res.Describe(p)
		if !strings.Contains(d, "=") || !strings.Contains(d, "[") {
			t.Errorf("Describe output unexpected: %q", d)
		}
		if p.RelSupport < 0.7 || p.Confidence < 0.7 {
			t.Errorf("threshold violated: %+v", p)
		}
	}
}

func TestEndToEndApprox(t *testing.T) {
	db := tableIDB(t)
	exact, err := ftpm.MineSymbolic(context.Background(), db, ftpm.Options{MinSupport: 0.5, MinConfidence: 0.5, NumWindows: 4})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := ftpm.MineSymbolic(context.Background(), db, ftpm.Options{
		MinSupport:    0.5,
		MinConfidence: 0.5,
		NumWindows:    4,
		Approx:        &ftpm.ApproxOptions{Density: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if approx.Graph == nil || approx.Mu <= 0 {
		t.Fatal("approx run must expose the correlation graph and µ")
	}
	// Fig 5: at 40% density the correlated set is {C, K, M, T}.
	verts := approx.Graph.Vertices()
	if len(verts) != 4 {
		t.Errorf("correlated series = %v, want C,K,M,T", verts)
	}
	if len(approx.Patterns) > len(exact.Patterns) {
		t.Error("A-HTPGM can only prune")
	}
	acc := ftpm.Accuracy(approx, exact)
	if acc <= 0 || acc > 1 {
		t.Errorf("accuracy = %v", acc)
	}
	// All approx patterns must be exact patterns.
	ex := map[string]bool{}
	for _, p := range exact.Patterns {
		ex[p.Pattern.Key()] = true
	}
	for _, p := range approx.Patterns {
		if !ex[p.Pattern.Key()] {
			t.Fatalf("invented pattern %v", p.Pattern)
		}
	}
}

func TestApproxValidation(t *testing.T) {
	db := tableIDB(t)
	if _, err := ftpm.MineSymbolic(context.Background(), db, ftpm.Options{
		MinSupport: 0.5, NumWindows: 4,
		Approx: &ftpm.ApproxOptions{},
	}); err == nil {
		t.Error("empty ApproxOptions must error")
	}
	if _, err := ftpm.MineSymbolic(context.Background(), db, ftpm.Options{
		MinSupport: 0.5, NumWindows: 4,
		Approx: &ftpm.ApproxOptions{Mu: 0.4, Density: 0.4},
	}); err == nil {
		t.Error("both Mu and Density must error")
	}
	seqdb, err := ftpm.BuildSequences(db, ftpm.SplitOptions{NumWindows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ftpm.Mine(context.Background(), seqdb, ftpm.Options{
		MinSupport: 0.5,
		Approx:     &ftpm.ApproxOptions{Mu: 0.4},
	}); err == nil {
		t.Error("Mine must reject Approx (needs the symbolic database)")
	}
}

func TestMineOnSequenceDB(t *testing.T) {
	db := tableIDB(t)
	seqdb, err := ftpm.BuildSequences(db, ftpm.SplitOptions{NumWindows: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ftpm.Mine(context.Background(), seqdb, ftpm.Options{MinSupport: 0.7, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Singles) != 11 {
		t.Errorf("singles = %d, want 11", len(res.Singles))
	}
}

func TestNumericPipeline(t *testing.T) {
	// The §III-A example: values over 0.5 are On.
	x, err := ftpm.NewTimeSeries("X", 0, 300, []float64{1.61, 1.21, 0.41, 0.0})
	if err != nil {
		t.Fatal(err)
	}
	y, _ := ftpm.NewTimeSeries("Y", 0, 300, []float64{0.0, 0.9, 0.9, 0.0})
	sdb, err := ftpm.Symbolize([]*ftpm.TimeSeries{x, y}, func(string) ftpm.Symbolizer {
		return ftpm.OnOff(0.5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sdb.Find("X").SymbolAt(0) != "On" || sdb.Find("X").SymbolAt(3) != "Off" {
		t.Error("threshold symbolization wrong")
	}
	res, err := ftpm.MineSymbolic(context.Background(), sdb, ftpm.Options{MinSupport: 1, MinConfidence: 0, NumWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Error("expected at least one pattern (X=On overlaps Y=On)")
	}
}

func TestQuantileSymbolizerAPI(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	q, err := ftpm.Quantile(vals, []float64{25, 50, 75}, []string{"Low", "Mid", "High", "Peak"})
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Alphabet()[q.Symbolize(99)]; got != "Peak" {
		t.Errorf("Symbolize(99) = %s", got)
	}
}

func TestCorrelationGraphAPI(t *testing.T) {
	db := tableIDB(t)
	g, mu, err := ftpm.CorrelationGraphByDensity(db, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if mu <= 0 || g.NumEdges() != 6 {
		t.Errorf("density graph: mu=%v edges=%d, want 6 edges", mu, g.NumEdges())
	}
	g2, err := ftpm.CorrelationGraphAt(db, mu)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Error("CorrelationGraphAt(µ) must match the density-derived graph")
	}
	// Density 0 — the sweep endpoint — stays usable and yields the empty
	// graph (no perfectly correlated pairs in Table I).
	g0, mu0, err := ftpm.CorrelationGraphByDensity(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g0.NumEdges() != 0 || mu0 <= 0 {
		t.Errorf("density-0 graph: mu=%v edges=%d, want empty", mu0, g0.NumEdges())
	}
	k := db.Find("K")
	tt := db.Find("T")
	v, err := ftpm.NMI(k, tt)
	if err != nil || v < 0.41 || v > 0.44 {
		t.Errorf("NMI(K;T) = %v, want ≈0.42 (paper §V-A)", v)
	}
	lb, err := ftpm.ConfidenceLowerBound(0.4, 0.5, 0.42, 2)
	if err != nil || lb <= 0 || lb > 1 {
		t.Errorf("ConfidenceLowerBound = %v, %v", lb, err)
	}
}

func TestOverlapPreservesPatterns(t *testing.T) {
	// Fig 3: with window overlap t_ov, patterns crossing a boundary are
	// preserved. Construct a 4-event chain that a non-overlapping split
	// cuts in half.
	a, _ := ftpm.ParseSymbols("A", 0, 10, []string{"Off", "On"}, "Off Off Off On Off Off Off Off Off Off Off Off")
	b, _ := ftpm.ParseSymbols("B", 0, 10, []string{"Off", "On"}, "Off Off Off Off On Off Off Off Off Off Off Off")
	c, _ := ftpm.ParseSymbols("C", 0, 10, []string{"Off", "On"}, "Off Off Off Off Off Off Off On Off Off Off Off")
	d, _ := ftpm.ParseSymbols("D", 0, 10, []string{"Off", "On"}, "Off Off Off Off Off Off Off Off On Off Off Off")
	sdb, err := ftpm.NewSymbolicDB(a, b, c, d)
	if err != nil {
		t.Fatal(err)
	}
	count4 := func(opt ftpm.Options) int {
		opt.MinSupport = 0.01
		opt.MinConfidence = 0
		res, err := ftpm.MineSymbolic(context.Background(), sdb, opt)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, p := range res.Patterns {
			if p.Pattern.K() == 4 {
				onCount := 0
				for _, e := range p.Pattern.Events {
					if res.DB.Vocab.Def(e).Symbol == "On" {
						onCount++
					}
				}
				if onCount == 4 {
					n++
				}
			}
		}
		return n
	}
	// Split at sample 6: the boundary falls between B=On (sample 4) and
	// C=On (sample 7); without overlap the 4-On pattern is lost.
	without := count4(ftpm.Options{WindowLength: 60})
	with := count4(ftpm.Options{WindowLength: 60, Overlap: 50})
	if without != 0 {
		t.Errorf("non-overlapping split unexpectedly preserved the pattern (%d)", without)
	}
	if with == 0 {
		t.Error("overlapping split must preserve the 4-event pattern (Fig 3)")
	}
}

func TestEventLevelApproxAPI(t *testing.T) {
	db := tableIDB(t)
	exact, err := ftpm.MineSymbolic(context.Background(), db, ftpm.Options{MinSupport: 0.5, MinConfidence: 0.5, NumWindows: 4})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := ftpm.MineSymbolic(context.Background(), db, ftpm.Options{
		MinSupport:    0.5,
		MinConfidence: 0.5,
		NumWindows:    4,
		Approx:        &ftpm.ApproxOptions{Density: 0.3, EventLevel: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.EventGraph == nil || ev.Graph != nil {
		t.Fatal("event-level run must expose the event graph only")
	}
	if len(ev.Patterns) > len(exact.Patterns) {
		t.Error("event-level pruning can only remove patterns")
	}
	ex := map[string]bool{}
	for _, p := range exact.Patterns {
		ex[p.Pattern.Key()] = true
	}
	for _, p := range ev.Patterns {
		if !ex[p.Pattern.Key()] {
			t.Fatalf("invented pattern %v", p.Pattern)
		}
	}
}

func TestWorkersOptionAPI(t *testing.T) {
	db := tableIDB(t)
	opt := ftpm.Options{MinSupport: 0.5, MinConfidence: 0.5, NumWindows: 4, MaxPatternSize: 3}
	serial, err := ftpm.MineSymbolic(context.Background(), db, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	par, err := ftpm.MineSymbolic(context.Background(), db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Patterns) != len(serial.Patterns) {
		t.Fatalf("workers changed results: %d vs %d", len(par.Patterns), len(serial.Patterns))
	}
	for i := range par.Patterns {
		if par.Patterns[i].Pattern.Key() != serial.Patterns[i].Pattern.Key() {
			t.Fatal("workers changed pattern order")
		}
	}
}

func TestMaximalAPI(t *testing.T) {
	db := tableIDB(t)
	res, err := ftpm.MineSymbolic(context.Background(), db, ftpm.Options{
		MinSupport: 0.7, MinConfidence: 0.7, NumWindows: 4, MaxPatternSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	max := res.Maximal()
	if len(max) == 0 || len(max) > len(res.Patterns) {
		t.Fatalf("maximal = %d of %d", len(max), len(res.Patterns))
	}
	// No maximal pattern may be a sub-pattern of another maximal one.
	for i, p := range max {
		for j, q := range max {
			if i != j && p.Pattern.K() < q.Pattern.K() && p.Pattern.SubPatternOf(q.Pattern) {
				t.Fatalf("maximal set contains nested patterns")
			}
		}
	}
	// Every non-maximal pattern must be contained in some mined pattern
	// one size up.
	inMax := map[string]bool{}
	for _, p := range max {
		inMax[p.Pattern.Key()] = true
	}
	for _, p := range res.Patterns {
		if inMax[p.Pattern.Key()] {
			continue
		}
		found := false
		for _, q := range res.Patterns {
			if q.Pattern.K() == p.Pattern.K()+1 && p.Pattern.SubPatternOf(q.Pattern) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("non-maximal pattern %v has no superpattern", p.Pattern)
		}
	}
}

func TestShardedOptionsAPI(t *testing.T) {
	db := tableIDB(t)
	opt := ftpm.Options{MinSupport: 0.5, MinConfidence: 0.5, NumWindows: 4}
	want, err := ftpm.MineSymbolic(context.Background(), db, opt)
	if err != nil {
		t.Fatal(err)
	}

	// MineSymbolic with Options.Shards must match the unsharded run
	// pattern for pattern, including the rendered samples.
	for _, k := range []int{2, 3, 8} {
		opt.Shards = k
		got, err := ftpm.MineSymbolic(context.Background(), db, opt)
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if got.Stats.Shards != k {
			t.Fatalf("shards=%d: stats report %d shards", k, got.Stats.Shards)
		}
		if len(got.Patterns) != len(want.Patterns) {
			t.Fatalf("shards=%d: %d patterns, want %d", k, len(got.Patterns), len(want.Patterns))
		}
		for i := range got.Patterns {
			if got.Patterns[i].Support != want.Patterns[i].Support ||
				got.Patterns[i].Pattern.Key() != want.Patterns[i].Pattern.Key() {
				t.Fatalf("shards=%d: pattern %d differs", k, i)
			}
			if got.Describe(got.Patterns[i]) != want.Describe(want.Patterns[i]) {
				t.Fatalf("shards=%d: sample rendering differs for pattern %d", k, i)
			}
		}
	}

	// A Prepared handle of the same width mines the same way, and its
	// database holds the unsharded run's sequences.
	p, err := ftpm.Prepare(db, ftpm.SplitOptions{NumWindows: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Mine(context.Background(), ftpm.Options{MinSupport: 0.5, MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.DB.Size() != want.DB.Size() || len(res.Patterns) != len(want.Patterns) || res.Stats.Shards != 3 {
		t.Fatalf("Prepare(3): %d sequences, %d patterns over %d shards; want %d sequences, %d patterns over 3",
			res.DB.Size(), len(res.Patterns), res.Stats.Shards, want.DB.Size(), len(want.Patterns))
	}

	// A-HTPGM composes with sharding: the correlation filter gates
	// candidates, not sequences.
	approx, err := ftpm.MineSymbolic(context.Background(), db, ftpm.Options{
		MinSupport: 0.5, MinConfidence: 0.5, NumWindows: 4, Shards: 2,
		Approx: &ftpm.ApproxOptions{Mu: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if approx.Graph == nil || approx.Stats.Shards != 2 {
		t.Fatalf("sharded approx run missing graph or shard stats: %+v", approx.Stats)
	}
}

// TestMineSourceAPI mines Table I read back from CSV into symbol runs, as
// the command-line tool and the server read it, and requires MineSource's
// result document to be byte-identical to MineSymbolic's over the
// in-memory database, exact and approximate, sharded or not.
func TestMineSourceAPI(t *testing.T) {
	db := tableIDB(t)
	var body bytes.Buffer
	if err := csvio.WriteSymbolic(&body, db); err != nil {
		t.Fatal(err)
	}
	src, err := csvio.ReadSymbolicRuns(bytes.NewReader(body.Bytes()), int64(body.Len()), 2)
	if err != nil {
		t.Fatal(err)
	}
	doc := func(res *ftpm.Result, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := res.ExportJSON(&out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	for _, opt := range []ftpm.Options{
		{MinSupport: 0.5, MinConfidence: 0.5, NumWindows: 4},
		{MinSupport: 0.5, MinConfidence: 0.5, NumWindows: 4, Shards: 2, Approx: &ftpm.ApproxOptions{Mu: 0.2}},
	} {
		want := doc(ftpm.MineSymbolic(context.Background(), db, opt))
		if got := doc(ftpm.MineSource(context.Background(), src, opt)); got != want {
			t.Fatalf("shards=%d: MineSource document differs from MineSymbolic's:\n%s\nwant\n%s", opt.Shards, got, want)
		}
	}
	if _, err := ftpm.MineSource(context.Background(), nil, ftpm.Options{NumWindows: 1}); err == nil {
		t.Fatal("MineSource must reject a nil source")
	}
}
