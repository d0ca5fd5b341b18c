package server

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ftpm"
	"ftpm/internal/server/store"
)

// splitDB is one random database cut into consecutive parts the way a
// dataset's appends cut it: every part carries its series' alphabets as
// grown up to its last sample, and is kept in the heap as a SymbolicDB or
// sealed into a segment image.
type splitDB struct {
	whole *ftpm.SymbolicDB
	parts []ftpm.SymbolSource
	ends  []int // ends[k]: samples in parts[0..k]
	// Coverage of the cases the chain must get right.
	seams3, grown, heap, sealed bool
}

// randomSplitDB draws 1–4 series and 1–130 parts, a third of them one
// sample long, over symbols whose runs are often long enough to cross
// several seams.
func randomSplitDB(t *testing.T, rng *rand.Rand) splitDB {
	t.Helper()
	nparts := 1 + rng.Intn(130)
	var d splitDB
	total := 0
	for k := 0; k < nparts; k++ {
		n := 1
		if rng.Intn(3) > 0 {
			n += rng.Intn(12)
		}
		total += n
		d.ends = append(d.ends, total)
	}
	nseries := 1 + rng.Intn(4)
	syms := make([][]int, nseries)
	for i := range syms {
		nalpha := 1 + rng.Intn(5)
		for len(syms[i]) < total {
			run := 1 + rng.Intn(4)
			if rng.Intn(4) == 0 {
				run += rng.Intn(40)
			}
			// Symbol ids are drawn low first, so later parts often
			// bring in new ones and the alphabet grows along the chain.
			sym := rng.Intn(min(nalpha, 1+len(syms[i])/8))
			for ; run > 0 && len(syms[i]) < total; run-- {
				syms[i] = append(syms[i], sym)
			}
		}
	}
	// alphaAt(i, end) is series i's alphabet as grown by its first end
	// samples.
	alphaAt := func(i, end int) []string {
		top := 0
		for _, s := range syms[i][:end] {
			top = max(top, s)
		}
		alpha := make([]string, top+1)
		for s := range alpha {
			alpha[s] = "s" + strconv.Itoa(s)
		}
		return alpha
	}
	db := func(lo, hi int) *ftpm.SymbolicDB {
		series := make([]*ftpm.SymbolicSeries, nseries)
		for i := range series {
			series[i] = &ftpm.SymbolicSeries{
				Name: "S" + strconv.Itoa(i), Start: ftpm.Time(1000 + 30*lo), Step: 30,
				Alphabet: alphaAt(i, hi), Symbols: syms[i][lo:hi],
			}
		}
		sdb, err := ftpm.NewSymbolicDB(series...)
		if err != nil {
			t.Fatal(err)
		}
		return sdb
	}
	d.whole = db(0, total)
	lo := 0
	for k, hi := range d.ends {
		part := db(lo, hi)
		if rng.Intn(2) == 0 {
			d.parts = append(d.parts, part)
			d.heap = true
		} else {
			img, err := store.EncodeSegment(part, "part-"+strconv.Itoa(k))
			if err != nil {
				t.Fatal(err)
			}
			seg, err := store.ParseSegment(img)
			if err != nil {
				t.Fatal(err)
			}
			d.parts = append(d.parts, seg)
			d.sealed = true
		}
		lo = hi
	}
	for i := range syms {
		if len(alphaAt(i, d.ends[0])) < len(alphaAt(i, total)) {
			d.grown = true
		}
		for _, r := range d.whole.Series[i].Runs() {
			crossed := 0
			for _, end := range d.ends {
				if r.First < end && end <= r.Last {
					crossed++
				}
			}
			d.seams3 = d.seams3 || crossed >= 3
		}
	}
	return d
}

// TestChainMatchesUnsplit is the flat chain's property: a database split
// into parts and chained back — one append at a time through chain, or in
// one go as segmentGen builds a restored generation — is the unsplit
// database to every reader: same runs (a run crossing any number of seams
// merged into one), length, grid, names, alphabets and fingerprint.
// Chaining onto a chain leaves the chain it extends intact, and a v2
// digest resumed part by part equals the unsplit database's.
func TestChainMatchesUnsplit(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var seams3, grown, mixed bool
	for iter := 0; iter < 80; iter++ {
		d := randomSplitDB(t, rng)
		seams3, grown = seams3 || d.seams3, grown || d.grown
		mixed = mixed || d.heap && d.sealed

		folded := d.parts[0]
		prefixes := []ftpm.SymbolSource{folded}
		for _, p := range d.parts[1:] {
			folded = chain(folded, p)
			prefixes = append(prefixes, folded)
		}
		for _, c := range []struct {
			name string
			src  ftpm.SymbolSource
		}{{"chain", folded}, {"segmentGen", chainParts(d.parts)}} {
			checkSameSource(t, iter, c.name, c.src, d.whole)
		}
		// Every intermediate generation still reads as its own prefix.
		for k, p := range prefixes {
			if p.Len() != d.ends[k] {
				t.Fatalf("iter %d: prefix %d holds %d samples after later appends, want %d", iter, k, p.Len(), d.ends[k])
			}
		}
		// Folding the parts in one at a time through the saved digests, as
		// appends do, gives every prefix the digest it gets from an empty
		// state, and the whole the unsplit database's; extending a digest
		// leaves it as it was.
		digests := []contentDigest{digestSource(d.parts[0])}
		for _, p := range d.parts[1:] {
			digests = append(digests, digests[len(digests)-1].extend(p))
		}
		for k, p := range prefixes {
			if got, want := digests[k].fingerprint(p), digestSource(p).fingerprint(p); got != want {
				t.Fatalf("iter %d: prefix %d resumed to %s, from empty %s", iter, k, got, want)
			}
		}
		if got, want := digests[len(digests)-1].fingerprint(folded), digestSource(d.whole).fingerprint(d.whole); got != want {
			t.Fatalf("iter %d: resumed fingerprint %s, unsplit %s", iter, got, want)
		}
	}
	if !seams3 || !grown || !mixed {
		t.Fatalf("cases not covered: run across 3+ seams %v, grown alphabet %v, heap and sealed parts in one chain %v", seams3, grown, mixed)
	}
}

// checkSameSource compares every SymbolSource reading of got to want.
func checkSameSource(t *testing.T, iter int, name string, got ftpm.SymbolSource, want *ftpm.SymbolicDB) {
	t.Helper()
	if got.Len() != want.Len() || got.End() != want.End() || got.Start() != want.Start() || got.Step() != want.Step() {
		t.Fatalf("iter %d %s: grid %d samples [%d, %d) step %d, want %d samples [%d, %d) step %d", iter, name,
			got.Len(), got.Start(), got.End(), got.Step(), want.Len(), want.Start(), want.End(), want.Step())
	}
	if got.NumSeries() != want.NumSeries() {
		t.Fatalf("iter %d %s: %d series, want %d", iter, name, got.NumSeries(), want.NumSeries())
	}
	// A caller's runs already in dst, ending in every series' first
	// symbol, must not absorb the series' first run.
	prefix := []ftpm.Run{{Symbol: 0, First: 0, Last: 0}}
	for i := 0; i < want.NumSeries(); i++ {
		if got.SeriesName(i) != want.SeriesName(i) || !reflect.DeepEqual(got.SeriesAlphabet(i), want.SeriesAlphabet(i)) {
			t.Fatalf("iter %d %s: series %d is %q %v, want %q %v", iter, name, i,
				got.SeriesName(i), got.SeriesAlphabet(i), want.SeriesName(i), want.SeriesAlphabet(i))
		}
		prefix[0].Symbol = want.Series[i].Symbols[0]
		runs := got.AppendRuns(i, prefix[:1:1])
		if wantRuns := want.AppendRuns(i, nil); !reflect.DeepEqual(runs[1:], wantRuns) || runs[0] != prefix[0] {
			t.Fatalf("iter %d %s: series %d runs\n got %v\nwant %v", iter, name, i, runs, append(prefix[:1:1], wantRuns...))
		}
	}
	if g, w := fingerprintSource(got), fingerprintSource(want); g != w {
		t.Fatalf("iter %d %s: fingerprint %s, unsplit %s", iter, name, g, w)
	}
}
