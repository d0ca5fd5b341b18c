package events

import (
	"math/rand"
	"testing"

	"ftpm/internal/temporal"
	"ftpm/internal/timeseries"
)

// deltaTestDB builds a symbolic database of three series over n samples,
// seeded so repeated calls with the same arguments are identical. Symbols
// are drawn from {Off, On} with per-series phase patterns so runs of many
// lengths straddle window boundaries.
func deltaTestDB(t *testing.T, seed int64, n int) *timeseries.SymbolicDB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mk := func(name string, period, width int) *timeseries.SymbolicSeries {
		syms := make([]int, n)
		for i := range syms {
			if i%period < width || rng.Intn(13) == 0 {
				syms[i] = 1
			}
		}
		return &timeseries.SymbolicSeries{
			Name: name, Start: 0, Step: 10,
			Alphabet: []string{"Off", "On"}, Symbols: syms,
		}
	}
	db, err := timeseries.NewSymbolicDB(mk("A", 7, 3), mk("B", 5, 2), mk("C", 11, 6))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// truncate returns the database restricted to its first n samples,
// sharing no symbol storage with the original.
func truncate(t *testing.T, db *timeseries.SymbolicDB, n int) *timeseries.SymbolicDB {
	t.Helper()
	series := make([]*timeseries.SymbolicSeries, len(db.Series))
	for i, s := range db.Series {
		series[i] = &timeseries.SymbolicSeries{
			Name: s.Name, Start: s.Start, Step: s.Step,
			Alphabet: append([]string(nil), s.Alphabet...),
			Symbols:  append([]int(nil), s.Symbols[:n]...),
		}
	}
	out, err := timeseries.NewSymbolicDB(series...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameDB compares two event databases sequence by sequence.
func sameDB(t *testing.T, got, want *DB) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("size %d, want %d", got.Size(), want.Size())
	}
	if got.Vocab.Size() != want.Vocab.Size() {
		t.Fatalf("vocab size %d, want %d", got.Vocab.Size(), want.Vocab.Size())
	}
	for i := 0; i < want.Vocab.Size(); i++ {
		if got.Vocab.Def(EventID(i)) != want.Vocab.Def(EventID(i)) {
			t.Fatalf("vocab def %d: %v, want %v", i, got.Vocab.Def(EventID(i)), want.Vocab.Def(EventID(i)))
		}
	}
	for i := range want.Sequences {
		if err := sameSequence(got.Sequences[i], want.Sequences[i]); err != nil {
			t.Fatalf("sequence %d: %v", i, err)
		}
	}
}

// convertDelta1 is the one-shard delta conversion — the form the
// prepared engine uses for shard width 1 — returning the single shard.
func convertDelta1(t *testing.T, src timeseries.SymbolSource, opt SplitOptions, prev *DB, prevEnd temporal.Time) (*DB, int) {
	t.Helper()
	var prevShards []*DB
	if prev != nil {
		prevShards = []*DB{prev}
	}
	got, stable, err := ConvertShardsDelta(src, opt, 1, prevShards, prevEnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d shards, want 1", len(got))
	}
	return got[0], stable
}

func TestConvertDeltaMatchesFullConversion(t *testing.T) {
	full := deltaTestDB(t, 1, 240)
	opt := SplitOptions{WindowLength: 200, Overlap: 100}
	for _, base := range []int{60, 120, 235} {
		baseDB := truncate(t, full, base)
		prev, err := Convert(baseDB, opt)
		if err != nil {
			t.Fatalf("base %d: %v", base, err)
		}
		want, err := Convert(full, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, stable := convertDelta1(t, full, opt, prev, baseDB.End())
		sameDB(t, got, want)
		if stable == 0 {
			t.Errorf("base %d: expected a non-empty stable prefix", base)
		}
		// Reused sequences must be shared by pointer (the memoization
		// contract) and re-cut ones must not be.
		for i := 0; i < stable; i++ {
			if got.Sequences[i] != prev.Sequences[i] {
				t.Fatalf("base %d: stable sequence %d was re-cut", base, i)
			}
		}
		for i := stable; i < prev.Size(); i++ {
			if got.Sequences[i] == prev.Sequences[i] {
				t.Fatalf("base %d: unstable sequence %d was reused", base, i)
			}
		}
	}
}

func TestConvertDeltaNilPrevIsFullConversion(t *testing.T) {
	db := deltaTestDB(t, 2, 120)
	opt := SplitOptions{WindowLength: 200, Overlap: 100}
	want, err := Convert(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, stable := convertDelta1(t, db, opt, nil, 0)
	if stable != 0 {
		t.Fatalf("stable = %d, want 0", stable)
	}
	sameDB(t, got, want)
}

func TestConvertShardsDeltaMatchesFullConversion(t *testing.T) {
	full := deltaTestDB(t, 3, 300)
	baseDB := truncate(t, full, 180)
	opt := SplitOptions{WindowLength: 200, Overlap: 100}
	for _, k := range []int{1, 2, 7} {
		prev, err := ConvertShards(baseDB, opt, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want, err := ConvertShards(full, opt, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got, stable, err := ConvertShardsDelta(full, opt, k, prev, baseDB.End())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(got) != k {
			t.Fatalf("k=%d: got %d shards", k, len(got))
		}
		if stable == 0 {
			t.Errorf("k=%d: expected a non-empty stable prefix", k)
		}
		for s := range want {
			sameDB(t, got[s], want[s])
		}
		// Window i lives in shard i%k at local position i/k; the stable
		// prefix must be shared by pointer across the shard set.
		for i := 0; i < stable; i++ {
			if got[i%k].Sequences[i/k] != prev[i%k].Sequences[i/k] {
				t.Fatalf("k=%d: stable window %d was re-cut", k, i)
			}
		}
	}
}

// A NumWindows geometry re-derives the window length from the grown
// observation span, which moves every window boundary: the delta path
// must fall back to a full conversion (stable 0) and still be exact.
func TestConvertDeltaNumWindowsFallsBack(t *testing.T) {
	full := deltaTestDB(t, 4, 240)
	baseDB := truncate(t, full, 160)
	opt := SplitOptions{NumWindows: 8, Overlap: 50}
	prev, err := Convert(baseDB, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Convert(full, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, stable := convertDelta1(t, full, opt, prev, baseDB.End())
	if stable != 0 {
		t.Fatalf("stable = %d, want 0 under NumWindows geometry", stable)
	}
	sameDB(t, got, want)
}

// A symbol first appearing in the appended samples of a non-last series
// would shift every later series' event ids; vocabExtends must detect the
// shift and the conversion must fall back to a full cut, staying exact.
func TestConvertDeltaVocabShiftFallsBack(t *testing.T) {
	full := deltaTestDB(t, 5, 240)
	baseDB := truncate(t, full, 180)
	// Introduce a brand-new symbol in the appended region of series A.
	a := full.Series[0]
	a.Alphabet = append(a.Alphabet, "Spike")
	for i := 200; i < 210; i++ {
		a.Symbols[i] = 2
	}
	opt := SplitOptions{WindowLength: 200, Overlap: 100}
	prev, err := Convert(baseDB, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Convert(full, opt)
	if err != nil {
		t.Fatal(err)
	}
	if vocabExtends(prev.Vocab, want.Vocab) {
		t.Fatal("test setup: expected a vocabulary shift")
	}
	got, stable := convertDelta1(t, full, opt, prev, baseDB.End())
	if stable != 0 {
		t.Fatalf("stable = %d, want 0 after a vocabulary shift", stable)
	}
	sameDB(t, got, want)
}

func TestConvertShardsDeltaRejectsMismatchedShardCount(t *testing.T) {
	db := deltaTestDB(t, 6, 120)
	opt := SplitOptions{WindowLength: 200, Overlap: 100}
	prev, err := ConvertShards(db, opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConvertShardsDelta(db, opt, 3, prev, db.End()); err == nil {
		t.Fatal("expected an error for mismatched shard counts")
	}
}

// Appending whole windows' worth of data and chaining deltas (append →
// delta-convert → append → delta-convert) must agree with one full
// conversion of the final database.
func TestConvertDeltaChained(t *testing.T) {
	full := deltaTestDB(t, 7, 400)
	opt := SplitOptions{WindowLength: 200, Overlap: 100}
	cur, err := Convert(truncate(t, full, 150), opt)
	if err != nil {
		t.Fatal(err)
	}
	prevEnd := temporal.Time(150 * 10)
	for _, n := range []int{230, 310, 400} {
		db := truncate(t, full, n)
		cur, _ = convertDelta1(t, db, opt, cur, prevEnd)
		prevEnd = db.End()
	}
	want, err := Convert(full, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameDB(t, cur, want)
}
