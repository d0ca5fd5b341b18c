package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ftpm/internal/temporal"
	"ftpm/internal/timeseries"
)

// randomSDB builds a SymbolicDB with the given shape from a seeded
// generator: run lengths are geometric-ish so both long constant
// stretches and single-sample flips appear.
func randomSDB(t testing.TB, seed int64, nSeries, nSamples int, start temporal.Time, step temporal.Duration) *timeseries.SymbolicDB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	series := make([]*timeseries.SymbolicSeries, nSeries)
	for s := 0; s < nSeries; s++ {
		alpha := []string{"Low", "Mid", "High"}[:2+rng.Intn(2)]
		syms := make([]int, nSamples)
		i := 0
		for i < nSamples {
			sym := rng.Intn(len(alpha))
			runLen := 1 + rng.Intn(1+rng.Intn(16)*4)
			for j := 0; j < runLen && i < nSamples; j++ {
				syms[i] = sym
				i++
			}
		}
		series[s] = &timeseries.SymbolicSeries{
			Name: string(rune('A' + s)), Start: start, Step: step,
			Alphabet: alpha, Symbols: syms,
		}
	}
	db, err := timeseries.NewSymbolicDB(series...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// sameSource asserts two SymbolSources are observably identical: every
// metadata accessor and every decoded run list.
func sameSource(t *testing.T, want, got timeseries.SymbolSource) {
	t.Helper()
	if got.NumSeries() != want.NumSeries() || got.Len() != want.Len() ||
		got.Start() != want.Start() || got.Step() != want.Step() || got.End() != want.End() {
		t.Fatalf("shape mismatch: got (%d series, %d samples, %d..%d step %d), want (%d, %d, %d..%d step %d)",
			got.NumSeries(), got.Len(), got.Start(), got.End(), got.Step(),
			want.NumSeries(), want.Len(), want.Start(), want.End(), want.Step())
	}
	for i := 0; i < want.NumSeries(); i++ {
		if got.SeriesName(i) != want.SeriesName(i) {
			t.Fatalf("series %d name = %q, want %q", i, got.SeriesName(i), want.SeriesName(i))
		}
		if !reflect.DeepEqual(got.SeriesAlphabet(i), want.SeriesAlphabet(i)) {
			t.Fatalf("series %d alphabet = %v, want %v", i, got.SeriesAlphabet(i), want.SeriesAlphabet(i))
		}
		wr := want.AppendRuns(i, nil)
		gr := got.AppendRuns(i, nil)
		if !reflect.DeepEqual(gr, wr) {
			t.Fatalf("series %d runs differ:\n got %v\nwant %v", i, gr, wr)
		}
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(0); seed < 8; seed++ {
		db := randomSDB(t, seed, 1+int(seed)%4, 50+int(seed)*37, temporal.Time(seed*10-30), temporal.Duration(1+seed))
		path := filepath.Join(dir, "rt.seg")
		fp := "fp-seed"
		size, err := WriteSegment(path, db, fp)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seg, err := OpenSegment(path)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seg.Size() != size {
			t.Fatalf("seed %d: Size = %d, WriteSegment returned %d", seed, seg.Size(), size)
		}
		if st, err := os.Stat(path); err != nil || st.Size() != size {
			t.Fatalf("seed %d: on-disk size %v/%v, want %d", seed, st, err, size)
		}
		if seg.Fingerprint() != fp {
			t.Fatalf("seed %d: fingerprint = %q, want %q", seed, seg.Fingerprint(), fp)
		}
		sameSource(t, db, seg)
		if err := seg.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
	}
}

// splitRunSource wraps a source and reports every run split in two where
// possible — the shape a chained view's seam produces. WriteSegment must
// re-merge these, so the sealed column is canonical maximal runs.
type splitRunSource struct {
	timeseries.SymbolSource
}

func (s splitRunSource) AppendRuns(i int, dst []timeseries.Run) []timeseries.Run {
	for _, r := range s.SymbolSource.AppendRuns(i, nil) {
		if r.Last > r.First {
			mid := (r.First + r.Last) / 2
			dst = append(dst, timeseries.Run{Symbol: r.Symbol, First: r.First, Last: mid},
				timeseries.Run{Symbol: r.Symbol, First: mid + 1, Last: r.Last})
		} else {
			dst = append(dst, r)
		}
	}
	return dst
}

func TestSegmentMergesAdjacentEqualRuns(t *testing.T) {
	db := randomSDB(t, 42, 3, 200, 0, 5)
	dir := t.TempDir()
	merged := filepath.Join(dir, "merged.seg")
	plain := filepath.Join(dir, "plain.seg")
	if _, err := WriteSegment(merged, splitRunSource{db}, "fp"); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSegment(plain, db, "fp"); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("segment from split-run source differs from canonical segment (%d vs %d bytes)", len(a), len(b))
	}
	seg, err := OpenSegment(merged)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	sameSource(t, db, seg)
}

// TestSegmentTornTailRejected cuts a sealed segment at every length and
// checks Open never serves the remains: the trailer (and with it the
// footer CRC) is the last thing written, so any truncation loses it.
func TestSegmentTornTailRejected(t *testing.T) {
	db := randomSDB(t, 7, 2, 64, 0, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.seg")
	if _, err := WriteSegment(path, db, "fp"); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "cut.seg")
	for cut := 0; cut < len(whole); cut++ {
		if err := os.WriteFile(torn, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if seg, err := OpenSegment(torn); err == nil {
			seg.Close()
			t.Fatalf("segment truncated to %d of %d bytes opened cleanly", cut, len(whole))
		}
	}
}

// TestSegmentFooterBitFlipRejected damages every byte of the
// CRC-protected footer and the trailer in turn; each flip must fail Open
// (footer bytes break the CRC, trailer bytes break the length, the
// stored CRC, or the end magic).
func TestSegmentFooterBitFlipRejected(t *testing.T) {
	db := randomSDB(t, 11, 2, 96, 0, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "flip.seg")
	if _, err := WriteSegment(path, db, "fingerprint-under-crc"); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footerLen := int(uint32(whole[len(whole)-16]) | uint32(whole[len(whole)-15])<<8 |
		uint32(whole[len(whole)-14])<<16 | uint32(whole[len(whole)-13])<<24)
	damaged := filepath.Join(dir, "dmg.seg")
	for off := len(whole) - 16 - footerLen; off < len(whole); off++ {
		img := append([]byte(nil), whole...)
		img[off] ^= 0x40
		if err := os.WriteFile(damaged, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if seg, err := OpenSegment(damaged); err == nil {
			seg.Close()
			t.Fatalf("byte flip at offset %d (footer starts at %d) opened cleanly", off, len(whole)-16-footerLen)
		}
	}
}

// TestStreamingSnapshotRetainsConcurrentAppends drives the chunked
// snapshot path: appends land both before BeginSnapshot (covered by the
// captured LSN) and between chunks (retained), and the committed
// snapshot is the chunk concatenation.
func TestStreamingSnapshotRetainsConcurrentAppends(t *testing.T) {
	l, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append(1, []byte{'a', byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	w, err := l.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, []byte("mid-1")); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk([]byte("chunk-one|")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, []byte("mid-2")); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk([]byte("chunk-two")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// The WAL was rewritten down to the two post-capture appends.
	if l.WALRecords() != 2 {
		t.Fatalf("wal records after streamed snapshot = %d, want 2", l.WALRecords())
	}
	if err := l.Append(3, []byte("after")); err != nil {
		t.Fatal(err)
	}

	l, rec := reopen(t, l)
	defer l.Close()
	if string(rec.Snapshot) != "chunk-one|chunk-two" {
		t.Fatalf("snapshot = %q, want the chunk concatenation", rec.Snapshot)
	}
	if rec.SnapshotLSN != 4 {
		t.Fatalf("snapshot lsn = %d, want 4 (the capture point)", rec.SnapshotLSN)
	}
	if len(rec.Records) != 3 {
		t.Fatalf("replayed records = %+v, want the 2 mid-snapshot appends + 1 after", rec.Records)
	}
	for i, want := range []string{"mid-1", "mid-2", "after"} {
		if string(rec.Records[i].Data) != want || rec.Records[i].LSN != uint64(5+i) {
			t.Fatalf("record %d = %+v, want %q at lsn %d", i, rec.Records[i], want, 5+i)
		}
	}
}

// TestSnapshotAbortLeavesLogIntact aborts a streamed snapshot mid-way;
// nothing observable may change.
func TestSnapshotAbortLeavesLogIntact(t *testing.T) {
	l, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	w, err := l.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	w.Abort()

	l, rec := reopen(t, l)
	defer l.Close()
	if rec.Snapshot != nil {
		t.Fatalf("aborted snapshot surfaced: %q", rec.Snapshot)
	}
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "keep" {
		t.Fatalf("records = %+v", rec.Records)
	}
}
