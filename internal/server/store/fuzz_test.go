package store

import (
	"testing"

	"ftpm/internal/temporal"
)

// FuzzParseSegment feeds arbitrary bytes to ParseSegment, the parser
// every segment image goes through before it is served — read back from
// disk by a durable server, encoded in the heap by a non-durable one.
// The parser may reject any input but must never panic, and an accepted
// image must be safe to mine: every series' runs tile exactly Len()
// samples with every symbol inside the series' alphabet. The checked-in
// corpus under testdata/fuzz/FuzzParseSegment holds EncodeSegment
// outputs, truncated and bit-flipped copies of them, and hand-built
// images with a valid footer CRC whose sample or run count overflows int.
func FuzzParseSegment(f *testing.F) {
	img, err := EncodeSegment(randomSDB(f, 1, 3, 40, temporal.Time(-20), 5), "fp")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)

	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := ParseSegment(data)
		if err != nil {
			return // rejection is fine; panicking is the bug class under test
		}
		if seg.Len() < 0 {
			t.Fatalf("accepted a negative sample count %d", seg.Len())
		}
		for i := 0; i < seg.NumSeries(); i++ {
			alpha := len(seg.SeriesAlphabet(i))
			next := 0
			for _, r := range seg.AppendRuns(i, nil) {
				if r.First != next || r.Last < r.First {
					t.Fatalf("series %d: run %+v does not continue at sample %d", i, r, next)
				}
				if r.Symbol < 0 || r.Symbol >= alpha {
					t.Fatalf("series %d: symbol %d outside an alphabet of %d", i, r.Symbol, alpha)
				}
				next = r.Last + 1
			}
			if next != seg.Len() {
				t.Fatalf("series %d: runs cover %d of %d samples", i, next, seg.Len())
			}
		}
	})
}
