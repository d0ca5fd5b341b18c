package csvio

import (
	"bytes"
	"fmt"
	"testing"

	"ftpm/internal/datagen"
	"ftpm/internal/timeseries"
)

// wideBody is a cold A-HTPGM upload's numeric body: two NIST-profile
// replicas side by side (144 series, 3504 rows), On written as 0.9 and
// Off as 0.
func wideBody(tb testing.TB) []byte {
	tb.Helper()
	var series []*timeseries.Series
	for r := 0; r < 2; r++ {
		db, err := datagen.NIST().Generate(datagen.Options{SequenceFraction: 0.05, SeedOffset: int64(r)})
		if err != nil {
			tb.Fatal(err)
		}
		for _, s := range db.Series {
			values := make([]float64, s.Len())
			for i := range values {
				if s.SymbolAt(i) == "On" {
					values[i] = 0.9
				}
			}
			series = append(series, &timeseries.Series{
				Name: fmt.Sprintf("R%d_%s", r, s.Name), Start: s.Start, Step: s.Step, Values: values,
			})
		}
	}
	var buf bytes.Buffer
	if err := WriteNumeric(&buf, series); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadNumeric parses the wide upload serially and in two row
// blocks.
func BenchmarkReadNumeric(b *testing.B) {
	body := wideBody(b)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadNumericChunked(bytes.NewReader(body), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReadNumericAllocs pins that parsing allocates per column, not per
// field: the wide upload's 500k fields cost a few hundred allocations.
func TestReadNumericAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the wide upload")
	}
	body := wideBody(t)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := ReadNumericChunked(bytes.NewReader(body), 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 737 {
		t.Errorf("ReadNumericChunked allocated %.0f times, want at most 737", allocs)
	}
}
