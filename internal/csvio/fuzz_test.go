package csvio

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"testing"

	"ftpm/internal/temporal"
	"ftpm/internal/timeseries"
)

// The reference readers: encoding/csv's ReadAll, then row-by-row
// field-count and timestamp checks, the grid, and one column at a time.
// The record scanner must agree with them on every body.

func refReadWide(r io.Reader) (rows [][]string, names []string, times []temporal.Time, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	all, err := cr.ReadAll()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("csvio: %w", err)
	}
	if len(all) < 2 {
		return nil, nil, nil, fmt.Errorf("csvio: need a header and at least one data row")
	}
	header := all[0]
	if len(header) < 2 || header[0] != "time" {
		return nil, nil, nil, fmt.Errorf("csvio: header must start with \"time\" and name at least one series")
	}
	names = header[1:]
	for i, row := range all[1:] {
		if len(row) != len(header) {
			return nil, nil, nil, fmt.Errorf("csvio: row %d has %d fields, want %d", i+2, len(row), len(header))
		}
		t, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("csvio: row %d timestamp: %v", i+2, err)
		}
		times = append(times, t)
		rows = append(rows, row[1:])
	}
	return rows, names, times, nil
}

func refReadNumeric(r io.Reader) ([]*timeseries.Series, error) {
	rows, names, times, err := refReadWide(r)
	if err != nil {
		return nil, err
	}
	start, step, err := inferGrid(times)
	if err != nil {
		return nil, err
	}
	out := make([]*timeseries.Series, len(names))
	for j, name := range names {
		values := make([]float64, len(rows))
		for i, row := range rows {
			v, err := strconv.ParseFloat(row[j], 64)
			if err != nil {
				return nil, fmt.Errorf("csvio: row %d column %q: %v", i+2, name, err)
			}
			values[i] = v
		}
		if out[j], err = timeseries.NewSeries(name, start, step, values); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func refReadSymbolic(r io.Reader) (*timeseries.SymbolicDB, error) {
	rows, names, times, err := refReadWide(r)
	if err != nil {
		return nil, err
	}
	start, step, err := inferGrid(times)
	if err != nil {
		return nil, err
	}
	series := make([]*timeseries.SymbolicSeries, len(names))
	for j, name := range names {
		var alphabet []string
		index := make(map[string]int)
		syms := make([]int, len(rows))
		for i, row := range rows {
			id, ok := index[row[j]]
			if !ok {
				id = len(alphabet)
				alphabet = append(alphabet, row[j])
				index[row[j]] = id
			}
			syms[i] = id
		}
		series[j] = &timeseries.SymbolicSeries{
			Name: name, Start: start, Step: step, Alphabet: alphabet, Symbols: syms,
		}
	}
	return timeseries.NewSymbolicDB(series...)
}

// sameErr reports whether two errors are both nil or carry the same
// message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func checkNumeric(t *testing.T, body []byte, chunks int) {
	t.Helper()
	want, wantErr := refReadNumeric(bytes.NewReader(body))
	got, err := ReadNumericChunked(bytes.NewReader(body), chunks)
	if !sameErr(err, wantErr) {
		t.Fatalf("numeric chunks=%d: error %v, want %v", chunks, err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("numeric chunks=%d: %d series, want %d", chunks, len(got), len(want))
	}
	for j, w := range want {
		g := got[j]
		if g.Name != w.Name || g.Start != w.Start || g.Step != w.Step || g.Len() != w.Len() {
			t.Fatalf("numeric chunks=%d: series %d is %q %d/%d/%d, want %q %d/%d/%d", chunks, j,
				g.Name, g.Start, g.Step, g.Len(), w.Name, w.Start, w.Step, w.Len())
		}
		for i, v := range w.Values {
			if math.Float64bits(g.Values[i]) != math.Float64bits(v) {
				t.Fatalf("numeric chunks=%d: %s[%d] = %v (%#x), want %v (%#x)", chunks, w.Name, i,
					g.Values[i], math.Float64bits(g.Values[i]), v, math.Float64bits(v))
			}
		}
	}
}

func checkSymbolic(t *testing.T, body []byte, chunks int) {
	t.Helper()
	want, wantErr := refReadSymbolic(bytes.NewReader(body))
	got, err := ReadSymbolicChunked(bytes.NewReader(body), chunks)
	if !sameErr(err, wantErr) {
		t.Fatalf("symbolic chunks=%d: error %v, want %v", chunks, err, wantErr)
	}
	if want == nil {
		return
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("symbolic chunks=%d: %d series, want %d", chunks, len(got.Series), len(want.Series))
	}
	for j, w := range want.Series {
		g := got.Series[j]
		if g.Name != w.Name || g.Start != w.Start || g.Step != w.Step || g.Len() != w.Len() {
			t.Fatalf("symbolic chunks=%d: series %d is %q %d/%d/%d, want %q %d/%d/%d", chunks, j,
				g.Name, g.Start, g.Step, g.Len(), w.Name, w.Start, w.Step, w.Len())
		}
		if !slices.Equal(g.Alphabet, w.Alphabet) {
			t.Fatalf("symbolic chunks=%d: %s alphabet %q, want %q", chunks, w.Name, g.Alphabet, w.Alphabet)
		}
		for i, s := range w.Symbols {
			if g.Symbols[i] != s {
				t.Fatalf("symbolic chunks=%d: %s[%d] = %d, want %d", chunks, w.Name, i, g.Symbols[i], s)
			}
		}
	}
}

// FuzzReadWide checks the record scanner against the encoding/csv
// reference on both layouts, serial and in three row blocks: the same
// series, grid and bit-identical values or symbols, or the same error,
// and never a panic. The seed corpus is in testdata/fuzz/FuzzReadWide.
func FuzzReadWide(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, chunks := range []int{1, 3} {
			checkNumeric(t, body, chunks)
			checkSymbolic(t, body, chunks)
		}
	})
}
