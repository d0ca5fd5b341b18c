// Package csvio loads and stores time series as CSV, the interchange
// format of the command-line tools. Two layouts are supported:
//
// Numeric ("wide") layout — first column is the timestamp in ticks, one
// column per series:
//
//	time,Kitchen,Toaster
//	0,0.85,0.02
//	300,0.91,0.75
//
// Symbolic layout — same shape with symbol names as values:
//
//	time,Kitchen,Toaster
//	0,On,Off
//	300,On,On
//
// Readers take the whole body, split it into records with one newline
// scan, and parse the records in contiguous row blocks on up to the
// requested number of goroutines — fields straight from the body's
// bytes, with no string per field. A body containing a quote is split by
// encoding/csv instead, the one splitter here that implements quoting.
package csvio

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ftpm/internal/par"
	"ftpm/internal/temporal"
	"ftpm/internal/timeseries"
)

// WriteNumeric writes aligned numeric series in the wide layout. All
// series must share start, step and length.
func WriteNumeric(w io.Writer, series []*timeseries.Series) error {
	if len(series) == 0 {
		return fmt.Errorf("csvio: nothing to write")
	}
	first := series[0]
	for _, s := range series {
		if s.Start != first.Start || s.Step != first.Step || s.Len() != first.Len() {
			return fmt.Errorf("csvio: series %q not aligned with %q", s.Name, first.Name)
		}
	}
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(series)+1)
	header = append(header, "time")
	for _, s := range series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(series)+1)
	for i := 0; i < first.Len(); i++ {
		row[0] = strconv.FormatInt(first.TimeAt(i), 10)
		for j, s := range series {
			row[j+1] = strconv.FormatFloat(s.Values[i], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadNumeric parses the wide numeric layout. Timestamps must be evenly
// spaced and ascending.
func ReadNumeric(r io.Reader) ([]*timeseries.Series, error) {
	return ReadNumericChunked(r, 1)
}

// ReadNumericChunked parses the wide numeric layout in up to chunks
// contiguous row blocks, one goroutine each. Only the split of the body
// into records is serial (a newline scan); every timestamp and value is
// parsed inside its block, straight into one float64 array whose
// per-column slices are the returned series' Values. Output and errors
// are identical to a row-by-row parse: the first bad row's field-count
// or timestamp error wins, then the grid error, then the error of the
// lowest-indexed failing column at its first bad row.
func ReadNumericChunked(r io.Reader, chunks int) ([]*timeseries.Series, error) {
	w, err := split(r)
	if err != nil {
		return nil, err
	}
	n, cols := w.rows(), len(w.names)
	nb := blockCount(n, chunks)
	times := make([]temporal.Time, n)
	values := make([]float64, n*cols)
	rowErrs := make([]error, nb)
	colErrs := make([][]error, nb) // per block: first bad value per column
	forBlocks(n, nb, func(b, lo, hi int) {
		var buf [][]byte
		for i := lo; i < hi; i++ {
			var err error
			if buf, times[i], err = w.record(i, buf); err != nil {
				rowErrs[b] = err
				return
			}
			for j, f := range buf[1:] {
				v, err := parseFloat(f)
				if err == nil {
					values[j*n+i] = v
					continue
				}
				if colErrs[b] == nil {
					colErrs[b] = make([]error, cols)
				}
				if colErrs[b][j] == nil {
					colErrs[b][j] = fmt.Errorf("csvio: row %d column %q: %v", i+2, w.names[j], err)
				}
			}
		}
	})
	start, step, err := grid(times, rowErrs)
	if err != nil {
		return nil, err
	}
	out := make([]*timeseries.Series, cols)
	for j, name := range w.names {
		for _, errs := range colErrs {
			if errs != nil && errs[j] != nil {
				return nil, errs[j]
			}
		}
		if out[j], err = timeseries.NewSeries(name, start, step, values[j*n:(j+1)*n:(j+1)*n]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteSymbolic writes an aligned symbolic database in the wide layout.
func WriteSymbolic(w io.Writer, db *timeseries.SymbolicDB) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(db.Series)+1)
	header = append(header, "time")
	for _, s := range db.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(db.Series)+1)
	for i := 0; i < db.Len(); i++ {
		row[0] = strconv.FormatInt(db.Series[0].TimeAt(i), 10)
		for j, s := range db.Series {
			row[j+1] = s.SymbolAt(i)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadSymbolic parses the wide symbolic layout; each column's alphabet is
// the set of distinct symbols observed, in first-appearance order.
func ReadSymbolic(r io.Reader) (*timeseries.SymbolicDB, error) {
	return ReadSymbolicChunked(r, 1)
}

// ReadSymbolicChunked parses the wide symbolic layout in up to chunks
// contiguous row blocks, one goroutine each, like ReadNumericChunked.
// Each block numbers its symbols per column in first-appearance order;
// appending the blocks' alphabets in block order keeps that order for the
// whole column, so only the later blocks' symbols are renumbered. Output
// and errors are identical to ReadSymbolic.
func ReadSymbolicChunked(r io.Reader, chunks int) (*timeseries.SymbolicDB, error) {
	w, err := split(r)
	if err != nil {
		return nil, err
	}
	n, cols := w.rows(), len(w.names)
	nb := blockCount(n, chunks)
	times := make([]temporal.Time, n)
	syms := make([]int, n*cols)
	rowErrs := make([]error, nb)
	interners := make([][]interner, nb) // per block, per column
	forBlocks(n, nb, func(b, lo, hi int) {
		in := make([]interner, cols)
		interners[b] = in
		var buf [][]byte
		for i := lo; i < hi; i++ {
			var err error
			if buf, times[i], err = w.record(i, buf); err != nil {
				rowErrs[b] = err
				return
			}
			for j, f := range buf[1:] {
				syms[j*n+i] = in[j].id(f)
			}
		}
	})
	start, step, err := grid(times, rowErrs)
	if err != nil {
		return nil, err
	}
	series := make([]*timeseries.SymbolicSeries, cols)
	par.For(cols, nb, func(j int) {
		col := syms[j*n : (j+1)*n : (j+1)*n]
		in := &interners[0][j]
		for b := 1; b < nb; b++ {
			local := interners[b][j].alphabet
			remap := make([]int, len(local))
			for k, s := range local {
				id, ok := in.index[s]
				if !ok {
					id = in.add(s)
				}
				remap[k] = id
			}
			for i := b * n / nb; i < (b+1)*n/nb; i++ {
				col[i] = remap[col[i]]
			}
		}
		series[j] = &timeseries.SymbolicSeries{
			Name: w.names[j], Start: start, Step: step, Alphabet: in.alphabet, Symbols: col,
		}
	})
	return timeseries.NewSymbolicDB(series...)
}

// interner numbers the distinct symbols of one column in first-appearance
// order.
type interner struct {
	alphabet []string
	index    map[string]int
}

// id returns the number of symbol b, adding it if new. A known symbol is
// looked up without converting b to a string.
func (in *interner) id(b []byte) int {
	if id, ok := in.index[string(b)]; ok {
		return id
	}
	return in.add(string(b))
}

func (in *interner) add(s string) int {
	if in.index == nil {
		in.index = make(map[string]int)
	}
	id := len(in.alphabet)
	in.index[s] = id
	in.alphabet = append(in.alphabet, s)
	return id
}

// wide is a wide-layout body split into records: the series names of the
// header and the data records after it.
type wide struct {
	names []string
	// lines holds the data records of a body without quotes, each one
	// line with its fields still comma-separated. A body with quotes is
	// split by encoding/csv instead: its data records' fields, unquoted,
	// are laid end to end in text, field k ending at cuts[k], and record
	// i is fields [ends[i-1], ends[i]) (ends[-1] = 0).
	lines [][]byte
	text  []byte
	cuts  []int
	ends  []int
}

// split reads the whole body and splits it into records the way
// encoding/csv counts them: empty lines are skipped, and one \r before a
// line's end is dropped. Only encoding/csv implements quoting, so a body
// containing a quote is split by it instead (csv.Writer quotes names and
// symbols with commas, quotes or leading spaces).
func split(r io.Reader) (*wide, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		// %w keeps the reader's error chain intact (the HTTP server matches
		// http.MaxBytesError through it to answer 413).
		return nil, fmt.Errorf("csvio: %w", err)
	}
	w := &wide{}
	var header []string
	if bytes.IndexByte(data, '"') >= 0 {
		if header, err = w.splitQuoted(data); err != nil {
			return nil, err
		}
	} else if lines := splitLines(data); len(lines) > 0 {
		header, w.lines = strings.Split(string(lines[0]), ","), lines[1:]
	}
	if w.rows() == 0 {
		return nil, fmt.Errorf("csvio: need a header and at least one data row")
	}
	if len(header) < 2 || header[0] != "time" {
		return nil, fmt.Errorf("csvio: header must start with \"time\" and name at least one series")
	}
	w.names = header[1:]
	return w, nil
}

// splitQuoted splits a body with quotes by encoding/csv, returning its
// header and keeping its data records in w.text, w.cuts and w.ends. The
// fields are copied into one buffer rather than kept as strings, so
// parsing them needs no allocation per field.
func (w *wide) splitQuoted(data []byte) ([]string, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err == io.EOF {
		return nil, nil
	} else if err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	cr.ReuseRecord = true
	w.text = make([]byte, 0, len(data))
	w.cuts = make([]int, 0, bytes.Count(data, []byte{','})+bytes.Count(data, []byte{'\n'})+1)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("csvio: %w", err)
		}
		for _, f := range rec {
			w.text = append(w.text, f...)
			w.cuts = append(w.cuts, len(w.text))
		}
		w.ends = append(w.ends, len(w.cuts))
	}
	return header, nil
}

// splitLines cuts data into its non-empty lines without their
// terminators: a \n and one \r before it, or one \r ending the data.
func splitLines(data []byte) [][]byte {
	lines := make([][]byte, 0, bytes.Count(data, []byte{'\n'})+1)
	for len(data) > 0 {
		line := data
		if k := bytes.IndexByte(data, '\n'); k >= 0 {
			line, data = data[:k], data[k+1:]
		} else {
			data = nil
		}
		if k := len(line) - 1; k >= 0 && line[k] == '\r' {
			line = line[:k]
		}
		if len(line) > 0 {
			lines = append(lines, line)
		}
	}
	return lines
}

// rows returns the number of data records.
func (w *wide) rows() int { return len(w.lines) + len(w.ends) }

// record splits data record i into buf, reusing its capacity, and parses
// its timestamp, buf[0]; the series fields are buf[1:]. A record with the
// wrong field count fails before its timestamp is looked at. Errors
// number rows by record, the header being row 1.
func (w *wide) record(i int, buf [][]byte) ([][]byte, temporal.Time, error) {
	buf = buf[:0]
	if w.ends != nil {
		k, from := 0, 0
		if i > 0 {
			k = w.ends[i-1]
			from = w.cuts[k-1]
		}
		for ; k < w.ends[i]; k++ {
			buf = append(buf, w.text[from:w.cuts[k]])
			from = w.cuts[k]
		}
	} else {
		line := w.lines[i]
		for {
			k := bytes.IndexByte(line, ',')
			if k < 0 {
				buf = append(buf, line)
				break
			}
			buf = append(buf, line[:k])
			line = line[k+1:]
		}
	}
	if len(buf) != len(w.names)+1 {
		return buf, 0, fmt.Errorf("csvio: row %d has %d fields, want %d", i+2, len(buf), len(w.names)+1)
	}
	t, err := strconv.ParseInt(string(buf[0]), 10, 64)
	if err != nil {
		return buf, 0, fmt.Errorf("csvio: row %d timestamp: %v", i+2, err)
	}
	return buf, t, nil
}

// blockCount is the number of row blocks n records are parsed in on up to
// chunks goroutines.
func blockCount(n, chunks int) int { return max(1, min(n, chunks)) }

// forBlocks cuts n records into nb contiguous blocks and runs fn(b, lo,
// hi) for block b = [lo, hi) of each, one goroutine per block.
func forBlocks(n, nb int, fn func(b, lo, hi int)) {
	par.For(nb, nb, func(b int) { fn(b, b*n/nb, (b+1)*n/nb) })
}

// grid returns the first record error of the blocks, in block order, or
// else the sampling grid of times.
func grid(times []temporal.Time, rowErrs []error) (temporal.Time, temporal.Duration, error) {
	for _, err := range rowErrs {
		if err != nil {
			return 0, 0, err
		}
	}
	return inferGrid(times)
}

// pow10 holds the powers of ten a plain decimal's fraction can need.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseFloat is strconv.ParseFloat(string(b), 64), bit for bit. A plain
// decimal ([-+]?d+(.d*)? with at most 15 digits) is m/10^k with m and
// 10^k both exact in a float64, so one IEEE division rounds it correctly
// — strconv's own first path. Everything else goes through strconv.
func parseFloat(b []byte) (float64, error) {
	d, neg := b, false
	if len(d) > 0 && (d[0] == '-' || d[0] == '+') {
		d, neg = d[1:], d[0] == '-'
	}
	var m uint64
	digits, frac, dot := 0, 0, false
	for i, c := range d {
		switch {
		case c >= '0' && c <= '9':
			m = m*10 + uint64(c-'0')
			digits++
			if dot {
				frac++
			}
		case c == '.' && !dot && i > 0:
			dot = true
		default:
			return strconv.ParseFloat(string(b), 64)
		}
	}
	if digits == 0 || digits > 15 {
		return strconv.ParseFloat(string(b), 64)
	}
	f := float64(m)
	if neg {
		f = -f
	}
	return f / pow10[frac], nil
}

// inferGrid validates even ascending spacing and returns (start, step).
func inferGrid(times []temporal.Time) (temporal.Time, temporal.Duration, error) {
	if len(times) == 0 {
		return 0, 0, fmt.Errorf("csvio: no samples")
	}
	if len(times) == 1 {
		return times[0], 1, nil
	}
	step := times[1] - times[0]
	if step <= 0 {
		return 0, 0, fmt.Errorf("csvio: timestamps must be strictly ascending")
	}
	for i := 2; i < len(times); i++ {
		if times[i]-times[i-1] != step {
			return 0, 0, fmt.Errorf("csvio: uneven sampling at row %d (%d vs step %d)", i+2, times[i]-times[i-1], step)
		}
	}
	return times[0], step, nil
}
