package server

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"unicode/utf8"

	"ftpm"
)

// Incremental dataset appends: POST /datasets/{id}/append accepts NDJSON
// rows (the default) or CSV chunks and extends the dataset in place —
// symbolizing incrementally against the existing per-series alphabets
// (new symbols extend an alphabet, never renumber it), validating that
// the rows continue the dataset's sampling grid exactly, and swapping the
// dataset to a new content generation. The previous generation stays
// intact for jobs mid-mine; the new one advances the cached Prepared
// handles incrementally, so the next mine re-cuts and re-verifies only
// the window suffix the appended samples touched.

// appendParser accumulates the parsed rows of one append body against a
// fixed schema: the dataset's series (in order), their current alphabets,
// the expected next grid timestamp, and the numeric mapping threshold.
type appendParser struct {
	names []string
	index map[string]int // series name -> column
	// alphabets / alphaIdx track each series' alphabet as rows extend it:
	// the slice starts as the live generation's (shared) and is copied on
	// first extension, so the old generation never observes growth.
	alphabets [][]string
	alphaIdx  []map[string]int
	onoff     ftpm.Symbolizer
	onoffSyms []string // onoff's alphabet, fetched once

	start ftpm.Time // first expected timestamp (the dataset's End)
	step  ftpm.Duration

	cols [][]int // appended symbol ids, one column per series
	rows int
}

// newAppendParser builds the parser schema from the content view of the
// generation the append applies to: its names, alphabets and grid.
func newAppendParser(src ftpm.SymbolSource, threshold float64) *appendParser {
	n := src.NumSeries()
	onoff := ftpm.OnOff(threshold)
	p := &appendParser{
		names:     make([]string, n),
		index:     make(map[string]int, n),
		alphabets: make([][]string, n),
		alphaIdx:  make([]map[string]int, n),
		onoff:     onoff,
		onoffSyms: onoff.Alphabet(),
		start:     src.End(),
		step:      src.Step(),
		cols:      make([][]int, n),
	}
	for i := 0; i < n; i++ {
		name := src.SeriesName(i)
		alpha := src.SeriesAlphabet(i)
		p.names[i] = name
		p.index[name] = i
		p.alphabets[i] = alpha
		idx := make(map[string]int, len(alpha))
		for j, a := range alpha {
			idx[a] = j
		}
		p.alphaIdx[i] = idx
	}
	return p
}

// intern resolves a symbol name for series col to its id, extending the
// series alphabet (copy-on-first-extension) when the name is new.
func (p *appendParser) intern(col int, name string) int {
	if id, ok := p.alphaIdx[col][name]; ok {
		return id
	}
	a := p.alphabets[col]
	p.alphabets[col] = append(a[:len(a):len(a)], name)
	id := len(a)
	p.alphaIdx[col][name] = id
	return id
}

// checkTime validates that a row's timestamp continues the grid exactly:
// row i of the append must be stamped start + i*step. Duplicates land
// below the expectation and gaps above it; both are row-numbered 400s.
func (p *appendParser) checkTime(t int64) error {
	want := int64(p.start) + int64(p.rows)*int64(p.step)
	if t == want {
		return nil
	}
	if t < want {
		return fmt.Errorf("row %d: time %d duplicates or precedes the expected grid point %d", p.rows+1, t, want)
	}
	return fmt.Errorf("row %d: time %d leaves a gap before the expected grid point %d", p.rows+1, t, want)
}

// number maps a numeric cell of series col to a symbol id through the
// dataset's On/Off threshold mapper; symbolic cells are interned by name.
func (p *appendParser) number(col int, v float64) int {
	return p.intern(col, p.onoffSyms[p.onoff.Symbolize(v)])
}

// parseCSV consumes a wide CSV chunk: header "time,<series...>" naming
// every series in the dataset's exact order, then one row per grid
// point. Cells parse as numbers first (threshold-symbolized) and as
// symbol names otherwise, which must be valid UTF-8.
func (p *appendParser) parseCSV(body io.Reader) error {
	r := csv.NewReader(body)
	r.FieldsPerRecord = len(p.names) + 1 // uniform arity, header included
	header, err := r.Read()
	if err == io.EOF {
		return fmt.Errorf("missing header")
	} else if err != nil {
		return fmt.Errorf("header: %w", err)
	}
	if header[0] != "time" {
		return fmt.Errorf(`header must start with "time", got %q`, header[0])
	}
	for i, name := range p.names {
		if header[i+1] != name {
			return fmt.Errorf("header column %d is %q, want series %q", i+1, header[i+1], name)
		}
	}
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("row %d: %w", p.rows+1, err)
		}
		t, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return fmt.Errorf("row %d: bad time %q", p.rows+1, rec[0])
		}
		if err := p.checkTime(t); err != nil {
			return err
		}
		for col, cell := range rec[1:] {
			if cell == "" {
				return fmt.Errorf("row %d: empty cell for series %q", p.rows+1, p.names[col])
			}
			if num, err := strconv.ParseFloat(cell, 64); err == nil {
				p.cols[col] = append(p.cols[col], p.number(col, num))
				continue
			}
			if !utf8.ValidString(cell) {
				return fmt.Errorf("row %d: series %q: symbol %q is not valid UTF-8", p.rows+1, p.names[col], cell)
			}
			p.cols[col] = append(p.cols[col], p.intern(col, cell))
		}
		p.rows++
	}
}

// deltaDB builds a symbolic database of only the appended samples — the
// payload an append seals into its delta segment. Its
// grid starts where the base generation ends, and each series carries the
// full post-append alphabet, so chaining it after the base view yields
// exactly the extended dataset.
func (p *appendParser) deltaDB() (*ftpm.SymbolicDB, error) {
	series := make([]*ftpm.SymbolicSeries, len(p.names))
	for i, name := range p.names {
		series[i] = &ftpm.SymbolicSeries{
			Name:     name,
			Start:    p.start,
			Step:     p.step,
			Alphabet: p.alphabets[i],
			Symbols:  p.cols[i],
		}
	}
	return ftpm.NewSymbolicDB(series...)
}

// handleAppendDataset ingests one append: parse and validate the body
// against the dataset's current generation, seal the appended samples
// into a delta segment, derive the next generation (advancing the
// Prepared caches incrementally), and commit the swap together with its
// WAL record. The
// per-dataset appendMu serializes concurrent appends — each one builds on
// the generation its predecessor installed — while running mines are
// untouched: they hold the generation they started on.
func (s *Server) handleAppendDataset(w http.ResponseWriter, r *http.Request, id string) {
	ds, ok := s.reg.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "no such dataset: %s", id)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "ndjson"
	}
	if format != "ndjson" && format != "csv" {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "unknown format %q (want ndjson or csv)", format)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)

	ds.appendMu.Lock()
	defer ds.appendMu.Unlock()

	g := ds.view()
	p := newAppendParser(g.src, ds.threshold)
	var err error
	if format == "ndjson" {
		err = p.parseNDJSON(body)
	} else {
		err = p.parseCSV(body)
	}
	if err != nil {
		status, code := http.StatusBadRequest, codeInvalidArgument
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status, code = http.StatusRequestEntityTooLarge, codePayloadTooLarge
		}
		writeError(w, status, code, "append failed: %v", err)
		return
	}
	if p.rows == 0 {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "append failed: body contains no rows")
		return
	}

	delta, err := p.deltaDB()
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "append failed: %v", err)
		return
	}
	next, rec, err := s.sealAppend(ds, g, delta)
	if err != nil {
		s.storeFailure(w, "append storage", err)
		return
	}
	if !s.reg.appendDataset(ds, next, rec) {
		// The dataset was removed between lookup and commit: the append
		// loses deterministically, nothing was swapped or logged.
		writeError(w, http.StatusConflict, codeConflict, "dataset %s was removed", id)
		return
	}
	s.appends.Add(1)
	s.appendRows.Add(int64(p.rows))
	s.logf("dataset %s appended: +%d rows, %d samples total, generation %d", ds.id, p.rows, next.src.Len(), next.gen)
	writeJSON(w, http.StatusOK, ds.info())
}

// sealAppend builds an append's next generation: the delta samples are
// sealed into a new segment (named by the generation it produces, so a
// crashed-and-retried durable append replaces its own leftover file), and
// the chained view over the previous generation plus the sealed delta
// becomes the new content source. The fingerprint of the full
// post-append content resumes the previous generation's digest over the
// delta's runs alone — a generation restored from the log holds no digest
// and builds it from its content first — and is stored in both the
// segment footer and the WAL record, so restart trusts it without
// rehashing. A crash between the seal and the WAL append
// leaves an unreferenced file for startup orphan collection; replaying
// the WAL without the record simply reproduces the pre-append generation.
func (s *Server) sealAppend(ds *Dataset, g *dsGen, delta *ftpm.SymbolicDB) (*dsGen, appendRecord, error) {
	digest := g.digest
	if digest == nil {
		digest = digestSource(g.src)
	}
	digest = digest.extend(delta)
	fp := digest.fingerprint(chain(g.src, delta))
	seg, segName, err := s.seal(ds.id, g.gen+1, delta, fp)
	if err != nil {
		return nil, appendRecord{}, err
	}
	src := chain(g.src, seg)
	grown := genFromSource(src, fp, withSegment(g.segments, segName), g.sealedBytes+seg.Size())
	grown.digest = digest
	next := ds.advanceTo(grown)
	rec := appendRecord{
		ID:          ds.id,
		Gen:         next.gen,
		PrevSamples: g.src.Len(),
		Segment:     segName,
		Samples:     src.Len(),
		Fingerprint: fp,
	}
	return next, rec, nil
}
