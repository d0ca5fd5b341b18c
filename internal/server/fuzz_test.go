package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"ftpm"
	"ftpm/internal/csvio"
	"ftpm/internal/server/store"
	"ftpm/internal/timeseries"
)

// fuzzBaseSDB is the fixed schema the fuzzed append bodies are parsed
// against: three binary series of four samples on a step-10 grid (next
// valid timestamp: 40).
func fuzzBaseSDB(tb testing.TB) *ftpm.SymbolicDB {
	tb.Helper()
	mk := func(name string, syms ...int) *ftpm.SymbolicSeries {
		return &ftpm.SymbolicSeries{
			Name: name, Start: 0, Step: 10,
			Alphabet: []string{"Off", "On"}, Symbols: syms,
		}
	}
	sdb, err := ftpm.NewSymbolicDB(mk("A", 0, 1, 0, 1), mk("B", 1, 0, 1, 0), mk("C", 0, 0, 1, 1))
	if err != nil {
		tb.Fatal(err)
	}
	return sdb
}

// FuzzUploadReader holds the upload readers to the path they replaced,
// in both directions: csvio.ReadOnOffRuns to refReadNumericChunked, each
// series symbolized with the On/Off mapper, then NewSymbolicDB; and
// csvio.ReadSymbolicRuns to refReadSymbolicChunked; serially and in three
// row blocks. The references are the replaced readers themselves, kept
// in refcsv_test.go, so they share no code with the readers under test. For every body the two accept or reject alike, with
// byte-identical errors, and an accepted body gives the same maximal
// runs, the same v2 fingerprint and a byte-identical segment image. The
// corpus under testdata/fuzz/FuzzUploadReader holds quoted bodies, CRLF
// and blank lines, number spellings (16 digits and more, +1, .5, -0, 1e3,
// NaN, Inf), a row with both a bad field count and a bad timestamp, bad
// values in two columns on either side of a block boundary, runs crossing
// block boundaries, a single row, empty and duplicate series names, a
// grid whose end overflows, and invalid UTF-8 in a series name and in a
// symbol, which the upload handler then rejects (checkUTF8).
func FuzzUploadReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, threshold float64) {
		for _, chunks := range []int{1, 3} {
			what := fmt.Sprintf("numeric chunks=%d", chunks)
			got, err := csvio.ReadOnOffRuns(bytes.NewReader(body), int64(len(body)), threshold, chunks)
			want, wantErr := refOnOffUpload(body, threshold, chunks)
			checkUpload(t, what, got, err, want, wantErr)

			checkUploadUTF8(t, what, got, err, body)

			what = fmt.Sprintf("symbolic chunks=%d", chunks)
			got, err = csvio.ReadSymbolicRuns(bytes.NewReader(body), int64(len(body)), chunks)
			want, wantErr = refReadSymbolicChunked(bytes.NewReader(body), chunks)
			checkUpload(t, what, got, err, want, wantErr)
			checkUploadUTF8(t, what, got, err, body)
		}
	})
}

// checkUploadUTF8 requires the upload handler's UTF-8 check to reject a
// body the reader accepted exactly when the body holds invalid UTF-8: a
// body's time column and numbers are ASCII, so an invalid byte in an
// accepted body is in a series name or a symbol.
func checkUploadUTF8(t *testing.T, what string, got *timeseries.RunDB, err error, body []byte) {
	t.Helper()
	if err != nil {
		return
	}
	if utf8Err := checkUTF8(got); (utf8Err == nil) != utf8.Valid(body) {
		t.Fatalf("%s: UTF-8 check %v on a body whose validity is %v", what, utf8Err, utf8.Valid(body))
	}
}

// refOnOffUpload is the numeric upload as it was ingested before its
// runs were read straight from the body.
func refOnOffUpload(body []byte, threshold float64, chunks int) (*ftpm.SymbolicDB, error) {
	series, err := refReadNumericChunked(bytes.NewReader(body), chunks)
	if err != nil {
		return nil, err
	}
	return ftpm.Symbolize(series, func(string) ftpm.Symbolizer { return ftpm.OnOff(threshold) })
}

// checkUpload fails unless got and want carry the same error, or the same
// maximal runs, fingerprint and segment image.
func checkUpload(t *testing.T, what string, got *timeseries.RunDB, err error, want *ftpm.SymbolicDB, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, want %v", what, err, wantErr)
	}
	if err != nil {
		return
	}
	for i := range want.Series {
		if g, w := got.AppendRuns(i, nil), want.AppendRuns(i, nil); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: series %d runs %v, want %v", what, i, g, w)
		}
	}
	fp, wantFP := digestSource(got).fingerprint(got), digestSource(want).fingerprint(want)
	if fp != wantFP {
		t.Fatalf("%s: fingerprint %s, want %s", what, fp, wantFP)
	}
	img, err := store.EncodeSegment(got, fp)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	wantImg, err := store.EncodeSegment(want, fp)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	if !bytes.Equal(img, wantImg) {
		t.Fatalf("%s: segment image differs from the reference's", what)
	}
}

// FuzzAppendParser drives arbitrary bodies through both append parsers.
// The contract under fuzzing: the parser may reject (any error) but must
// never panic, and on acceptance the parsed state must uphold the
// invariants the rest of the append path builds on — rectangular
// columns, in-range symbol ids, alphabets only ever extended — and the
// delta database chained after the base must be its temporal extension.
// The NDJSON scanner must accept exactly the bodies the json.Decoder
// parser it replaced accepts (referenceParseNDJSON), parse them to the
// same columns and alphabets, and reject the others with an error the
// handler answers with a 400. An accepted NDJSON body's cells must also
// match a reference decode (checkNDJSONCells). The checked-in corpus
// under testdata/fuzz/FuzzAppendParser holds number spellings (-0,
// exponents, the threshold itself, the largest float64s, an overflow and
// the spellings strconv takes but JSON does not), rows mixing strings
// and numbers, and the decoder's edge cases: fold-cased, escaped and
// duplicate keys, repeated and null values objects, rows sharing a line
// or spread over several, and invalid UTF-8, which both parsers must
// reject.
func FuzzAppendParser(f *testing.F) {
	// The seed corpus mirrors the handwritten 400 table: well-formed
	// bodies, duplicate and gapped timestamps, mixed arity, unknown and
	// null values, torn JSON, quoted CSV edge cases.
	seeds := []struct {
		ndjson bool
		body   string
	}{
		{true, "{\"time\":40,\"values\":{\"A\":1,\"B\":0,\"C\":1}}\n{\"time\":50,\"values\":{\"A\":0.7,\"B\":\"On\",\"C\":0}}\n"},
		{true, `{"time":40,"values":{"A":"Spike","B":0,"C":1}}`},
		{true, `{"time":30,"values":{"A":1,"B":0,"C":1}}`},
		{true, `{"time":60,"values":{"A":1,"B":0,"C":1}}`},
		{true, `{"time":40,"values":{"A":1,"B":0}}`},
		{true, `{"time":40,"values":{"A":1,"B":0,"C":1,"D":0}}`},
		{true, `{"time":40,"values":{"A":1,"B":0,"Q":1}}`},
		{true, `{"time":40,"values":{"A":null,"B":0,"C":1}}`},
		{true, `{"values":{"A":1,"B":0,"C":1}}`},
		{true, `{"time":40,"values":{"A":[1],"B":0,"C":1}}`},
		{true, "{\"time\":40,\"values\":{\"A\":1,\"B\":0,\"C\":1}}\n{\"time\":40,"},
		{true, "not json at all"},
		{true, ""},
		{false, "time,A,B,C\n40,1,0,1\n50,0.7,On,0\n"},
		{false, "time,A,B,C\n40,1,0\n"},
		{false, "time,A,C,B\n40,1,0,1\n"},
		{false, "time,A,B,C\nnoon,1,0,1\n"},
		{false, "time,A,B,C\n40,1,,1\n"},
		{false, "time,A,B,C\n40,1,0,1\n40,1,0,1\n"},
		{false, "time,A,B,C\n40,\"quoted,cell\",0,1\n"},
		{false, "time,A,B,C\n"},
		{false, ""},
		{true, "{\"time\":40,\"values\":{\"A\":\"x\xffy\",\"B\":0,\"C\":1}}"},
		{true, "{\"time\":40,\"values\":{\"A\":1,\"B\xfe\":0,\"C\":1}}"},
		{false, "time,A,B,C\n40,x\xffy,0,1\n"},
		{false, "time,A,B,C\n40,\"x\xfey\",0,1\n"},
	}
	for _, s := range seeds {
		f.Add(s.ndjson, []byte(s.body))
	}

	f.Fuzz(func(t *testing.T, ndjson bool, body []byte) {
		sdb := fuzzBaseSDB(t)
		p := newAppendParser(sdb, 0.5)
		var err error
		if ndjson {
			err = p.parseNDJSON(bytes.NewReader(body))
		} else {
			err = p.parseCSV(bytes.NewReader(body))
		}
		if ndjson {
			checkAgainstReference(t, sdb, p, body, err)
		}
		if err != nil {
			return // rejection is fine; panicking is the bug class under test
		}
		// The schema's names are valid UTF-8, so a body that holds an
		// invalid byte holds it in a symbol or a series name.
		if !utf8.Valid(body) {
			t.Fatalf("accepted a body holding invalid UTF-8: %q", body)
		}
		for col, syms := range p.cols {
			if len(syms) != p.rows {
				t.Fatalf("column %d has %d symbols for %d rows", col, len(syms), p.rows)
			}
			for _, id := range syms {
				if id < 0 || id >= len(p.alphabets[col]) {
					t.Fatalf("column %d holds out-of-range symbol id %d (alphabet %v)", col, id, p.alphabets[col])
				}
			}
		}
		for i, s := range sdb.Series {
			if len(p.alphabets[i]) < len(s.Alphabet) {
				t.Fatalf("series %q alphabet shrank: %v", s.Name, p.alphabets[i])
			}
			for j, a := range s.Alphabet {
				if p.alphabets[i][j] != a {
					t.Fatalf("series %q alphabet renumbered: %v", s.Name, p.alphabets[i])
				}
			}
		}
		if ndjson {
			checkNDJSONCells(t, p, body)
		}
		if p.rows == 0 {
			return // the handler 400s row-less bodies before sealing
		}
		delta, err := p.deltaDB()
		if err != nil {
			t.Fatalf("accepted body failed to build its delta: %v", err)
		}
		next := chain(sdb, delta)
		if next.Len() != sdb.Len()+p.rows || next.End() != delta.End() {
			t.Fatalf("extended to %d samples ending at %d, want %d ending at %d",
				next.Len(), next.End(), sdb.Len()+p.rows, delta.End())
		}
		if sdb.Len() != 4 {
			t.Fatal("parsing mutated the base database")
		}
	})
}

// checkAgainstReference holds the NDJSON scanner's outcome on body — p
// and err — to referenceParseNDJSON's on the same schema.
func checkAgainstReference(t *testing.T, sdb *ftpm.SymbolicDB, p *appendParser, body []byte, err error) {
	t.Helper()
	ref := newAppendParser(sdb, 0.5)
	refErr := ref.referenceParseNDJSON(bytes.NewReader(body))
	switch {
	case err == nil && refErr != nil:
		t.Fatalf("scanner accepts a body the decoder rejects (%v):\n%q", refErr, body)
	case err != nil && refErr == nil:
		t.Fatalf("scanner rejects a body the decoder accepts (%v):\n%q", err, body)
	case err != nil:
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			t.Fatalf("rejected body would be a 413, not a 400: %v", err)
		}
	case p.rows != ref.rows || !reflect.DeepEqual(p.cols, ref.cols) || !reflect.DeepEqual(p.alphabets, ref.alphabets):
		t.Fatalf("scanner parsed %d rows to %v over %v, decoder %d rows to %v over %v:\n%q",
			p.rows, p.cols, p.alphabets, ref.rows, ref.cols, ref.alphabets, body)
	}
}

// ndjsonRow is one NDJSON append row: a grid timestamp plus one value per
// series. Values may be numbers (symbolized via the dataset's threshold)
// or strings (symbol names).
type ndjsonRow struct {
	Time   *int64                     `json:"time"`
	Values map[string]json.RawMessage `json:"values"`
}

// referenceParseNDJSON is the NDJSON append parser parseNDJSON replaced:
// each row is decoded by json.Decoder, unknown fields disallowed, into an
// ndjsonRow. It defines the language parseNDJSON must accept, with the
// one rule added since: a body holding invalid UTF-8 is rejected whole.
// JSON allows non-ASCII bytes only inside strings, so that rejects
// exactly the bodies that would reach a key or value with one.
func (p *appendParser) referenceParseNDJSON(body io.Reader) error {
	data, err := io.ReadAll(body)
	if err != nil {
		return err
	}
	if !utf8.Valid(data) {
		return errors.New("body is not valid UTF-8")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	for {
		var row ndjsonRow
		if err := dec.Decode(&row); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("row %d: %w", p.rows+1, err)
		}
		if row.Time == nil {
			return fmt.Errorf("row %d: missing time", p.rows+1)
		}
		if err := p.checkTime(*row.Time); err != nil {
			return err
		}
		if len(row.Values) != len(p.names) {
			return fmt.Errorf("row %d: %d values for %d series", p.rows+1, len(row.Values), len(p.names))
		}
		for name, raw := range row.Values {
			col, ok := p.index[name]
			if !ok {
				return fmt.Errorf("row %d: unknown series %q", p.rows+1, name)
			}
			if string(raw) == "null" {
				// Unmarshal into a string would silently accept null as a
				// no-op and read the empty name.
				return fmt.Errorf("row %d: series %q: value is null", p.rows+1, name)
			}
			var id int
			var err error
			if c := raw[0]; c == '-' || '0' <= c && c <= '9' {
				// The decoder has checked raw is a JSON number, and ParseFloat
				// is what json.Unmarshal into a float64 runs on one: only a
				// value beyond float64's range fails.
				var num float64
				if num, err = strconv.ParseFloat(string(raw), 64); err == nil {
					id = p.number(col, num)
				}
			} else {
				var sym string
				if err = json.Unmarshal(raw, &sym); err == nil {
					id = p.intern(col, sym)
				}
			}
			if err != nil {
				return fmt.Errorf("row %d: series %q: value %s is neither a number nor a symbol name", p.rows+1, name, raw)
			}
			p.cols[col] = append(p.cols[col], id)
		}
		p.rows++
	}
}

// checkNDJSONCells holds the symbols an accepted NDJSON body parsed to
// against a reference decode of each cell: a value json.Unmarshal reads
// as a float64 must map to the On/Off symbol of that number, any other
// value must be a JSON string naming its symbol. So a number the parser
// reads differently from json.Unmarshal, or accepts where json.Unmarshal
// fails (an overflow such as 1e309), is caught.
func checkNDJSONCells(t *testing.T, p *appendParser, body []byte) {
	t.Helper()
	onoff := ftpm.OnOff(0.5) // the threshold FuzzAppendParser parses with
	dec := json.NewDecoder(bytes.NewReader(body))
	for row := 0; ; row++ {
		var r struct {
			Values map[string]json.RawMessage `json:"values"`
		}
		if err := dec.Decode(&r); err == io.EOF {
			if row != p.rows {
				t.Fatalf("reference decoded %d rows, parser %d", row, p.rows)
			}
			return
		} else if err != nil {
			t.Fatalf("reference rejects an accepted body at row %d: %v", row+1, err)
		}
		for name, raw := range r.Values {
			col := p.index[name]
			got := p.alphabets[col][p.cols[col][row]]
			var num float64
			if err := json.Unmarshal(raw, &num); err == nil {
				if want := onoff.Alphabet()[onoff.Symbolize(num)]; got != want {
					t.Fatalf("row %d: series %q: value %s parsed to %q, reference %g is %q", row+1, name, raw, got, num, want)
				}
				continue
			}
			var sym string
			if raw[0] != '"' || json.Unmarshal(raw, &sym) != nil {
				t.Fatalf("row %d: series %q: accepted %s, which is neither a float64 nor a string", row+1, name, raw)
			}
			if got != sym {
				t.Fatalf("row %d: series %q: value %s parsed to %q", row+1, name, raw, got)
			}
		}
	}
}

// fuzzRecovery decodes fuzz input into what store.Open hands replay: a
// sequence of frames, each a kind byte, a big-endian uint16 length and
// that many payload bytes (fewer when the input ends first). Kind 0 is
// the snapshot payload; any other kind is a WAL record of that kind.
func fuzzRecovery(data []byte) store.Recovery {
	var rec store.Recovery
	for lsn := uint64(1); len(data) >= 3; lsn++ {
		kind, n := data[0], int(binary.BigEndian.Uint16(data[1:3]))
		data = data[3:]
		n = min(n, len(data))
		payload := data[:n]
		data = data[n:]
		if kind == 0 {
			rec.Snapshot = payload
			continue
		}
		rec.Records = append(rec.Records, store.Record{Kind: store.Kind(kind), LSN: lsn, Data: payload})
	}
	return rec
}

// FuzzReplay drives arbitrary snapshot and WAL bytes through replay and,
// when replay accepts them, through the job manager's restore, then
// serves /result and the first pattern page of every restored job. The
// bytes come from disk, so replay may reject them (any error) but nothing
// may panic, and a restored job must serve: 200 once done, 409 before.
// The checked-in corpus under testdata/fuzz/FuzzReplay holds a valid
// snapshot, truncated and bit-flipped job records, and done records whose
// doc is not a result document.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := replay(fuzzRecovery(data))
		if err != nil {
			return // rejection is fine; panicking is the bug class under test
		}
		srv, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		// No dataset is registered, so live jobs come back failed instead
		// of re-queueing: nothing mines.
		srv.jobs.restore(st.jobs, st.maxJobSeq, srv.reg)
		// Cursor -1 lists every retained job, ids that are not "job-N"
		// included (page skips ids whose sequence is at or below the
		// cursor, and those parse as 0).
		infos, _ := srv.jobs.page(-1, maxRetainedJobs)
		for _, info := range infos {
			if info.ID == "" || url.PathEscape(info.ID) != info.ID {
				continue // not addressable as one path segment
			}
			want := http.StatusOK
			if info.State != JobDone {
				want = http.StatusConflict
			}
			for _, path := range []string{"/result", "/patterns?limit=100"} {
				target := fmt.Sprintf("/v1/jobs/%s%s", info.ID, path)
				if rec := serve(srv, target); rec.Code != want {
					t.Fatalf("GET %s of a %s job: status %d, want %d (%s)", target, info.State, rec.Code, want, rec.Body.Bytes())
				}
			}
		}
	})
}

// FuzzIndentStream holds the served bytes to the standard library's
// encodings of the same document. The input picks a result document —
// event names from the '|'-separated names (quotes, backslashes,
// U+2028/U+2029, control characters and non-ASCII in the corpus), nil,
// empty or populated patterns, with and without samples. The last
// argument is unused: it sized the chunk of a streaming writer the
// server no longer has, and stays so that the checked-in corpus under
// testdata/fuzz/FuzzIndentStream runs unmodified. The stored /result body
// must equal json.Indent of json.Marshal(doc) with a trailing newline,
// and the compact pass over the whole body and over each element span
// must give back json.Marshal of the document and of each pattern. Every
// JSON page [a, b) must equal json.Indent of the compact page, with its
// elements byte-equal to a slice of the body; every NDJSON page must be
// the compact elements one per line. Each body's Content-Length must
// equal the bytes written.
func FuzzIndentStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, names string, patterns int8, seed int64, _ uint8) {
		n := int(patterns) % 13 // negative: nil patterns
		doc := randomNamedResult(rand.New(rand.NewSource(seed)), strings.Split(names, "|"), n)
		rd, err := encodeResult(doc)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, rec *httptest.ResponseRecorder, want []byte) {
			t.Helper()
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%s:\n got %q\nwant %q", what, got, want)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
				t.Fatalf("%s: Content-Length %s for a %d-byte body", what, cl, len(want))
			}
		}
		indent := func(compact []byte) []byte {
			var buf bytes.Buffer
			if err := json.Indent(&buf, compact, "", "  "); err != nil {
				t.Fatal(err)
			}
			return append(buf.Bytes(), '\n')
		}
		marshal := func(v any) []byte {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}

		compact := marshal(doc)
		if want := indent(compact); !bytes.Equal(rd.body, want) {
			t.Fatalf("stored body:\n got %q\nwant %q", rd.body, want)
		}
		if got := appendCompact(nil, rd.body); !bytes.Equal(got, compact) {
			t.Fatalf("compacted body:\n got %q\nwant %q", got, compact)
		}
		rec := httptest.NewRecorder()
		rd.writeResult(rec)
		check("result", rec, rd.body)

		spans := rd.patterns()
		if len(spans) != len(doc.Patterns) {
			t.Fatalf("%d element spans for %d patterns", len(spans), len(doc.Patterns))
		}
		for i, s := range spans {
			if got, want := appendCompact(nil, rd.body[s.start:s.end]), marshal(&doc.Patterns[i]); !bytes.Equal(got, want) {
				t.Fatalf("compacted element %d:\n got %q\nwant %q", i, got, want)
			}
		}

		total := len(spans)
		for a := 0; a <= total; a++ {
			for b := a; b <= total; b++ {
				page := patternsPage{JobID: "job-1", Total: total, Offset: a, Limit: max(b-a, 1)}
				if b < total {
					page.NextOffset, page.NextPageToken = &b, encodeOffsetToken(b)
				}
				want := page
				want.Patterns = doc.Patterns[a:b]
				rec := httptest.NewRecorder()
				rd.writePage(rec, page, b)
				check(fmt.Sprintf("page [%d, %d)", a, b), rec, indent(marshal(want)))
				if a < b {
					elems := bytes.TrimSuffix(rec.Body.Bytes(), pageClose)
					if !bytes.HasSuffix(elems, rd.body[spans[a].start:spans[b-1].end]) {
						t.Fatalf("page [%d, %d): its elements are not a slice of the body", a, b)
					}
				}

				var lines []byte
				for _, p := range doc.Patterns[a:b] {
					lines = append(append(lines, marshal(p)...), '\n')
				}
				rec = httptest.NewRecorder()
				rd.writeNDJSON(rec, a, b)
				check(fmt.Sprintf("NDJSON page [%d, %d)", a, b), rec, lines)
			}
		}
	})
}
