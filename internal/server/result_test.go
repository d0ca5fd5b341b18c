package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ftpm"
	"ftpm/internal/server/store"
)

// Result-serving tests: a done job's document is encoded once and every
// /result body, JSON page and NDJSON page is cut from those bytes. They
// must stay byte-identical to encoding the structs on every request,
// which is what these tests compare against.

// indented is the reference encoding of a response body: json.Encoder
// with a two-space indent, trailing newline included.
func indented(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referencePage is the JSON page of doc at (offset, limit), encoded from
// the structs.
func referencePage(t testing.TB, id string, doc *ftpm.ResultJSON, offset, limit int) []byte {
	total := len(doc.Patterns)
	offset = min(offset, total)
	end := min(offset+limit, total)
	page := patternsPage{JobID: id, Total: total, Offset: offset, Limit: limit, Patterns: doc.Patterns[offset:end]}
	if end < total {
		next := end
		page.NextOffset = &next
		page.NextPageToken = encodeOffsetToken(end)
	}
	return indented(t, page)
}

// referenceNDJSON is the NDJSON page of doc at (offset, limit): one
// Encoder.Encode per pattern.
func referenceNDJSON(t testing.TB, doc *ftpm.ResultJSON, offset, limit int) []byte {
	total := len(doc.Patterns)
	offset = min(offset, total)
	end := min(offset+limit, total)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := offset; i < end; i++ {
		if err := enc.Encode(&doc.Patterns[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// serve issues a GET against h and returns the recorded response.
func serve(h http.Handler, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

// restoreDone installs a done job holding doc into s through the restore
// path, the way a replayed terminal record arrives.
func restoreDone(t testing.TB, s *Server, id string, doc *ftpm.ResultJSON) {
	t.Helper()
	rd, err := encodeResult(doc)
	if err != nil {
		t.Fatal(err)
	}
	s.jobs.restore([]jobRecord{{ID: id, State: JobDone, Doc: rd}}, 0, s.reg)
}

// checkServed requires /result and every JSON and NDJSON page of job id
// to be byte-identical to the struct encodings of doc, with a matching
// Content-Length on each body. The requests go over TCP, so net/http
// holds each body to its declared Content-Length: a longer one is cut
// short, and a shorter one ends in an unexpected EOF.
func checkServed(t *testing.T, h http.Handler, id string, doc *ftpm.ResultJSON) {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	check := func(url string, want []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: reading the body: %v", url, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d (%s)", url, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("GET %s:\n got %q\nwant %q", url, got, want)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Fatalf("GET %s: Content-Length %q for a %d-byte body", url, cl, len(want))
		}
	}
	base := "/v1/jobs/" + id
	check(base+"/result", indented(t, doc))
	total := len(doc.Patterns)
	for offset := 0; offset <= total+1; offset++ {
		for limit := 1; limit <= total+1; limit++ {
			q := fmt.Sprintf("?limit=%d&offset=%d", limit, offset)
			check(base+"/patterns"+q, referencePage(t, id, doc, offset, limit))
			check(base+"/patterns"+q+"&format=ndjson", referenceNDJSON(t, doc, offset, limit))
			tok := fmt.Sprintf("?limit=%d&page_token=%s", limit, encodeOffsetToken(offset))
			check(base+"/patterns"+tok, referencePage(t, id, doc, offset, limit))
		}
	}
}

// resultNames mixes the characters the encoder escapes or passes through:
// HTML-significant bytes, U+2028/U+2029, quotes, backslashes, control
// characters and multi-byte UTF-8.
var resultNames = []string{
	"plain:On", "a<b>&c:On", "line\u2028sep:Off", "para\u2029:On", `quote"d:Off`,
	`back\slash:On`, `trailing\`, "tab\tnew\nline:Off", "café:On", "日本語:Off", "emoji🙂:On",
}

// randomResult builds a result document with n patterns (nil patterns
// for n < 0), drawing names from resultNames.
func randomResult(rng *rand.Rand, n int) *ftpm.ResultJSON {
	return randomNamedResult(rng, resultNames, n)
}

// randomNamedResult is randomResult drawing names from names.
func randomNamedResult(rng *rand.Rand, names []string, n int) *ftpm.ResultJSON {
	name := func() string { return names[rng.Intn(len(names))] }
	doc := &ftpm.ResultJSON{Sequences: 1 + rng.Intn(500), AbsoluteSupport: rng.Intn(50)}
	if rng.Intn(2) == 0 {
		doc.Mu = rng.Float64()
	}
	for i := rng.Intn(4); i > 0; i-- {
		doc.Singles = append(doc.Singles, ftpm.SingleJSON{Event: name(), Support: rng.Intn(99), RelSupport: rng.Float64()})
	}
	if n >= 0 {
		doc.Patterns = make([]ftpm.PatternJSON, n)
	}
	relations := []string{"follow", "contain", "overlap"}
	for i := range doc.Patterns {
		p := &doc.Patterns[i]
		p.K = 2 + rng.Intn(2)
		p.Support = rng.Intn(1000)
		p.RelSupport = rng.Float64()
		p.Confidence = []float64{0, 1, rng.Float64(), 1e-7 * rng.Float64()}[rng.Intn(4)]
		for e := 0; e < p.K; e++ {
			p.Events = append(p.Events, name())
		}
		for a := 0; a < p.K; a++ {
			for b := a + 1; b < p.K; b++ {
				p.Triples = append(p.Triples, ftpm.TripleJSON{A: p.Events[a], Relation: relations[rng.Intn(3)], B: p.Events[b]})
			}
		}
		if rng.Intn(2) == 0 {
			for _, e := range p.Events {
				start := rng.Int63n(1 << 40)
				p.Sample = append(p.Sample, ftpm.IntervalJSON{Event: e, Start: start, End: start + rng.Int63n(1<<20)})
			}
		}
	}
	return doc
}

// TestServedResultBytesMatchStructEncoding is the byte-identity property
// of the stored encoding: over random documents — nil, empty and
// populated pattern lists, escaped and non-ASCII names, Mu zero and set,
// patterns with and without samples — /result, every (offset, limit) JSON
// page by offset and by page_token (offset == total included) and every
// NDJSON page equal the struct encodings, also for names that are long
// runs of escapes (checkEscapeHeavy), and a persistence record — a job
// record, or a snapshot of all of them — embeds the same bytes as the
// struct-typed field did.
func TestServedResultBytesMatchStructEncoding(t *testing.T) {
	// structJob is a job record whose document field is struct-typed.
	type structJob struct {
		jobRecord
		Doc *ftpm.ResultJSON `json:"doc,omitempty"`
	}
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rng := rand.New(rand.NewSource(14))
	seq := 0
	var snap snapshotRecord
	var stored []structJob
	for round := 0; round < 3; round++ {
		for _, n := range []int{-1, 0, 1, 2, 3, 5, 8} {
			doc := randomResult(rng, n)
			seq++
			id := fmt.Sprintf("job-%d", seq)
			restoreDone(t, srv, id, doc)
			checkServed(t, srv, id, doc)

			rd, err := encodeResult(doc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := appendJobRecord(nil, jobRecord{ID: id, Doc: rd})
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(structJob{jobRecord: jobRecord{ID: id}, Doc: doc})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("record doc of %d patterns:\n got %s\nwant %s", n, got, want)
			}
			snap.Jobs = append(snap.Jobs, jobRecord{ID: id, Doc: rd, EventSeq: uint64(seq)})
			stored = append(stored, structJob{jobRecord: jobRecord{ID: id, EventSeq: uint64(seq)}, Doc: doc})
		}
	}
	checkEscapeHeavy(t, srv, rng, &seq)

	got, err := encodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	// A struct-typed snapshot writes each job's doc after event_seq;
	// field order aside, the records must decode to the same values.
	var gotDecoded, wantDecoded any
	want, err := json.Marshal(struct {
		snapshotRecord
		Jobs []structJob `json:"jobs"`
	}{snap, stored})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &gotDecoded); err != nil {
		t.Fatalf("snapshot encoding is not JSON: %v", err)
	}
	if err := json.Unmarshal(want, &wantDecoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDecoded, wantDecoded) {
		t.Fatalf("snapshot encoding decodes differently:\n got %s\nwant %s", got, want)
	}
}

// checkEscapeHeavy serves documents in which one event name is a long
// run of escaped quotes and backslashes, and requires the compact pass
// over each stored body, and over each of its element spans, to give back
// json.Marshal of the document and of each pattern.
func checkEscapeHeavy(t *testing.T, srv *Server, rng *rand.Rand, seq *int) {
	t.Helper()
	long := strings.Repeat(`q"\\`, 12)
	names := append([]string{long}, resultNames...)
	for range 8 {
		doc := randomNamedResult(rng, names, 4)
		doc.Patterns[0].Events[0] = long
		*seq++
		id := fmt.Sprintf("job-%d", *seq)
		restoreDone(t, srv, id, doc)
		checkServed(t, srv, id, doc)

		j, _ := srv.jobs.get(id)
		rd, _ := j.document()
		want, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendCompact(nil, rd.body); !bytes.Equal(got, want) {
			t.Fatalf("compacted body:\n got %s\nwant %s", got, want)
		}
		for i, s := range rd.patterns() {
			want, err := json.Marshal(&doc.Patterns[i])
			if err != nil {
				t.Fatal(err)
			}
			if got := appendCompact(nil, rd.body[s.start:s.end]); !bytes.Equal(got, want) {
				t.Fatalf("compacted element %d:\n got %s\nwant %s", i, got, want)
			}
		}
	}
}

// TestConcurrentFirstPages serves pages of a never-paged document from
// several goroutines at once: the first requests race to index its
// patterns elements, and each must still get the struct-encoded page.
func TestConcurrentFirstPages(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	doc := randomResult(rand.New(rand.NewSource(7)), 40)
	restoreDone(t, srv, "job-1", doc)
	var wg sync.WaitGroup
	for offset := 0; offset < 40; offset += 5 {
		want := referencePage(t, "job-1", doc, offset, 7)
		url := fmt.Sprintf("/v1/jobs/job-1/patterns?limit=7&offset=%d", offset)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := serve(srv, url); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("GET %s: status %d, body differs from the struct encoding", url, rec.Code)
			}
		}()
	}
	wg.Wait()
}

// goldenDoc is the document of the golden job record: escaped and
// non-ASCII names, Mu set, one pattern with a sample and one without.
func goldenDoc() *ftpm.ResultJSON {
	return &ftpm.ResultJSON{
		Sequences: 12, AbsoluteSupport: 3, Mu: 0.25,
		Singles: []ftpm.SingleJSON{
			{Event: "a<b>&c:On", Support: 5, RelSupport: 5.0 / 12},
			{Event: "line\u2028sep:Off", Support: 4, RelSupport: 1.0 / 3},
		},
		Patterns: []ftpm.PatternJSON{
			{K: 2, Events: []string{"a<b>&c:On", "line\u2028sep:Off"},
				Triples: []ftpm.TripleJSON{{A: "a<b>&c:On", Relation: "follow", B: "line\u2028sep:Off"}},
				Support: 4, RelSupport: 1.0 / 3, Confidence: 0.8,
				Sample: []ftpm.IntervalJSON{{Event: "a<b>&c:On", Start: 0, End: 1800}, {Event: "line\u2028sep:Off", Start: 3600, End: 5400}}},
			{K: 2, Events: []string{`café "q":On`, `日本\x:On`},
				Triples: []ftpm.TripleJSON{{A: `café "q":On`, Relation: "contain", B: `日本\x:On`}},
				Support: 3, RelSupport: 0.25, Confidence: 1e-7},
		},
	}
}

// goldenJobRecord is a done job's terminal record as the struct-typed
// encoding of its document wrote it; logs in this format must keep
// restoring and re-serving.
const goldenJobRecord = `{"id":"job-7","request":{"dataset_id":"ds-2","min_support":0.25,"min_confidence":0.5,"max_pattern_size":2,"num_windows":4},"tenant":"t1","fingerprint":"fp-golden","state":"done","created_at":"2021-08-16T09:30:00Z","started_at":"2021-08-16T09:30:01Z","finished_at":"2021-08-16T09:30:03Z","summary":{"sequences":12,"frequent_events":2,"patterns":2,"dseq_cache":false,"nmi_cache":false,"result_cache":false,"duration_ms":2000},"levels":[{"level":1,"duration_ms":1,"candidates":4,"patterns":2}],"doc":{"sequences":12,"absolute_support":3,"mu":0.25,"frequent_events":[{"event":"a\u003cb\u003e\u0026c:On","support":5,"rel_support":0.4166666666666667},{"event":"line\u2028sep:Off","support":4,"rel_support":0.3333333333333333}],"patterns":[{"k":2,"events":["a\u003cb\u003e\u0026c:On","line\u2028sep:Off"],"triples":[{"a":"a\u003cb\u003e\u0026c:On","relation":"follow","b":"line\u2028sep:Off"}],"support":4,"rel_support":0.3333333333333333,"confidence":0.8,"sample":[{"event":"a\u003cb\u003e\u0026c:On","start":0,"end":1800},{"event":"line\u2028sep:Off","start":3600,"end":5400}]},{"k":2,"events":["café \"q\":On","日本\\x:On"],"triples":[{"a":"café \"q\":On","relation":"contain","b":"日本\\x:On"}],"support":3,"rel_support":0.25,"confidence":1e-7}]},"event_seq":9}`

// plantJobRecords writes raw job records into a fresh log under dir, as
// a server that terminated them would have.
func plantJobRecords(t *testing.T, dir string, records ...string) {
	t.Helper()
	l, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := l.Append(kindJobTerminal, []byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJobRecordGolden pins the log format of a done job: its record
// marshals to the same bytes the struct-typed document field wrote, a log
// in that format restores and re-serves /result and every page
// byte-identically, and a done record whose doc is not a result document
// still fails the open as a corrupt job record.
func TestJobRecordGolden(t *testing.T) {
	at := time.Date(2021, 8, 16, 9, 30, 0, 0, time.UTC)
	started, finished := at.Add(time.Second), at.Add(3*time.Second)
	rd, err := encodeResult(goldenDoc())
	if err != nil {
		t.Fatal(err)
	}
	rec := jobRecord{
		ID: "job-7", Tenant: "t1", Fingerprint: "fp-golden", State: JobDone,
		Request:   MiningRequest{DatasetID: "ds-2", MinSupport: 0.25, MinConfidence: 0.5, NumWindows: 4, MaxPatternSize: 2},
		CreatedAt: at, StartedAt: &started, FinishedAt: &finished,
		Summary:  &JobSummary{Sequences: 12, FrequentEvents: 2, Patterns: 2, DurationMillis: 2000},
		Levels:   []LevelTimingJSON{{Level: 1, DurationMillis: 1, Candidates: 4, Patterns: 2}},
		Doc:      rd,
		EventSeq: 9,
	}
	got, err := appendJobRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenJobRecord {
		t.Fatalf("job record encoding changed:\n got %s\nwant %s", got, goldenJobRecord)
	}

	dir := t.TempDir()
	plantJobRecords(t, dir, goldenJobRecord)
	srv, err := New(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	checkServed(t, srv, "job-7", goldenDoc())

	for _, doc := range []string{`"x"`, `{"patterns":3}`} {
		dir := t.TempDir()
		plantJobRecords(t, dir, `{"id":"job-1","state":"done","created_at":"2021-08-16T09:30:00Z","doc":`+doc+`}`)
		if srv, err := New(Options{Workers: 1, DataDir: dir}); err == nil {
			srv.Close()
			t.Fatalf("doc %s: open succeeded, want a corrupt job record", doc)
		} else if !strings.Contains(err.Error(), "corrupt job record") {
			t.Fatalf("doc %s: open failed with %v, want a corrupt job record", doc, err)
		}
	}
}

// TestReplayServesOddDocuments restores done records whose document
// decodes as a result document but is not laid out as the encoder writes
// one: whitespace, null pattern elements, unknown fields nested deeper
// than any result document, a repeated key. Each serves its /result as
// json.Indent of the logged bytes, and its JSON and NDJSON pages with
// status 200.
func TestReplayServesOddDocuments(t *testing.T) {
	for _, doc := range []string{
		`{ "patterns" : [ {"k": 2} ] }`,
		`{"patterns":[null]}`,
		`{"patterns":[null,{}]}`,
		`{"x":[[[[[[[[[[1]]]]]]]]]]}`,
		`{"patterns":[{}],"patterns":null}`,
	} {
		dir := t.TempDir()
		plantJobRecords(t, dir, `{"id":"job-1","state":"done","created_at":"2021-08-16T09:30:00Z","doc":`+doc+`}`)
		srv, err := New(Options{Workers: 1, DataDir: dir})
		if err != nil {
			t.Fatalf("doc %s: %v", doc, err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, []byte(doc), "", "  "); err != nil {
			t.Fatal(err)
		}
		if rec := serve(srv, "/v1/jobs/job-1/result"); rec.Code != http.StatusOK || rec.Body.String() != want.String()+"\n" {
			t.Fatalf("doc %s: /result %d %q, want %q", doc, rec.Code, rec.Body, want.String()+"\n")
		}
		for _, q := range []string{"?limit=1&offset=1", "?limit=100&format=ndjson"} {
			if rec := serve(srv, "/v1/jobs/job-1/patterns"+q); rec.Code != http.StatusOK {
				t.Fatalf("doc %s: patterns%s: status %d (%s)", doc, q, rec.Code, rec.Body)
			}
		}
		srv.Close()
	}
}

// discardResponse is a ResponseWriter that keeps its header and drops the
// body, so a benchmark measures the server rather than a recorder's
// buffer growth.
type discardResponse struct {
	header http.Header
	code   int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkServeResult serves a ~5k-pattern document the way repeat
// readers fetch it: the whole /result body, then every 1000-pattern JSON
// page. The job is installed from its decoded terminal record, and each
// request is served once before timing starts, so the loop measures
// repeat fetches of an already-served document. The set-up's garbage is
// collected first, so that a one-iteration run does not time a
// collection of it.
func BenchmarkServeResult(b *testing.B) {
	const patterns, pageLimit = 5000, 1000
	data, err := json.Marshal(map[string]any{"id": "job-1", "state": "done", "doc": randomResult(rand.New(rand.NewSource(1)), patterns)})
	if err != nil {
		b.Fatal(err)
	}
	var stored storedJob
	if err := json.Unmarshal(data, &stored); err != nil {
		b.Fatal(err)
	}
	rec, err := stored.record()
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.jobs.restore([]jobRecord{rec}, 0, srv.reg)
	reqs := []*http.Request{httptest.NewRequest(http.MethodGet, "/v1/jobs/job-1/result", nil)}
	for off := 0; off < patterns; off += pageLimit {
		reqs = append(reqs, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/job-1/patterns?limit=%d&offset=%d", pageLimit, off), nil))
	}
	w := &discardResponse{header: http.Header{}}
	serveAll := func() {
		for _, r := range reqs {
			clear(w.header)
			if srv.ServeHTTP(w, r); w.code != http.StatusOK {
				b.Fatalf("GET %s: status %d", r.URL, w.code)
			}
		}
	}
	runtime.GC()
	serveAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveAll()
	}
}

// BenchmarkEncodeResult encodes BenchmarkServeResult's document into its
// served form: the work a job pays once, as it completes or its record
// is replayed. ReportAllocs counts the allocations of every goroutine,
// and each collection wakes the runtime's unique-map cleanup, which
// allocates on its own goroutine whenever it next gets to run; so
// collections are held off while timing. Each iteration first collects
// the previous one's garbage, lets that cleanup run and encodes once, all
// untimed; the untimed encoding puts encoding/json's buffer, which the
// collection moved out of its pool, back in. So every timed encoding
// finds the grown buffer a running server's earlier jobs leave, and the
// allocation count is the encoding's own.
func BenchmarkEncodeResult(b *testing.B) {
	doc := randomResult(rand.New(rand.NewSource(1)), 5000)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.Gosched()
		if _, err := encodeResult(doc); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := encodeResult(doc); err != nil {
			b.Fatal(err)
		}
	}
}
