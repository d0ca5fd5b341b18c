package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ftpm"
)

// appendRows builds n rows of three correlated binary columns (B lags A,
// C tracks A with sparse noise) so the approximate modes keep patterns
// after NMI pruning. Row i is stamped i*10 on the grid.
func appendRows(seed int64, n int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int, n)
	a := make([]int, n)
	for i := range a {
		if i%8 < 3 || rng.Intn(11) == 0 {
			a[i] = 1
		}
	}
	for i := range rows {
		b, c := 0, 1
		if i >= 2 {
			b = a[i-2]
		}
		if i >= 1 {
			c = a[i-1]
		}
		if rng.Intn(17) == 0 {
			c = 1 - c
		}
		rows[i] = []int{a[i], b, c}
	}
	return rows
}

// appendCSV renders rows [lo, hi) as a full upload (or CSV append chunk)
// body with the canonical header.
func appendCSV(rows [][]int, lo, hi int) string {
	var sb strings.Builder
	sb.WriteString("time,A,B,C\n")
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d,%d\n", i*10, rows[i][0], rows[i][1], rows[i][2])
	}
	return sb.String()
}

// appendNDJSON renders rows [lo, hi) as an NDJSON append body.
func appendNDJSON(rows [][]int, lo, hi int) string {
	var sb strings.Builder
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&sb, "{\"time\":%d,\"values\":{\"A\":%d,\"B\":%d,\"C\":%d}}\n",
			i*10, rows[i][0], rows[i][1], rows[i][2])
	}
	return sb.String()
}

// postAppend posts one append body and returns the status code plus the
// response body (a DatasetInfo on 200, an error document otherwise).
func postAppend(t *testing.T, base, id, format, body string) (int, []byte) {
	t.Helper()
	url := base + "/datasets/" + id + "/append"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Post(url, "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// mustAppend posts an append that must succeed and returns the updated
// dataset info.
func mustAppend(t *testing.T, base, id, format, body string) DatasetInfo {
	t.Helper()
	code, data := postAppend(t, base, id, format, body)
	if code != http.StatusOK {
		t.Fatalf("append: status %d: %s", code, data)
	}
	var info DatasetInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("append response: %v", err)
	}
	return info
}

// appendVariants builds one mining request per engine mode against the
// given dataset, on a fixed-window geometry (the delta path's home turf).
func appendVariants(dsID string) []MiningRequest {
	base := MiningRequest{
		DatasetID: dsID, MinSupport: 0.3, MinConfidence: 0.2,
		WindowLength: 200, Overlap: 100, MaxPatternSize: 3,
	}
	exact := base
	mu := base
	mu.Approx = &ApproxRequest{Mu: 0.05}
	density := base
	density.Workers = 2
	density.Approx = &ApproxRequest{Density: 0.6}
	event := base
	event.Approx = &ApproxRequest{Density: 0.6, EventLevel: true}
	return []MiningRequest{exact, mu, density, event}
}

// resultBytes mines the request to done and returns the raw result
// document bytes.
func resultBytes(t *testing.T, base string, req MiningRequest) []byte {
	t.Helper()
	job := mineDone(t, base, req)
	code, doc := getRaw(t, base+"/jobs/"+job.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	return doc
}

// TestAppendThenMineMatchesReupload is the tentpole property test:
// uploading a base dataset, appending the remainder in chunks (NDJSON
// then CSV), and mining must produce result documents byte-identical to
// uploading everything at once and mining cold — across shard counts,
// every engine mode, both storage modes of the appending server (delta
// segments in files or in the heap), and with the appending server's
// caches both cold and warm (pre-append mines populate the Prepared
// handles and result cache; stale hits must miss after the append).
func TestAppendThenMineMatchesReupload(t *testing.T) {
	rows := appendRows(31, 240)
	base, mid := 180, 210
	for _, k := range []int{1, 2, 7} {
		for _, warm := range []bool{false, true} {
			t.Run(fmt.Sprintf("k=%d/warm=%v", k, warm), func(t *testing.T) {
				q := fmt.Sprintf("name=inc&threshold=0.5&shards=%d", k)
				_, tsB := testServer(t, Options{Workers: 2})
				dsB := uploadCSV(t, tsB.URL, q, appendCSV(rows, 0, len(rows)))
				varsB := appendVariants(dsB.ID)
				for _, durable := range []bool{false, true} {
					t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
						optA := Options{Workers: 2}
						if durable {
							optA.DataDir = t.TempDir()
						}
						_, tsA := testServer(t, optA)
						dsA := uploadCSV(t, tsA.URL, q, appendCSV(rows, 0, base))
						if dsA.Generation != 0 {
							t.Fatalf("fresh dataset generation = %d", dsA.Generation)
						}
						varsA := appendVariants(dsA.ID)
						if warm {
							for _, req := range varsA {
								resultBytes(t, tsA.URL, req)
							}
						}

						info := mustAppend(t, tsA.URL, dsA.ID, "", appendNDJSON(rows, base, mid))
						if info.Generation != 1 || info.Samples != mid {
							t.Fatalf("after NDJSON append: %+v", info)
						}
						info = mustAppend(t, tsA.URL, dsA.ID, "csv", appendCSV(rows, mid, len(rows)))
						if info.Generation != 2 || info.Samples != len(rows) {
							t.Fatalf("after CSV append: %+v", info)
						}

						for i := range varsA {
							got := resultBytes(t, tsA.URL, varsA[i])
							want := resultBytes(t, tsB.URL, varsB[i])
							if !bytes.Equal(got, want) {
								t.Fatalf("variant %d: append-then-mine diverges from re-upload:\n%s\nvs\n%s", i, got, want)
							}
							if i == 0 {
								var doc struct {
									Patterns []json.RawMessage `json:"patterns"`
								}
								if err := json.Unmarshal(want, &doc); err != nil || len(doc.Patterns) == 0 {
									t.Fatalf("vacuous comparison: %v, %d patterns", err, len(doc.Patterns))
								}
							}
						}
					})
				}
			})
		}
	}
}

// TestAppendMetricsAndGenerationGauge checks the observability surface:
// appends_total, append_rows_total and the per-dataset generation gauge
// move with each append.
func TestAppendMetricsAndGenerationGauge(t *testing.T) {
	rows := appendRows(32, 120)
	_, ts := testServer(t, Options{Workers: 1})
	ds := uploadCSV(t, ts.URL, "name=m&threshold=0.5&shards=1", appendCSV(rows, 0, 90))
	mustAppend(t, ts.URL, ds.ID, "", appendNDJSON(rows, 90, 100))
	mustAppend(t, ts.URL, ds.ID, "csv", appendCSV(rows, 100, 120))

	var m MetricsJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Appends.AppendsTotal != 2 || m.Appends.AppendRowsTotal != 30 {
		t.Fatalf("append counters = %+v, want 2 appends / 30 rows", m.Appends)
	}
	if g := m.Appends.DatasetGenerations[ds.ID]; g != 2 {
		t.Fatalf("generation gauge = %v, want 2", m.Appends.DatasetGenerations)
	}
}

// TestAppendValidation is the 400 table: malformed bodies must be
// rejected atomically — a failed append leaves the dataset's samples,
// generation, and mineability untouched.
func TestAppendValidation(t *testing.T) {
	rows := appendRows(33, 60)
	_, ts := testServer(t, Options{Workers: 1})
	ds := uploadCSV(t, ts.URL, "name=v&threshold=0.5&shards=2", appendCSV(rows, 0, 60))
	next := len(rows) * 10 // the one valid next grid timestamp

	cases := []struct {
		name, format, body string
	}{
		{"empty-body", "", ""},
		{"not-json", "", "this is not json\n"},
		{"missing-time", "", `{"values":{"A":1,"B":0,"C":1}}`},
		{"null-time", "", `{"time":null,"values":{"A":1,"B":0,"C":1}}`},
		{"duplicate-time", "", `{"time":590,"values":{"A":1,"B":0,"C":1}}`},
		{"gap-time", "", fmt.Sprintf(`{"time":%d,"values":{"A":1,"B":0,"C":1}}`, next+10)},
		{"missing-series", "", fmt.Sprintf(`{"time":%d,"values":{"A":1,"B":0}}`, next)},
		{"extra-series", "", fmt.Sprintf(`{"time":%d,"values":{"A":1,"B":0,"C":1,"D":1}}`, next)},
		{"unknown-series", "", fmt.Sprintf(`{"time":%d,"values":{"A":1,"B":0,"Q":1}}`, next)},
		{"null-value", "", fmt.Sprintf(`{"time":%d,"values":{"A":1,"B":0,"C":null}}`, next)},
		{"object-value", "", fmt.Sprintf(`{"time":%d,"values":{"A":1,"B":0,"C":{}}}`, next)},
		{"unknown-top-field", "", fmt.Sprintf(`{"time":%d,"vals":{"A":1,"B":0,"C":1}}`, next)},
		{"second-row-dup", "", fmt.Sprintf("{\"time\":%d,\"values\":{\"A\":1,\"B\":0,\"C\":1}}\n{\"time\":%d,\"values\":{\"A\":1,\"B\":0,\"C\":1}}", next, next)},
		{"csv-missing-header", "csv", ""},
		{"csv-wrong-header", "csv", fmt.Sprintf("time,A,C,B\n%d,1,0,1\n", next)},
		{"csv-no-time-column", "csv", fmt.Sprintf("A,B,C,D\n%d,1,0,1\n", next)},
		{"csv-mixed-arity", "csv", fmt.Sprintf("time,A,B,C\n%d,1,0\n", next)},
		{"csv-bad-time", "csv", "time,A,B,C\nnoon,1,0,1\n"},
		{"csv-empty-cell", "csv", fmt.Sprintf("time,A,B,C\n%d,1,,1\n", next)},
		{"csv-header-only", "csv", "time,A,B,C\n"},
		{"bad-format", "xml", "<rows/>"},
	}
	for _, tc := range cases {
		code, body := postAppend(t, ts.URL, ds.ID, tc.format, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, code, body)
		}
	}

	// A number beyond float64's range gets the message of any value that
	// is neither a number nor a string.
	overflow := fmt.Sprintf(`{"time":%d,"values":{"A":1,"B":0,"C":1e309}}`, next)
	if code, body := postAppend(t, ts.URL, ds.ID, "", overflow); code != http.StatusBadRequest ||
		!strings.Contains(string(body), `series \"C\": value 1e309 is neither a number nor a symbol name`) {
		t.Errorf("overflowing value: status %d (%s), want 400 naming the value", code, body)
	}

	// Unknown dataset ids are 404, not 400.
	if code, _ := postAppend(t, ts.URL, "ds-999", "", appendNDJSON(rows, 0, 1)); code != http.StatusNotFound {
		t.Errorf("unknown dataset: status %d, want 404", code)
	}

	var info DatasetInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/datasets/"+ds.ID, nil, &info); code != http.StatusOK {
		t.Fatalf("dataset after rejected appends: status %d", code)
	}
	if info.Samples != 60 || info.Generation != 0 {
		t.Fatalf("rejected appends mutated the dataset: %+v", info)
	}
	if done := mineDone(t, ts.URL, appendVariants(ds.ID)[0]); done.Summary.Patterns == 0 {
		t.Fatal("dataset unusable after rejected appends")
	}
}

// TestAppendRemovedDataset pins the append-vs-removal determinism: once
// DELETE returns, an append on the id is a clean 404; and an append that
// loses the commit race (removal between lookup and swap) is a 409 that
// neither swaps generations nor logs a WAL record.
func TestAppendRemovedDataset(t *testing.T) {
	rows := appendRows(34, 80)
	srv, ts := testServer(t, Options{Workers: 1})
	ds := uploadCSV(t, ts.URL, "name=r&threshold=0.5&shards=1", appendCSV(rows, 0, 60))

	// The commit race, deterministically: hold the Dataset handle across
	// the removal, as the handler does between reg.get and the commit.
	held, ok := srv.reg.get(ds.ID)
	if !ok {
		t.Fatal("dataset missing")
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/datasets/"+ds.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	cur := held.view()
	next := held.advanceTo(genFromSource(cur.src, cur.fingerprint, nil, 0))
	if srv.reg.appendDataset(held, next, appendRecord{ID: held.id, Gen: next.gen}) {
		t.Fatal("appendDataset committed to a removed dataset")
	}
	if held.view().gen != 0 {
		t.Fatal("losing append still swapped the generation")
	}

	// Post-removal appends over HTTP are 404s.
	if code, _ := postAppend(t, ts.URL, ds.ID, "", appendNDJSON(rows, 60, 61)); code != http.StatusNotFound {
		t.Fatalf("append after delete: status %d, want 404", code)
	}
}

// TestConcurrentAppendsVsMines exercises the generation model under the
// race detector: a stream of appends advances the dataset while mining
// jobs run against whatever generation they captured, and two appends
// racing for the same grid slot resolve deterministically (one 200, one
// 400). Afterwards the accumulated dataset mines byte-identically to a
// cold full upload.
func TestConcurrentAppendsVsMines(t *testing.T) {
	rows := appendRows(35, 360)
	base := 240
	_, ts := testServer(t, Options{Workers: 4})
	ds := uploadCSV(t, ts.URL, "name=c&threshold=0.5&shards=2", appendCSV(rows, 0, base))
	req := appendVariants(ds.ID)

	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Appender: four 30-row chunks, alternating formats.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			lo, hi := base+30*i, base+30*(i+1)
			var code int
			var body []byte
			if i%2 == 0 {
				code, body = postAppend(t, ts.URL, ds.ID, "", appendNDJSON(rows, lo, hi))
			} else {
				code, body = postAppend(t, ts.URL, ds.ID, "csv", appendCSV(rows, lo, hi))
			}
			if code != http.StatusOK {
				errs <- fmt.Errorf("append chunk %d: status %d: %s", i, code, body)
				return
			}
		}
	}()

	// Miners: submit and await jobs throughout the append stream.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				r := req[(w+2*i)%len(req)]
				body, _ := json.Marshal(r)
				var job JobInfo
				if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", bytes.NewReader(body), &job); code != http.StatusAccepted {
					errs <- fmt.Errorf("miner %d: submit status %d", w, code)
					return
				}
				deadline := time.Now().Add(30 * time.Second)
				for {
					var info JobInfo
					doJSON(t, http.MethodGet, ts.URL+"/jobs/"+job.ID, nil, &info)
					if info.State.Terminal() {
						if info.State != JobDone {
							errs <- fmt.Errorf("miner %d: job %s ended %s (%s)", w, job.ID, info.State, info.Error)
						}
						break
					}
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("miner %d: job %s stuck", w, job.ID)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var info DatasetInfo
	doJSON(t, http.MethodGet, ts.URL+"/datasets/"+ds.ID, nil, &info)
	if info.Samples != 360 || info.Generation != 4 {
		t.Fatalf("after concurrent run: %+v, want 360 samples at generation 4", info)
	}

	// Two appends racing for the same grid slot: exactly one wins.
	body := fmt.Sprintf("{\"time\":%d,\"values\":{\"A\":1,\"B\":1,\"C\":1}}", 360*10)
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _ := postAppend(t, ts.URL, ds.ID, "", body)
			codes <- code
		}()
	}
	wg.Wait()
	close(codes)
	got := []int{<-codes, <-codes}
	if !(got[0] == 200 && got[1] == 400 || got[0] == 400 && got[1] == 200) {
		t.Fatalf("racing identical appends returned %v, want one 200 and one 400", got)
	}

	// The accumulated dataset mines identically to a cold full upload.
	_, ts2 := testServer(t, Options{Workers: 4})
	full := appendCSV(rows, 0, 360) + fmt.Sprintf("%d,1,1,1\n", 360*10)
	ds2 := uploadCSV(t, ts2.URL, "name=c&threshold=0.5&shards=2", full)
	for i, r2 := range appendVariants(ds2.ID) {
		want := resultBytes(t, ts2.URL, r2)
		if got := resultBytes(t, ts.URL, req[i]); !bytes.Equal(got, want) {
			t.Fatalf("variant %d: post-race mine diverges from full upload", i)
		}
	}
}

// TestIngestRejectsWrappingGrid pins that a sampling grid whose end
// Start + Len·Step wraps past the largest int64 timestamp is a 400
// invalid_argument on upload, in both layouts, and on an append that
// would push a valid grid's end past it — never an accepted dataset
// whose jobs panic cutting backwards intervals.
func TestIngestRejectsWrappingGrid(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	// The differences wrap to an even step of 2 from MaxInt64-1.
	wrap := "time,A,B\n9223372036854775806,0.9,0\n-9223372036854775808,0,0.9\n-9223372036854775806,0.9,0.9\n"
	for _, format := range []string{"numeric", "symbolic"} {
		var env apiError
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets?format="+format, strings.NewReader(wrap), &env)
		if code != http.StatusBadRequest || env.Error.Code != codeInvalidArgument {
			t.Errorf("%s upload: status %d code %q (%s), want 400 %s", format, code, env.Error.Code, env.Error.Message, codeInvalidArgument)
		}
	}

	// This grid ends exactly at MaxInt64; one more sample would wrap.
	ds := uploadCSV(t, ts.URL, "format=numeric&threshold=0.5", "time,A,B\n9223372036854775803,0.9,0\n9223372036854775805,0,0.9\n")
	code, body := postAppend(t, ts.URL, ds.ID, "", `{"time":9223372036854775807,"values":{"A":0.9,"B":0}}`)
	var env apiError
	if err := json.Unmarshal(body, &env); err != nil || code != http.StatusBadRequest || env.Error.Code != codeInvalidArgument {
		t.Errorf("wrapping append: status %d (%s), want 400 %s", code, body, codeInvalidArgument)
	}
}

// BenchmarkAppendChain times one append of a NIST-sized day — 48 rows of
// 72 series, as NDJSON — through ServeHTTP on an in-memory server, where
// the timed append is the dataset's depth-th (so it chains a delta onto
// depth-1 earlier ones). An append's cost should follow the rows it adds,
// not the chain it lands on. Every further iteration appends one more
// day, so beyond -benchtime=1x the depth grows by b.N.
func BenchmarkAppendChain(b *testing.B) {
	const series, day, step = 72, 48, 1800
	value := func(s, i int) int { return (i/(3+s%5) + s) % 2 } // runs of 3–7
	for _, depth := range []int{1, 120} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			srv, err := New(Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			post := func(target string, body []byte) {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
				if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
					b.Fatalf("POST %s: status %d: %s", target, rec.Code, rec.Body.Bytes())
				}
			}
			var csv bytes.Buffer
			csv.WriteString("time")
			for s := 0; s < series; s++ {
				fmt.Fprintf(&csv, ",S%d", s)
			}
			const baseRows = 14 * day
			for i := 0; i < baseRows; i++ {
				fmt.Fprintf(&csv, "\n%d", i*step)
				for s := 0; s < series; s++ {
					fmt.Fprintf(&csv, ",%d", value(s, i))
				}
			}
			post("/v1/datasets?name=chain&threshold=0.5", csv.Bytes())
			days := make([][]byte, depth-1+b.N)
			for d := range days {
				var nd bytes.Buffer
				for i := baseRows + d*day; i < baseRows+(d+1)*day; i++ {
					fmt.Fprintf(&nd, `{"time":%d,"values":{`, i*step)
					for s := 0; s < series; s++ {
						if s > 0 {
							nd.WriteByte(',')
						}
						fmt.Fprintf(&nd, `"S%d":%d`, s, value(s, i))
					}
					nd.WriteString("}}\n")
				}
				days[d] = nd.Bytes()
			}
			for _, body := range days[:depth-1] {
				post("/v1/datasets/ds-1/append", body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, body := range days[depth-1:] {
				post("/v1/datasets/ds-1/append", body)
			}
		})
	}
}

// TestAppendTooLarge holds an oversize append body to a 413 even when its
// first rows are valid: the body is read whole before any row is
// checked, and none is applied.
func TestAppendTooLarge(t *testing.T) {
	rows := appendRows(35, 100)
	_, ts := testServer(t, Options{Workers: 1, MaxUploadBytes: 512})
	ds := uploadCSV(t, ts.URL, "name=big&threshold=0.5", appendCSV(rows, 0, 20))
	for _, format := range []string{"", "csv"} {
		body := appendNDJSON(rows, 20, 100)
		if format == "csv" {
			body = appendCSV(rows, 20, 100)
		}
		if len(body) <= 512 {
			t.Fatalf("%q body of %d bytes fits the limit", format, len(body))
		}
		if code, data := postAppend(t, ts.URL, ds.ID, format, body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize %q append: status %d (%s), want 413", format, code, data)
		}
	}
	var info DatasetInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/datasets/"+ds.ID, nil, &info); code != http.StatusOK || info.Samples != 20 || info.Generation != 0 {
		t.Fatalf("dataset after oversize appends: status %d, %+v", code, info)
	}
}

// TestNDJSONDecoderEdgeCases pins the json.Decoder behaviours the NDJSON
// scanner reproduces, each on the scanner and on the decoder parser it
// replaced (referenceParseNDJSON). The schema's next grid point is 0, so
// "time":-0 is on the grid. want lists each accepted row's symbols, rows
// separated by ';'; "" means the body is rejected.
func TestNDJSONDecoderEdgeCases(t *testing.T) {
	mk := func(name string) *ftpm.SymbolicSeries {
		return &ftpm.SymbolicSeries{Name: name, Start: -10, Step: 10, Alphabet: []string{"Off", "On"}, Symbols: []int{0}}
	}
	sdb, err := ftpm.NewSymbolicDB(mk("A"), mk("B"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, body, want string }{
		{"plain", `{"time":0,"values":{"A":1,"B":0}}`, "On Off"},
		{"fold-cased keys", `{"TIME":0,"Values":{"A":1,"B":0}}`, "On Off"},
		{"unicode fold", `{"time":0,"valueſ":{"A":1,"B":0}}`, "On Off"},
		{"escaped keys", `{"\u0074ime":0,"values":{"\u0041":1,"B":"O\u006e"}}`, "On On"},
		{"series keys are exact", `{"time":0,"values":{"a":1,"B":0}}`, ""},
		{"last time wins", `{"time":50,"time":0,"values":{"A":1,"B":0}}`, "On Off"},
		{"time null after time", `{"time":0,"time":null,"values":{"A":1,"B":0}}`, ""},
		{"negative zero time", `{"time":-0,"values":{"A":1,"B":0}}`, "On Off"},
		{"fractional time", `{"time":0.0,"values":{"A":1,"B":0}}`, ""},
		{"exponent time", `{"time":0e0,"values":{"A":1,"B":0}}`, ""},
		{"string time", `{"time":"0","values":{"A":1,"B":0}}`, ""},
		{"values merge", `{"time":0,"values":{"A":1},"values":{"B":0}}`, "On Off"},
		{"duplicate key counts once", `{"time":0,"values":{"A":1,"A":0}}`, ""},
		{"duplicate key keeps last", `{"time":0,"values":{"A":1,"B":0,"A":0}}`, "Off Off"},
		{"replaced rejected cell", `{"time":0,"values":{"A":true,"B":0,"A":[1,{"x":null}]},"values":{"A":"x"}}`, "x Off"},
		{"replaced null cell", `{"time":0,"values":{"A":null,"B":0,"A":1}}`, "On Off"},
		{"values null", `{"time":0,"values":null}`, ""},
		{"values null clears", `{"time":0,"values":{"A":1,"Q":1},"values":null,"values":{"A":0,"B":1}}`, "Off On"},
		{"values not an object", `{"time":0,"values":[1,0]}`, ""},
		{"unknown top-level key", `{"time":0,"values":{"A":1,"B":0},"x":1}`, ""},
		{"two rows on one line", `{"time":0,"values":{"A":1,"B":0}}{"time":10,"values":{"A":0,"B":1}} `, "On Off;Off On"},
		{"row over several lines", "{\n\"time\"\n:\n0\n,\r\n\"values\":\t{\n\"A\" : 1 ,\n\"B\":0}\n}\n", "On Off"},
		{"invalid UTF-8", "{\"time\":0,\"values\":{\"A\":\"\xff\",\"B\":0}}", "\ufffd Off"},
		{"invalid UTF-8 key", "{\"time\":0,\"values\":{\"A\xff\":1,\"B\":0}}", ""},
		{"raw control byte", "{\"time\":0,\"values\":{\"A\":\"a\tb\",\"B\":0}}", ""},
		{"bad escape", `{"time":0,"values":{"A":"\x","B":0}}`, ""},
		{"non-object row", `[{"time":0,"values":{"A":1,"B":0}}]`, ""},
		{"null row", `null`, ""},
		{"trailing garbage", `{"time":0,"values":{"A":1,"B":0}} x`, ""},
		{"truncated", `{"time":0,"values":{"A":1,"B":0}`, ""},
		{"plus sign", `{"time":0,"values":{"A":+1,"B":0}}`, ""},
		{"leading dot", `{"time":0,"values":{"A":.5,"B":0}}`, ""},
		{"leading zero", `{"time":0,"values":{"A":01,"B":0}}`, ""},
		{"hex", `{"time":0,"values":{"A":0x10,"B":0}}`, ""},
		{"infinity", `{"time":0,"values":{"A":Inf,"B":0}}`, ""},
		{"underscore", `{"time":0,"values":{"A":1_0,"B":0}}`, ""},
		{"trailing dot", `{"time":0,"values":{"A":1.,"B":0}}`, ""},
		{"deep cell", `{"time":0,"values":{"A":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `,"A":1,"B":0}}`, "On Off"},
		{"too deep cell", `{"time":0,"values":{"A":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"A":1,"B":0}}`, ""},
	}
	parsed := func(p *appendParser, err error) string {
		if err != nil {
			return ""
		}
		var rows []string
		for r := 0; r < p.rows; r++ {
			var cells []string
			for col := range p.cols {
				cells = append(cells, p.alphabets[col][p.cols[col][r]])
			}
			rows = append(rows, strings.Join(cells, " "))
		}
		return strings.Join(rows, ";")
	}
	for _, c := range cases {
		scan, ref := newAppendParser(sdb, 0.5), newAppendParser(sdb, 0.5)
		got := parsed(scan, scan.parseNDJSON(strings.NewReader(c.body)))
		want := parsed(ref, ref.referenceParseNDJSON(strings.NewReader(c.body)))
		if got != c.want || want != c.want {
			t.Errorf("%s: scanner %q, decoder %q, want %q", c.name, got, want, c.want)
		}
	}
}
