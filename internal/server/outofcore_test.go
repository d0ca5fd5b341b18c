package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ftpm"
	"ftpm/internal/csvio"
	"ftpm/internal/server/store"
)

// Out-of-core storage end-to-end tests: mining from mmap'd segments must
// be byte-identical to mining from RAM, fresh-upload WAL records must be
// small, orphan segments from a crash inside the seal window must be
// collected, event ids must survive restarts, and the firehose
// subscriber quota must shed with the standard envelope.

// periodicCSV builds an upload body of nSeries square waves flipping
// every `period` samples, phase-shifted per series — long runs, so the
// columnar segment encoding is tiny relative to the sample count.
func periodicCSV(nSeries, nSamples, period int) string {
	var sb strings.Builder
	sb.WriteString("time")
	for s := 0; s < nSeries; s++ {
		fmt.Fprintf(&sb, ",S%d", s)
	}
	sb.WriteByte('\n')
	for i := 0; i < nSamples; i++ {
		fmt.Fprintf(&sb, "%d", i)
		for s := 0; s < nSeries; s++ {
			if ((i+s*period/2)/period)%2 == 0 {
				sb.WriteString(",1")
			} else {
				sb.WriteString(",0")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// referenceDB symbolizes a numeric upload body in-process, as the
// server's ingestion does.
func referenceDB(t *testing.T, body string, threshold float64) *ftpm.SymbolicDB {
	t.Helper()
	series, err := csvio.ReadNumeric(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := ftpm.Symbolize(series, func(string) ftpm.Symbolizer { return ftpm.OnOff(threshold) })
	if err != nil {
		t.Fatal(err)
	}
	return sdb
}

// referenceDoc mines sdb in-process through the library's SymbolicDB
// path (ftpm.Prepare + Prepared.Mine) with the options of req, decoded
// from JSON as a server /result document is.
func referenceDoc(t *testing.T, sdb *ftpm.SymbolicDB, shards int, req MiningRequest) *ftpm.ResultJSON {
	t.Helper()
	prep, err := ftpm.Prepare(sdb, req.splitOptions(), shards)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Mine(context.Background(), req.options())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res.Document())
	if err != nil {
		t.Fatal(err)
	}
	var doc ftpm.ResultJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return &doc
}

// TestSegmentMiningByteIdentical is the storage-equivalence property
// test: the same CSV uploaded to a durable server (segment files) and to
// a non-durable one (heap-held segments), mined with every job kind
// across shard counts, must produce byte-identical result documents —
// equal, once decoded, to mining the in-memory symbolic database
// in-process. Runs under -race in short mode — it is the core
// correctness claim of the storage layer.
func TestSegmentMiningByteIdentical(t *testing.T) {
	_, tsSeg := testServer(t, Options{Workers: 2, DataDir: t.TempDir()})
	_, tsMem := testServer(t, Options{Workers: 2})
	sdb := referenceDB(t, smallCSV(), 0.5)

	for _, shards := range []int{1, 2, 7} {
		query := fmt.Sprintf("name=k%d&threshold=0.5&shards=%d", shards, shards)
		dsSeg := uploadCSV(t, tsSeg.URL, query, smallCSV())
		dsMem := uploadCSV(t, tsMem.URL, query, smallCSV())
		if dsSeg.ID != dsMem.ID {
			t.Fatalf("dataset ids diverged: %s vs %s", dsSeg.ID, dsMem.ID)
		}
		if dsSeg.Storage != "segment" || dsSeg.ResidentBytes != 0 || dsSeg.SegmentBytes <= 0 || dsSeg.Segments != 1 {
			t.Fatalf("durable upload storage = %+v, want segment-backed with 0 resident bytes", dsSeg)
		}
		if dsMem.Storage != "memory" || dsMem.ResidentBytes <= 0 || dsMem.SegmentBytes != 0 {
			t.Fatalf("in-memory upload storage = %+v, want memory-backed", dsMem)
		}

		for _, req := range []MiningRequest{
			{DatasetID: dsSeg.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 3},
			{DatasetID: dsSeg.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2,
				Approx: &ApproxRequest{Density: 0.8}},
			{DatasetID: dsSeg.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2,
				Approx: &ApproxRequest{Density: 0.6, EventLevel: true}},
		} {
			jobSeg := mineDone(t, tsSeg.URL, req)
			jobMem := mineDone(t, tsMem.URL, req)
			if jobSeg.ID != jobMem.ID {
				t.Fatalf("job ids diverged: %s vs %s", jobSeg.ID, jobMem.ID)
			}
			code, docSeg := getRaw(t, tsSeg.URL+"/jobs/"+jobSeg.ID+"/result")
			if code != 200 {
				t.Fatalf("segment result: status %d", code)
			}
			code, docMem := getRaw(t, tsMem.URL+"/jobs/"+jobMem.ID+"/result")
			if code != 200 {
				t.Fatalf("memory result: status %d", code)
			}
			if string(docSeg) != string(docMem) {
				t.Fatalf("shards=%d job %s: segment-backed result differs from in-memory result\nsegment: %s\nmemory:  %s",
					shards, jobSeg.ID, docSeg, docMem)
			}
			var got ftpm.ResultJSON
			if err := json.Unmarshal(docSeg, &got); err != nil {
				t.Fatal(err)
			}
			if want := referenceDoc(t, sdb, shards, req); !reflect.DeepEqual(&got, want) {
				t.Fatalf("shards=%d job %s: served result (%d patterns) differs from the in-process SymbolicDB mine (%d patterns)",
					shards, jobSeg.ID, len(got.Patterns), len(want.Patterns))
			}
		}
	}
}

// TestFreshUploadWALIsMetadataOnly checks the record-size claim: a
// durable upload's whole WAL must be an order of magnitude smaller than
// the legacy full-payload dataset record for the same content.
func TestFreshUploadWALIsMetadataOnly(t *testing.T) {
	csv := periodicCSV(4, 20000, 100)
	_, tsSeg := testServer(t, Options{Workers: 1, DataDir: t.TempDir()})

	ds := uploadCSV(t, tsSeg.URL, "name=wal&threshold=0.5&shards=1", csv)

	var m MetricsJSON
	if code := doJSON(t, http.MethodGet, tsSeg.URL+"/metrics", nil, &m); code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Persistence == nil || m.Persistence.WALBytes <= 0 {
		t.Fatalf("no persistence metrics after durable upload: %+v", m.Persistence)
	}
	if m.Storage.SegmentsTotal != 1 || m.Storage.DatasetSegmentBytes <= 0 || m.Storage.DatasetResidentBytes != 0 {
		t.Fatalf("storage metrics = %+v, want one segment and no resident payload", m.Storage)
	}

	legacy, err := json.Marshal(legacyRecord(ds, referenceDB(t, csv, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(legacy)) < 10*m.Persistence.WALBytes {
		t.Fatalf("WAL after fresh upload = %d bytes, legacy payload record = %d bytes; want >= 10x shrink",
			m.Persistence.WALBytes, len(legacy))
	}
}

// legacyRecord is the full-payload dataset record a log written before
// datasets lived in segments holds for sdb.
func legacyRecord(ds DatasetInfo, sdb *ftpm.SymbolicDB) datasetRecord {
	rec := datasetRecord{ID: ds.ID, Name: ds.Name, CreatedAt: ds.CreatedAt, Shards: ds.Shards,
		Series: make([]seriesRecord, len(sdb.Series))}
	for i, s := range sdb.Series {
		rec.Series[i] = seriesRecord{Name: s.Name, Start: int64(s.Start), Step: int64(s.Step),
			Alphabet: s.Alphabet, Symbols: s.Symbols}
	}
	return rec
}

// TestOrphanSegmentCleanupAndAppendRetry exercises the crash window
// between sealing a delta segment and logging its WAL record: the sealed
// file must be collected as an orphan on restart, the dataset must come
// back at its pre-append generation, and retrying the same append must
// succeed (the deterministic segment name replaces the leftover).
func TestOrphanSegmentCleanupAndAppendRetry(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := testServer(t, Options{Workers: 1, DataDir: dir})
	ds := uploadCSV(t, ts1.URL, "name=a&threshold=0.5&shards=1", smallCSV())

	// Kill the log underneath the server, then append: the delta segment
	// seals and the generation swaps in memory, but the WAL record is
	// lost — exactly the on-disk state of a crash inside the seal window.
	crash(srv1)
	rows := appendRows(1, 30)
	code, _ := postAppend(t, ts1.URL, ds.ID, "", appendNDJSON(rows, 24, 30))
	if code != http.StatusOK {
		t.Fatalf("append with dead log: status %d", code)
	}
	delta := filepath.Join(dir, "segments", ds.ID+"-g1.seg")
	if _, err := os.Stat(delta); err != nil {
		t.Fatalf("delta segment not sealed: %v", err)
	}
	// Plant a stray temp file too: a crash mid-WriteSegment leaves one.
	stray := filepath.Join(dir, "segments", ds.ID+"-g2.seg.tmp")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.Close()

	_, ts2 := testServer(t, Options{Workers: 1, DataDir: dir})
	var got DatasetInfo
	if code := doJSON(t, http.MethodGet, ts2.URL+"/datasets/"+ds.ID, nil, &got); code != 200 {
		t.Fatalf("dataset after restart: status %d", code)
	}
	if got.Samples != ds.Samples || got.Generation != 0 {
		t.Fatalf("dataset after restart = %d samples gen %d, want the pre-append %d samples gen 0",
			got.Samples, got.Generation, ds.Samples)
	}
	for _, orphan := range []string{delta, stray} {
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived restart (err=%v)", orphan, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "segments", ds.ID+"-g0.seg")); err != nil {
		t.Fatalf("live segment collected: %v", err)
	}

	// The retried append replays cleanly over the recovered state.
	code, body := postAppend(t, ts2.URL, ds.ID, "", appendNDJSON(rows, 24, 30))
	if code != http.StatusOK {
		t.Fatalf("retried append: status %d: %s", code, body)
	}
	var after DatasetInfo
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Samples != ds.Samples+6 || after.Generation != 1 || after.Segments != 2 {
		t.Fatalf("after retry = %+v, want %d samples gen 1 across 2 segments", after, ds.Samples+6)
	}
	mineDone(t, ts2.URL, MiningRequest{DatasetID: ds.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2})
}

// TestEventIDsSurviveRestart checks the hub sequence re-seeds past every
// persisted event id, so a client's Last-Event-ID from before the bounce
// never collides with a fresh post-restart id.
func TestEventIDsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := testServer(t, Options{Workers: 1, DataDir: dir})
	ds := uploadCSV(t, ts1.URL, "name=a&threshold=0.5&shards=1", smallCSV())
	mineDone(t, ts1.URL, MiningRequest{DatasetID: ds.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2})
	before := srv1.hub.LastID()
	if before == 0 {
		t.Fatal("no events published before restart")
	}
	ts1.Close()
	srv1.Close()

	srv2, ts2 := testServer(t, Options{Workers: 1, DataDir: dir})
	if after := srv2.hub.LastID(); after < before {
		t.Fatalf("hub restarted at id %d, below the persisted %d", after, before)
	}
	// New events continue strictly past the old sequence.
	job := mineDone(t, ts2.URL, MiningRequest{DatasetID: ds.ID, MinSupport: 0.3, NumWindows: 2, MaxPatternSize: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events := readSSE(t, ctx, ts2.URL+"/v1/jobs/"+job.ID+"/events", "", nil)
	if len(events) == 0 {
		t.Fatal("no replayed events for the post-restart job")
	}
	for _, e := range events {
		if e.id != 0 && e.id <= before {
			t.Fatalf("post-restart event id %d not past the pre-restart maximum %d", e.id, before)
		}
	}
}

// TestFirehoseSubscriberQuota holds the single allowed firehose slot and
// checks the next connection is shed with the standard 429 envelope while
// per-job streams stay admitted; releasing the slot readmits.
func TestFirehoseSubscriberQuota(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, MaxStreamSubscribers: 1})
	ds := uploadCSV(t, ts.URL, "name=a&threshold=0.5&shards=1", smallCSV())
	job := mineDone(t, ts.URL, MiningRequest{DatasetID: ds.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2})

	held, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	if held.StatusCode != http.StatusOK {
		t.Fatalf("first firehose: status %d", held.StatusCode)
	}

	shed, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(shed.Body)
	shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second firehose: status %d, want 429", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var apiErr apiError
	if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Error.Code != codeQuotaExceeded {
		t.Fatalf("shed body = %s (err %v), want a %s envelope", body, err, codeQuotaExceeded)
	}

	// Per-job streams are not counted against the firehose quota.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if events := readSSE(t, ctx, ts.URL+"/v1/jobs/"+job.ID+"/events", "", nil); len(events) == 0 {
		t.Fatal("per-job stream starved by the firehose quota")
	}

	var m MetricsJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Events.RejectedStreams < 1 || m.Events.FirehoseStreams != 1 {
		t.Fatalf("events metrics = %+v, want >=1 rejection and 1 held firehose stream", m.Events)
	}

	// Releasing the held slot readmits the next subscriber.
	held.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/events")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("firehose slot never released: status %d", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOutOfCoreSoak uploads a dataset two orders of magnitude larger
// than the usual test fixtures to a durable server and mines it. CI runs
// it under a GOMEMLIMIT well below the dataset's expanded size: the heap
// never holds the symbol payload (the mmap'd column does), so the run
// must stay healthy.
func TestOutOfCoreSoak(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2, DataDir: t.TempDir()})
	ds := uploadCSV(t, ts.URL, "name=soak&threshold=0.5&shards=2", periodicCSV(4, 200000, 100))
	if ds.Storage != "segment" || ds.ResidentBytes != 0 {
		t.Fatalf("soak dataset = %+v, want segment-backed with no resident payload", ds)
	}
	if ds.Samples != 200000 {
		t.Fatalf("soak dataset has %d samples", ds.Samples)
	}
	mineDone(t, ts.URL, MiningRequest{
		DatasetID: ds.ID, MinSupport: 0.4, NumWindows: 8, MaxPatternSize: 2,
		Approx: &ApproxRequest{Density: 0.6, EventLevel: true},
	})
}

// fingerprintSource is the v1 content fingerprint, the digest servers
// recorded before v2 (contentDigest): it hashes series names, timing,
// alphabets, and every sample's symbol id in order. Logs written before
// v2 carry it in WAL records, segment footers and job records, where it
// stays an opaque cache key; the tests build such logs with it. A chained
// view hashes exactly like the same content sealed in one segment. Every
// string and collection is length-prefixed, so the encoding is
// unambiguous.
func fingerprintSource(src ftpm.SymbolSource) string {
	h := sha256.New()
	// Writes are batched in buf and reach the hash 32 KiB at a time; a
	// hash digests the concatenation of its writes, so the batching leaves
	// the digest unchanged.
	buf := make([]byte, 0, 32<<10)
	writeInt := func(v int64) {
		if len(buf)+8 > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	writeStr := func(s string) {
		writeInt(int64(len(s)))
		buf = append(buf, s...)
	}
	// writeRun writes v once per sample of a run: the first 8-byte word,
	// then doubling copies of what is already written, up to the free
	// whole words of buf.
	writeRun := func(v int64, samples int) {
		for n := 8 * samples; n > 0; {
			room := (cap(buf) - len(buf)) &^ 7
			if room == 0 {
				h.Write(buf)
				buf = buf[:0]
				room = cap(buf) &^ 7
			}
			k := min(n, room)
			at := len(buf)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			buf = buf[:at+k]
			for w := at + 8; w < len(buf); {
				w += copy(buf[w:], buf[at:w])
			}
			n -= k
		}
	}
	n := src.NumSeries()
	writeInt(int64(n))
	var runs []ftpm.Run
	for i := 0; i < n; i++ {
		writeStr(src.SeriesName(i))
		writeInt(int64(src.Start()))
		writeInt(int64(src.Step()))
		alpha := src.SeriesAlphabet(i)
		writeInt(int64(len(alpha)))
		for _, a := range alpha {
			writeStr(a)
		}
		writeInt(int64(src.Len()))
		runs = src.AppendRuns(i, runs[:0])
		for _, r := range runs {
			writeRun(int64(r.Symbol), r.Last-r.First+1)
		}
	}
	h.Write(buf)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenFingerprint is the content fingerprint of goldenDB. Fingerprints
// are recorded in WAL records and segment footers and key the result
// cache across restarts, so the digest must never change.
const goldenFingerprint = "7c78a0590be456ec118e7e6e069bbe187051a3df1d0f6bbac5f9a03232bd02ae"

// goldenDB builds the fixed database of samples [lo, hi) behind
// goldenFingerprint. Every slice carries the full alphabets, as an
// append's delta does.
func goldenDB(t *testing.T, lo, hi int) *ftpm.SymbolicDB {
	t.Helper()
	a := []int{0, 0, 1, 1, 1, 0, 1, 1}
	b := []int{2, 2, 2, 0, 1, 1, 0, 0}
	start := ftpm.Time(100 + 10*lo)
	sdb, err := ftpm.NewSymbolicDB(
		&ftpm.SymbolicSeries{Name: "A", Start: start, Step: 10, Alphabet: []string{"Off", "On"}, Symbols: a[lo:hi]},
		&ftpm.SymbolicSeries{Name: "B", Start: start, Step: 10, Alphabet: []string{"Lo", "Mid", "Hi"}, Symbols: b[lo:hi]},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sdb
}

// TestFingerprintGolden pins the fingerprint digest over every form a
// dataset's content takes: the in-memory database, its sealed segment,
// and a chain of two sealed segments split at sample 3, where series A's
// run of Ons crosses the seam and series B's runs meet it.
func TestFingerprintGolden(t *testing.T) {
	sealed := func(sdb *ftpm.SymbolicDB) *store.Segment {
		img, err := store.EncodeSegment(sdb, "fp")
		if err != nil {
			t.Fatal(err)
		}
		seg, err := store.ParseSegment(img)
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}
	for _, c := range []struct {
		name string
		src  ftpm.SymbolSource
	}{
		{"memory", goldenDB(t, 0, 8)},
		{"segment", sealed(goldenDB(t, 0, 8))},
		{"chain", chain(sealed(goldenDB(t, 0, 3)), sealed(goldenDB(t, 3, 8)))},
	} {
		if got := fingerprintSource(c.src); got != goldenFingerprint {
			t.Errorf("%s: fingerprint = %s, want %s", c.name, got, goldenFingerprint)
		}
	}
}

// goldenFingerprintV2 is the v2 content fingerprint of goldenDB. Like
// goldenFingerprint, it keys the result cache across restarts, so the
// digest must never change.
const goldenFingerprintV2 = "v2:15d1cfb69ad0de46207c28d4760008ce96965535d4b3d83ad929ec569bb2c"

// TestFingerprintV2Golden pins the v2 fingerprint over the forms of
// TestFingerprintGolden — the in-memory database, its sealed segment, and
// a 3+5 chain whose seam series A's run of Ons crosses — each digested
// from an empty state, and the chain also the way an append digests it:
// the first part's digest resumed over the second part.
func TestFingerprintV2Golden(t *testing.T) {
	sealed := func(sdb *ftpm.SymbolicDB) *store.Segment {
		img, err := store.EncodeSegment(sdb, "fp")
		if err != nil {
			t.Fatal(err)
		}
		seg, err := store.ParseSegment(img)
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}
	whole, seg := goldenDB(t, 0, 8), sealed(goldenDB(t, 0, 8))
	head, tail := sealed(goldenDB(t, 0, 3)), sealed(goldenDB(t, 3, 8))
	chained := chain(head, tail)
	for _, c := range []struct {
		name string
		fp   string
	}{
		{"memory", digestSource(whole).fingerprint(whole)},
		{"segment", digestSource(seg).fingerprint(seg)},
		{"chain", digestSource(chained).fingerprint(chained)},
		{"resumed chain", digestSource(head).extend(tail).fingerprint(chained)},
	} {
		if c.fp != goldenFingerprintV2 {
			t.Errorf("%s: fingerprint = %s, want %s", c.name, c.fp, goldenFingerprintV2)
		}
	}
}

// TestFingerprintBufferBoundaries checks the batched hash against the
// unbatched encoding on content that crosses the scratch buffer many
// times: a series name longer than the buffer itself, constant runs
// longer than the buffer, and runs ending at every sample offset around
// the first buffer flush, behind names of every length mod 8 (so the
// flush falls at every byte alignment).
func TestFingerprintBufferBoundaries(t *testing.T) {
	rows := appendRows(44, 5000)
	sdb := referenceDB(t, appendCSV(rows, 0, len(rows)), 0.5)
	sdb.Series[1].Name = strings.Repeat("n", 40<<10)
	cases := []*ftpm.SymbolicDB{sdb}

	// The first flush comes after ~4087 samples of a one-series database
	// (the buffer holds 4096 words, the header takes the rest).
	for nameLen := 0; nameLen < 8; nameLen++ {
		for first := 4087 - 12; first <= 4087+12; first++ {
			syms := make([]int, 0, first+12000)
			for len(syms) < first {
				syms = append(syms, 1)
			}
			syms = append(syms, 0, 0, 0)
			for len(syms) < first+3+9000 {
				syms = append(syms, 1) // a constant run longer than the buffer
			}
			for i := 0; len(syms) < cap(syms); i++ {
				syms = append(syms, i/(1+i%7)%2)
			}
			db, err := ftpm.NewSymbolicDB(&ftpm.SymbolicSeries{
				Name: strings.Repeat("x", nameLen), Start: 0, Step: 1,
				Alphabet: []string{"a", "b"}, Symbols: syms,
			})
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, db)
		}
	}

	for i, db := range cases {
		if got, want := fingerprintSource(db), unbatchedFingerprint(db); got != want {
			t.Fatalf("case %d: batched fingerprint = %s, unbatched encoding = %s", i, got, want)
		}
	}
}

// unbatchedFingerprint is the fingerprint encoding written one value at a
// time, the reference fingerprintSource's batching must not change.
func unbatchedFingerprint(sdb *ftpm.SymbolicDB) string {
	h := sha256.New()
	writeInt := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	writeStr := func(s string) { writeInt(int64(len(s))); io.WriteString(h, s) }
	writeInt(int64(len(sdb.Series)))
	for _, s := range sdb.Series {
		writeStr(s.Name)
		writeInt(int64(s.Start))
		writeInt(int64(s.Step))
		writeInt(int64(len(s.Alphabet)))
		for _, a := range s.Alphabet {
			writeStr(a)
		}
		writeInt(int64(len(s.Symbols)))
		for _, sym := range s.Symbols {
			writeInt(int64(sym))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
