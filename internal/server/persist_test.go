package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ftpm"
)

// Restart-recovery tests: a server reopened on the same DataDir must
// serve the same dataset ids/fingerprints and done-job result documents
// byte-identically, mark crash-interrupted jobs as lost, and recover a
// torn WAL tail by truncation.

// getRaw fetches a URL and returns the raw response body, so documents
// from two server generations can be compared byte for byte.
func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// submitJob posts a mining request and returns the accepted job.
func submitJob(t *testing.T, base string, req MiningRequest) JobInfo {
	t.Helper()
	body, _ := json.Marshal(req)
	var job JobInfo
	if code := doJSON(t, http.MethodPost, base+"/jobs", bytes.NewReader(body), &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	return job
}

// mineDone submits a job and waits for it to finish done.
func mineDone(t *testing.T, base string, req MiningRequest) JobInfo {
	t.Helper()
	job := submitJob(t, base, req)
	done := waitState(t, base, job.ID, 30*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
	if done.State != JobDone {
		t.Fatalf("job finished as %s (%s)", done.State, done.Error)
	}
	return done
}

// crash simulates a process death for a durable server: the log file is
// closed underneath it without the terminal sweep or final snapshot a
// graceful Close performs.
func crash(s *Server) { s.persist.log.Close() }

// waitJobsSettled blocks until no job is queued or holds a worker slot. A
// worker logs a job's terminal record before it releases the slot, so once
// settled the WAL holds every terminal transition the API has reported;
// crash tests that reason about the log's tail wait for this first.
func waitJobsSettled(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		busy := false
		for _, tm := range s.jobs.tenantMetrics() {
			busy = busy || tm.Queued > 0 || tm.Running > 0
		}
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs did not settle")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitCompacted polls the metrics endpoint until the background
// compaction has reset the WAL below limit records.
func waitCompacted(t *testing.T, base string, limit int) MetricsJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var m MetricsJSON
		if code := doJSON(t, http.MethodGet, base+"/metrics", nil, &m); code != 200 {
			t.Fatalf("metrics: status %d", code)
		}
		if m.Persistence != nil && m.Persistence.WALRecords < limit {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction did not run: wal_records = %d, want < %d", m.Persistence.WALRecords, limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRestartRecoveryE2E(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := testServer(t, Options{Workers: 2, DataDir: dir})

	plain := uploadCSV(t, ts1.URL, "name=plain&threshold=0.5&shards=1", smallCSV())
	sharded := uploadCSV(t, ts1.URL, "name=sharded&threshold=0.5&shards=4", smallCSV())

	exactReq := MiningRequest{
		DatasetID: plain.ID, MinSupport: 0.2, MinConfidence: 0,
		NumWindows: 2, MaxPatternSize: 3,
	}
	approxReq := MiningRequest{
		DatasetID: sharded.ID, MinSupport: 0.2, MinConfidence: 0,
		NumWindows: 2, MaxPatternSize: 2, Approx: &ApproxRequest{Density: 0.8},
	}
	exactJob := mineDone(t, ts1.URL, exactReq)
	approxJob := mineDone(t, ts1.URL, approxReq)

	code, exactDoc1 := getRaw(t, ts1.URL+"/jobs/"+exactJob.ID+"/result")
	if code != 200 {
		t.Fatalf("result: status %d", code)
	}
	_, approxDoc1 := getRaw(t, ts1.URL+"/jobs/"+approxJob.ID+"/result")
	fp1 := map[string]string{}
	for id, d := range srv1.reg.byID {
		fp1[id] = d.view().fingerprint
	}

	// Clean shutdown, then reopen the same directory.
	ts1.Close()
	srv1.Close()
	srv2, ts2 := testServer(t, Options{Workers: 2, DataDir: dir})

	// Datasets come back under their ids, with identical content.
	for _, want := range []DatasetInfo{plain, sharded} {
		var got DatasetInfo
		if code := doJSON(t, http.MethodGet, ts2.URL+"/datasets/"+want.ID, nil, &got); code != 200 {
			t.Fatalf("dataset %s after restart: status %d", want.ID, code)
		}
		if got.Name != want.Name || got.Shards != want.Shards || got.Samples != want.Samples ||
			len(got.Series) != len(want.Series) || !got.CreatedAt.Equal(want.CreatedAt) {
			t.Fatalf("dataset %s after restart = %+v, want %+v", want.ID, got, want)
		}
	}
	// Content fingerprints re-derive identically from the persisted
	// symbolic payloads.
	for id, want := range fp1 {
		d, ok := srv2.reg.get(id)
		if !ok {
			t.Fatalf("dataset %s missing after restart", id)
		}
		if d.view().fingerprint != want {
			t.Fatalf("dataset %s fingerprint diverged after restart", id)
		}
	}

	// Done jobs come back with byte-identical result documents.
	for jobID, want := range map[string][]byte{exactJob.ID: exactDoc1, approxJob.ID: approxDoc1} {
		var info JobInfo
		if code := doJSON(t, http.MethodGet, ts2.URL+"/jobs/"+jobID, nil, &info); code != 200 {
			t.Fatalf("job %s after restart: status %d", jobID, code)
		}
		if info.State != JobDone || info.Summary == nil {
			t.Fatalf("job %s after restart = %+v", jobID, info)
		}
		if info.Progress.Patterns != info.Summary.Patterns || info.Progress.Level < 2 {
			t.Fatalf("job %s progress not rebuilt from persisted levels: %+v vs %+v", jobID, info.Progress, info.Summary)
		}
		code, doc := getRaw(t, ts2.URL+"/jobs/"+jobID+"/result")
		if code != 200 {
			t.Fatalf("result of %s after restart: status %d", jobID, code)
		}
		if !bytes.Equal(doc, want) {
			t.Fatalf("result document of %s diverged after restart:\n%s\nvs\n%s", jobID, doc, want)
		}
	}

	// Restored done jobs re-seed the result cache: an identical
	// submission completes without mining.
	repeat := mineDone(t, ts2.URL, exactReq)
	if repeat.Summary == nil || !repeat.Summary.ResultCache {
		t.Fatalf("repeat job after restart = %+v, want a result-cache hit", repeat.Summary)
	}

	// Id sequences continue past everything the log ever issued.
	fresh := uploadCSV(t, ts2.URL, "name=fresh&threshold=0.5", smallCSV())
	if fresh.ID != "ds-3" {
		t.Fatalf("first post-restart dataset id = %s, want ds-3", fresh.ID)
	}
	if repeat.ID != "job-3" {
		t.Fatalf("first post-restart job id = %s, want job-3", repeat.ID)
	}

	// Restored datasets mine normally (analysis and prepared artifacts
	// re-derive lazily).
	freshMine := mineDone(t, ts2.URL, MiningRequest{
		DatasetID: sharded.ID, MinSupport: 0.2, MinConfidence: 0,
		NumWindows: 4, MaxPatternSize: 2,
	})
	if freshMine.Summary.Patterns == 0 {
		t.Fatal("post-restart mine found nothing")
	}
}

// TestRestartRequeuesLiveJobs pins the recovery contract for jobs that
// were live (queued or running) when the process died: when their dataset
// survives replay, they re-queue against their tenant and re-run from
// scratch — mining is pure, so a re-run is safe — instead of coming back
// failed. Only a live job whose dataset did not survive is lost.
func TestRestartRequeuesLiveJobs(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := testServer(t, Options{Workers: 1, DataDir: dir})
	info := uploadCSV(t, ts1.URL, "name=small&threshold=0.5", smallCSV())
	gone := uploadCSV(t, ts1.URL, "name=doomed&threshold=0.5", smallCSV())
	slow := uploadCSV(t, ts1.URL, "name=slow&threshold=0.5", slowCSV(4, 12000))

	req := MiningRequest{
		DatasetID: slow.ID, MinSupport: 0.1, MinConfidence: 0,
		NumWindows: 6, MaxPatternSize: 2, Workers: 1,
	}
	running := submitJob(t, ts1.URL, req)
	waitState(t, ts1.URL, running.ID, 10*time.Second, func(j JobInfo) bool { return j.State == JobRunning })
	queued := submitJob(t, ts1.URL, MiningRequest{
		DatasetID: info.ID, MinSupport: 0.2, MinConfidence: 0,
		NumWindows: 2, MaxPatternSize: 2,
	})
	// A queued job whose dataset is removed before the crash cannot
	// re-run after replay.
	orphan := submitJob(t, ts1.URL, MiningRequest{
		DatasetID: gone.ID, MinSupport: 0.2, MinConfidence: 0,
		NumWindows: 2, MaxPatternSize: 2,
	})
	if code := doJSON(t, http.MethodDelete, ts1.URL+"/datasets/"+gone.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete doomed dataset: status %d", code)
	}

	// The process dies: no terminal sweep, no final snapshot.
	crash(srv1)
	_, ts2 := testServer(t, Options{Workers: 1, DataDir: dir})

	// The surviving-dataset jobs re-run to done — nothing is lost.
	for _, id := range []string{running.ID, queued.ID} {
		// Generous deadline: the re-run mines the slow dataset from
		// scratch, and under the race detector on a loaded runner that
		// can take well over a minute.
		got := waitState(t, ts2.URL, id, 4*time.Minute, func(j JobInfo) bool { return j.State.Terminal() })
		if got.State != JobDone {
			t.Fatalf("requeued job %s after crash = %s (%q), want done", id, got.State, got.Error)
		}
		if got.Tenant != DefaultTenant {
			t.Fatalf("requeued job %s tenant = %q, want %q", id, got.Tenant, DefaultTenant)
		}
	}
	// The orphan comes back failed with a distinguishable error.
	var got JobInfo
	if code := doJSON(t, http.MethodGet, ts2.URL+"/jobs/"+orphan.ID, nil, &got); code != 200 {
		t.Fatalf("orphan job after crash: status %d", code)
	}
	if got.State != JobFailed || !strings.Contains(got.Error, "lost to restart") {
		t.Fatalf("orphan job after crash = %s (%q), want failed lost-to-restart", got.State, got.Error)
	}

	var m MetricsJSON
	if code := doJSON(t, http.MethodGet, ts2.URL+"/metrics", nil, &m); code != 200 {
		t.Fatal("metrics after crash")
	}
	if m.QueueDepth != 0 {
		t.Fatalf("queue_depth after recovery jobs finished = %d, want 0", m.QueueDepth)
	}
	if m.JobStates[string(JobFailed)] != 1 || m.JobStates[string(JobDone)] != 2 {
		t.Fatalf("job_states after crash = %v, want 2 done + 1 failed", m.JobStates)
	}
}

func TestGracefulShutdownPersistsCancellations(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Options{Workers: 0, DataDir: dir}) // no workers: jobs stay queued
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 32)
	for i := range vals {
		vals[i] = float64(i % 2)
	}
	series, err := ftpm.NewTimeSeries("A", 0, 1, vals)
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := ftpm.Symbolize([]*ftpm.TimeSeries{series}, func(string) ftpm.Symbolizer { return ftpm.OnOff(0.5) })
	if err != nil {
		t.Fatal(err)
	}
	ds := srv1.reg.add("a", sdb, 1, 0.5)
	j, err := srv1.jobs.submit(ds, MiningRequest{DatasetID: ds.id, MinSupport: 0.5, NumWindows: 2}, DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	srv2, err := New(Options{Workers: 0, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	got, ok := srv2.jobs.get(j.id)
	if !ok {
		t.Fatalf("job %s missing after graceful restart", j.id)
	}
	info := got.snapshot()
	if info.State != JobCancelled || strings.Contains(info.Error, "lost to restart") {
		t.Fatalf("gracefully shut down job = %s (%q), want cancelled without a lost-to-restart error", info.State, info.Error)
	}
}

func TestTornWALTailRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := testServer(t, Options{Workers: 1, DataDir: dir})
	info := uploadCSV(t, ts1.URL, "name=energy&threshold=0.5", smallCSV())
	done := mineDone(t, ts1.URL, MiningRequest{
		DatasetID: info.ID, MinSupport: 0.2, MinConfidence: 0,
		NumWindows: 2, MaxPatternSize: 3,
	})

	// Crash (so the WAL still holds the events), then tear its tail as a
	// power cut mid-append would.
	waitJobsSettled(t, srv1)
	crash(srv1)
	walPath := filepath.Join(dir, "wal")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := testServer(t, Options{Workers: 1, DataDir: dir})
	// The torn record was the job's terminal transition — the newest
	// event — so the job replays as live; its dataset survived the tear,
	// so it re-queues and re-runs to done rather than coming back lost.
	var ds DatasetInfo
	if code := doJSON(t, http.MethodGet, ts2.URL+"/datasets/"+info.ID, nil, &ds); code != 200 {
		t.Fatalf("dataset after torn-tail recovery: status %d", code)
	}
	if ds.Name != "energy" || ds.Samples != info.Samples {
		t.Fatalf("dataset after torn-tail recovery = %+v", ds)
	}
	rerun := waitState(t, ts2.URL, done.ID, 30*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
	if rerun.State != JobDone || rerun.Summary == nil || rerun.Summary.Patterns == 0 {
		t.Fatalf("job whose terminal record was torn = %s (%q), want re-mined to done", rerun.State, rerun.Error)
	}

	// A tear before the terminal record only costs the tail: rerun the
	// same scenario but tear nothing — the done state round-trips.
	dir2 := t.TempDir()
	srv3, ts3 := testServer(t, Options{Workers: 1, DataDir: dir2})
	info3 := uploadCSV(t, ts3.URL, "name=energy&threshold=0.5", smallCSV())
	done3 := mineDone(t, ts3.URL, MiningRequest{
		DatasetID: info3.ID, MinSupport: 0.2, MinConfidence: 0,
		NumWindows: 2, MaxPatternSize: 3,
	})
	waitJobsSettled(t, srv3)
	crash(srv3)
	wal3 := filepath.Join(dir2, "wal")
	data3, err := os.ReadFile(wal3)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage appended after the last record (a torn next append).
	if err := os.WriteFile(wal3, append(data3, 0xDE, 0xAD, 0xBE), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts4 := testServer(t, Options{Workers: 1, DataDir: dir2})
	code4, doc4 := getRaw(t, ts4.URL+"/jobs/"+done3.ID+"/result")
	_, doc3 := getRaw(t, ts3.URL+"/jobs/"+done3.ID+"/result")
	if code4 != 200 || !bytes.Equal(doc3, doc4) {
		t.Fatalf("done job's document diverged across torn-garbage recovery (%d):\n%s\nvs\n%s", code4, doc4, doc3)
	}
}

func TestSnapshotCompactionAndGauges(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Options{Workers: 1, DataDir: dir, SnapshotEvery: 4})

	var m MetricsJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); code != 200 {
		t.Fatal("metrics")
	}
	if m.Persistence == nil {
		t.Fatal("durable server must report persistence gauges")
	}
	if m.Persistence.SnapshotAgeSeconds < 0 {
		t.Fatalf("snapshot_age_seconds = %v", m.Persistence.SnapshotAgeSeconds)
	}

	// Cross the compaction trigger: ingestions/removals are one WAL
	// record each.
	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		info := uploadCSV(t, ts.URL, "name=d&threshold=0.5", smallCSV())
		ids = append(ids, info.ID)
	}
	for _, id := range ids[:2] {
		if code := doJSON(t, http.MethodDelete, ts.URL+"/datasets/"+id, nil, nil); code != http.StatusNoContent {
			t.Fatalf("delete %s: status %d", id, code)
		}
	}
	waitCompacted(t, ts.URL, 4)
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil {
		t.Fatalf("snapshot file missing after compaction: %v", err)
	}

	// The compacted state replays: 4 datasets, the removed two gone, and
	// removed ids never reissued.
	_, ts2 := testServer(t, Options{Workers: 1, DataDir: dir, SnapshotEvery: 4})
	var list datasetsPage
	if code := doJSON(t, http.MethodGet, ts2.URL+"/datasets", nil, &list); code != 200 || len(list.Datasets) != 4 {
		t.Fatalf("datasets after compacted restart = %d (%d)", len(list.Datasets), code)
	}
	fresh := uploadCSV(t, ts2.URL, "name=later&threshold=0.5", smallCSV())
	if fresh.ID != "ds-7" {
		t.Fatalf("post-compaction dataset id = %s, want ds-7", fresh.ID)
	}
}

// TestRemovedIDsNotReissuedAcrossCompaction pins the id high-water
// mark: when the highest-numbered dataset is removed and a compaction
// then discards its add/remove records, the snapshot's explicit seq
// counters must still stop a restarted server from re-issuing the id
// (a re-issued id would let persisted job records — and the result
// cache they seed — cross-talk with unrelated new content).
func TestRemovedIDsNotReissuedAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Options{Workers: 1, DataDir: dir, SnapshotEvery: 3})

	uploadCSV(t, ts.URL, "name=keep&threshold=0.5", smallCSV())
	gone := uploadCSV(t, ts.URL, "name=gone&threshold=0.5", smallCSV())
	if gone.ID != "ds-2" {
		t.Fatalf("second dataset id = %s", gone.ID)
	}
	// The removal is the third record: compaction fires and the snapshot
	// holds only ds-1 — no surviving record mentions seq 2.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/datasets/"+gone.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	waitCompacted(t, ts.URL, 1)

	_, ts2 := testServer(t, Options{Workers: 1, DataDir: dir, SnapshotEvery: 100})
	fresh := uploadCSV(t, ts2.URL, "name=fresh&threshold=0.5", smallCSV())
	if fresh.ID != "ds-3" {
		t.Fatalf("post-restart dataset id = %s, want ds-3 (ds-2 was issued and removed)", fresh.ID)
	}

	// The same invariant with an empty registry: when the only dataset
	// is removed, no restore loop runs at all, and the counter must
	// still come from the snapshot's explicit seq.
	dir2 := t.TempDir()
	srv3, ts3 := testServer(t, Options{Workers: 1, DataDir: dir2})
	only := uploadCSV(t, ts3.URL, "name=only&threshold=0.5", smallCSV())
	if code := doJSON(t, http.MethodDelete, ts3.URL+"/datasets/"+only.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	ts3.Close()
	srv3.Close() // graceful close compacts: the add/remove records are gone
	_, ts4 := testServer(t, Options{Workers: 1, DataDir: dir2})
	reissued := uploadCSV(t, ts4.URL, "name=new&threshold=0.5", smallCSV())
	if reissued.ID != "ds-2" {
		t.Fatalf("upload after removing the only dataset = %s, want ds-2 (ds-1 was issued and removed)", reissued.ID)
	}
}

// TestClosedServerRejectsMutations pins the shutdown contract: after
// Close the handler keeps answering reads, but uploads and dataset
// removals get 503 — a 201 here would acknowledge state the closed log
// can no longer make durable.
func TestClosedServerRejectsMutations(t *testing.T) {
	srv, ts := testServer(t, Options{Workers: 1, DataDir: t.TempDir()})
	info := uploadCSV(t, ts.URL, "name=a&threshold=0.5", smallCSV())
	srv.Close()

	if code := doJSON(t, http.MethodPost, ts.URL+"/datasets?threshold=0.5", strings.NewReader(smallCSV()), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("upload after Close: status %d, want 503", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/datasets/"+info.ID, nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("dataset delete after Close: status %d, want 503", code)
	}
	var req bytes.Buffer
	req.WriteString(`{"dataset_id":"` + info.ID + `","min_support":0.5,"num_windows":2}`)
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", &req, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("job submit after Close: status %d, want 503", code)
	}
	// Reads stay up.
	if code := doJSON(t, http.MethodGet, ts.URL+"/datasets/"+info.ID, nil, nil); code != 200 {
		t.Fatalf("read after Close: status %d, want 200", code)
	}
}

// TestInMemoryServerHasNoPersistence pins the DataDir=="" contract: no
// persister, no gauges, no files.
func TestInMemoryServerHasNoPersistence(t *testing.T) {
	srv, ts := testServer(t, Options{Workers: 1})
	if srv.persist != nil {
		t.Fatal("in-memory server must not build a persister")
	}
	var m MetricsJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); code != 200 {
		t.Fatal("metrics")
	}
	if m.Persistence != nil {
		t.Fatalf("in-memory server reports persistence gauges: %+v", m.Persistence)
	}
}

// TestAppendRestartRecovery crashes a durable server between an append's
// WAL record and the next snapshot compaction: the replay must apply the
// append exactly once — appended data survives byte-identically, the
// generation does not regress — and a second crash/replay cycle changes
// nothing (idempotence end to end).
func TestAppendRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	rows := appendRows(41, 240)
	// SnapshotEvery is set high so no compaction races the crash: the
	// append exists only as a WAL record when the process dies.
	srv1, ts1 := testServer(t, Options{Workers: 2, DataDir: dir, SnapshotEvery: 10_000})

	ds := uploadCSV(t, ts1.URL, "name=inc&threshold=0.5&shards=2", appendCSV(rows, 0, 180))
	req := appendVariants(ds.ID)[0]
	preDoc := resultBytes(t, ts1.URL, req)

	mustAppend(t, ts1.URL, ds.ID, "", appendNDJSON(rows, 180, 210))
	info := mustAppend(t, ts1.URL, ds.ID, "csv", appendCSV(rows, 210, 240))
	if info.Generation != 2 || info.Samples != 240 {
		t.Fatalf("after appends: %+v", info)
	}
	postDoc := resultBytes(t, ts1.URL, req)
	if bytes.Equal(preDoc, postDoc) {
		t.Fatal("append did not change the mining result; recovery comparison is vacuous")
	}
	fp1 := srv1.reg.byID[ds.ID].view().fingerprint

	crash(srv1)
	ts1.Close()

	verify := func(label string, srv *Server, base string) {
		t.Helper()
		var got DatasetInfo
		if code := doJSON(t, http.MethodGet, base+"/datasets/"+ds.ID, nil, &got); code != 200 {
			t.Fatalf("%s: dataset: status %d", label, code)
		}
		if got.Samples != 240 || got.Generation != 2 {
			t.Fatalf("%s: dataset = %+v, want 240 samples at generation 2", label, got)
		}
		if fp := srv.reg.byID[ds.ID].view().fingerprint; fp != fp1 {
			t.Fatalf("%s: fingerprint diverged after replay", label)
		}
		var m MetricsJSON
		doJSON(t, http.MethodGet, base+"/metrics", nil, &m)
		if g := m.Appends.DatasetGenerations[ds.ID]; g != 2 {
			t.Fatalf("%s: generation gauge = %d, want 2", label, g)
		}
		if doc := resultBytes(t, base, req); !bytes.Equal(doc, postDoc) {
			t.Fatalf("%s: post-restart mine diverged from pre-crash result:\n%s\nvs\n%s", label, doc, postDoc)
		}
	}

	srv2, ts2 := testServer(t, Options{Workers: 2, DataDir: dir, SnapshotEvery: 10_000})
	verify("first replay", srv2, ts2.URL)

	// Crash again with the replayed state: the append record replays a
	// second time against a snapshot that may already contain it.
	crash(srv2)
	ts2.Close()
	srv3, ts3 := testServer(t, Options{Workers: 2, DataDir: dir, SnapshotEvery: 10_000})
	verify("second replay", srv3, ts3.URL)

	// A clean shutdown compacts the append into the snapshot; the next
	// open must not regress the generation.
	ts3.Close()
	srv3.Close()
	srv4, ts4 := testServer(t, Options{Workers: 2, DataDir: dir, SnapshotEvery: 10_000})
	verify("post-compaction", srv4, ts4.URL)
}

// TestApplyAppendIdempotent unit-tests the replay guard: an append
// record applied to a dataset that already contains its samples (the
// snapshot-compacted-after-append case) must not double-apply, while the
// generation still maxes in.
func TestApplyAppendIdempotent(t *testing.T) {
	st := &recoveredState{datasets: []datasetRecord{{
		ID: "ds-1", Shards: 1,
		Series: []seriesRecord{
			{Name: "A", Alphabet: []string{"Off", "On"}, Symbols: []int{0, 1, 0}},
			{Name: "B", Alphabet: []string{"Off", "On"}, Symbols: []int{1, 0, 1}},
		},
	}}}
	idx := map[string]int{"ds-1": 0}
	rec := appendRecord{ID: "ds-1", Gen: 1, PrevSamples: 3, Series: []appendSeriesRecord{
		{Name: "A", Alphabet: []string{"Off", "On", "Hi"}, Symbols: []int{2, 0}},
		{Name: "B", Alphabet: []string{"Off", "On"}, Symbols: []int{1, 1}},
	}}

	applyAppend(st, idx, rec)
	wantA := []int{0, 1, 0, 2, 0}
	if got := st.datasets[0].Series[0].Symbols; fmt.Sprint(got) != fmt.Sprint(wantA) {
		t.Fatalf("first apply: A symbols = %v, want %v", got, wantA)
	}
	if a := st.datasets[0].Series[0].Alphabet; len(a) != 3 || a[2] != "Hi" {
		t.Fatalf("first apply: A alphabet = %v", a)
	}
	if st.datasets[0].Generation != 1 {
		t.Fatalf("first apply: generation = %d", st.datasets[0].Generation)
	}

	// Replaying the same record (sample counts no longer match
	// PrevSamples) must be a no-op for the payload and keep the max
	// generation.
	applyAppend(st, idx, rec)
	if got := st.datasets[0].Series[0].Symbols; fmt.Sprint(got) != fmt.Sprint(wantA) {
		t.Fatalf("second apply mutated symbols: %v", got)
	}
	if st.datasets[0].Generation != 1 {
		t.Fatalf("second apply: generation = %d", st.datasets[0].Generation)
	}

	// Records for unknown datasets (removed before the record) are
	// skipped outright.
	applyAppend(st, idx, appendRecord{ID: "ds-9", Gen: 7})
	if len(st.datasets) != 1 {
		t.Fatal("unknown-id record grew the state")
	}
}

// TestClosedServerRejectsAppends extends the shutdown contract to the
// append route.
func TestClosedServerRejectsAppends(t *testing.T) {
	rows := appendRows(42, 40)
	srv, ts := testServer(t, Options{Workers: 1, DataDir: t.TempDir()})
	ds := uploadCSV(t, ts.URL, "name=x&threshold=0.5", appendCSV(rows, 0, 30))
	srv.Close()
	if code, _ := postAppend(t, ts.URL, ds.ID, "", appendNDJSON(rows, 30, 31)); code != http.StatusServiceUnavailable {
		t.Fatalf("append after Close: status %d, want 503", code)
	}
}
