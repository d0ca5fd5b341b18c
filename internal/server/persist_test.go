package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ftpm"
	"ftpm/internal/csvio"
	"ftpm/internal/server/store"
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
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body), &job); code != http.StatusAccepted {
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
		if code := doJSON(t, http.MethodGet, base+"/v1/metrics", nil, &m); code != 200 {
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

	code, exactDoc1 := getRaw(t, ts1.URL+"/v1/jobs/"+exactJob.ID+"/result")
	if code != 200 {
		t.Fatalf("result: status %d", code)
	}
	_, approxDoc1 := getRaw(t, ts1.URL+"/v1/jobs/"+approxJob.ID+"/result")
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
		if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/"+want.ID, nil, &got); code != 200 {
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
		if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+jobID, nil, &info); code != 200 {
			t.Fatalf("job %s after restart: status %d", jobID, code)
		}
		if info.State != JobDone || info.Summary == nil {
			t.Fatalf("job %s after restart = %+v", jobID, info)
		}
		if info.Progress.Patterns != info.Summary.Patterns || info.Progress.Level < 2 {
			t.Fatalf("job %s progress not rebuilt from persisted levels: %+v vs %+v", jobID, info.Progress, info.Summary)
		}
		code, doc := getRaw(t, ts2.URL+"/v1/jobs/"+jobID+"/result")
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
	if code := doJSON(t, http.MethodDelete, ts1.URL+"/v1/datasets/"+gone.ID, nil, nil); code != http.StatusNoContent {
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
	if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+orphan.ID, nil, &got); code != 200 {
		t.Fatalf("orphan job after crash: status %d", code)
	}
	if got.State != JobFailed || !strings.Contains(got.Error, "lost to restart") {
		t.Fatalf("orphan job after crash = %s (%q), want failed lost-to-restart", got.State, got.Error)
	}

	var m MetricsJSON
	if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/metrics", nil, &m); code != 200 {
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
	ds, err := srv1.addDataset("a", sdb, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
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
	if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/"+info.ID, nil, &ds); code != 200 {
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
	code4, doc4 := getRaw(t, ts4.URL+"/v1/jobs/"+done3.ID+"/result")
	_, doc3 := getRaw(t, ts3.URL+"/v1/jobs/"+done3.ID+"/result")
	if code4 != 200 || !bytes.Equal(doc3, doc4) {
		t.Fatalf("done job's document diverged across torn-garbage recovery (%d):\n%s\nvs\n%s", code4, doc4, doc3)
	}
}

func TestSnapshotCompactionAndGauges(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Options{Workers: 1, DataDir: dir, SnapshotEvery: 4})

	var m MetricsJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &m); code != 200 {
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
		if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/"+id, nil, nil); code != http.StatusNoContent {
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
	if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets", nil, &list); code != 200 || len(list.Datasets) != 4 {
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
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/"+gone.ID, nil, nil); code != http.StatusNoContent {
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
	if code := doJSON(t, http.MethodDelete, ts3.URL+"/v1/datasets/"+only.ID, nil, nil); code != http.StatusNoContent {
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

	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets?threshold=0.5", strings.NewReader(smallCSV()), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("upload after Close: status %d, want 503", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/"+info.ID, nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("dataset delete after Close: status %d, want 503", code)
	}
	var req bytes.Buffer
	req.WriteString(`{"dataset_id":"` + info.ID + `","min_support":0.5,"num_windows":2}`)
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", &req, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("job submit after Close: status %d, want 503", code)
	}
	// Reads stay up.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+info.ID, nil, nil); code != 200 {
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
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &m); code != 200 {
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
		if code := doJSON(t, http.MethodGet, base+"/v1/datasets/"+ds.ID, nil, &got); code != 200 {
			t.Fatalf("%s: dataset: status %d", label, code)
		}
		if got.Samples != 240 || got.Generation != 2 {
			t.Fatalf("%s: dataset = %+v, want 240 samples at generation 2", label, got)
		}
		if fp := srv.reg.byID[ds.ID].view().fingerprint; fp != fp1 {
			t.Fatalf("%s: fingerprint diverged after replay", label)
		}
		var m MetricsJSON
		doJSON(t, http.MethodGet, base+"/v1/metrics", nil, &m)
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
// record applied to a dataset that already references its segment (the
// snapshot-compacted-after-append case) must not double-apply, while the
// generation still maxes in.
func TestApplyAppendIdempotent(t *testing.T) {
	st := &recoveredState{datasets: []datasetRecord{{
		ID: "ds-1", Shards: 1, Segments: []string{"ds-1-g0.seg"}, Fingerprint: "fp0", Samples: 3,
	}}}
	idx := map[string]int{"ds-1": 0}
	rec := appendRecord{ID: "ds-1", Gen: 1, PrevSamples: 3, Segment: "ds-1-g1.seg", Samples: 5, Fingerprint: "fp1"}
	want := datasetRecord{ID: "ds-1", Shards: 1, Generation: 1,
		Segments: []string{"ds-1-g0.seg", "ds-1-g1.seg"}, Fingerprint: "fp1", Samples: 5}

	applyAppend(st, idx, rec)
	if got := st.datasets[0]; !reflect.DeepEqual(got, want) {
		t.Fatalf("first apply: %+v, want %+v", got, want)
	}

	// Replaying the same record (the segment is referenced and the sample
	// count no longer matches PrevSamples) must be a no-op for the content
	// and keep the max generation.
	applyAppend(st, idx, rec)
	if got := st.datasets[0]; !reflect.DeepEqual(got, want) {
		t.Fatalf("second apply: %+v, want %+v", got, want)
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

// payloadAppend is the full-payload append record of a log written
// before datasets lived in segments: the appended symbols of every series.
type payloadAppend struct {
	appendRecord
	Series []payloadSeries `json:"series"`
}

// writeLog appends records, each a kind and its JSON value, to the log in
// dir.
func writeLog(t *testing.T, dir string, records ...store.Record) {
	t.Helper()
	l, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := l.Append(r.Kind, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// payloadLog returns the records of a log written before datasets lived in
// segments: dataset ds-1 holding rows [0, 180) in a full-payload record,
// then a payload append of rows [180, 210).
func payloadLog(t *testing.T, rows [][]int) []store.Record {
	t.Helper()
	full := referenceDB(t, appendCSV(rows, 0, 210), 0.5)
	base := referenceDB(t, appendCSV(rows, 0, 180), 0.5)
	app := payloadAppend{
		appendRecord: appendRecord{ID: "ds-1", Gen: 1, PrevSamples: 180},
		Series:       payloadSeriesOf(full, 180),
	}
	var out []store.Record
	for _, r := range []struct {
		kind store.Kind
		v    any
	}{{kindDatasetAdded, payloadRecord(DatasetInfo{ID: "ds-1", Name: "payload", Shards: 2}, base)}, {kindDatasetAppended, app}} {
		data, err := json.Marshal(r.v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, store.Record{Kind: r.kind, Data: data})
	}
	return out
}

// TestPayloadLogFailsOpen opens a server on a log written before datasets
// lived in segments and never upgraded: the open fails with the stable
// ErrPayloadLog rather than serving a dataset it cannot read.
func TestPayloadLogFailsOpen(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, payloadLog(t, appendRows(43, 210))...)
	srv, err := New(Options{Workers: 1, DataDir: dir})
	if err == nil {
		srv.Close()
		t.Fatal("a payload-only log opened")
	}
	if !errors.Is(err, ErrPayloadLog) {
		t.Fatalf("open of a payload-only log: %v, want ErrPayloadLog", err)
	}
}

// TestUpgradedPayloadLogOpens opens a log that an earlier open upgraded
// but never compacted: its payload records are still there, followed by
// the segment record that supersedes them and a later segment append.
// The dataset serves the appended content and mines as a fresh upload of
// it does.
func TestUpgradedPayloadLogOpens(t *testing.T) {
	rows := appendRows(43, 240)
	// The segment records and files of the upgraded dataset: rows
	// [0, 210) in one segment, as the upgrade sealed them, then an append
	// of rows [210, 240).
	src := t.TempDir()
	srv0, ts0 := testServer(t, Options{Workers: 1, DataDir: src, SnapshotEvery: 10_000})
	uploadCSV(t, ts0.URL, "name=payload&threshold=0.5&shards=2", appendCSV(rows, 0, 210))
	mustAppend(t, ts0.URL, "ds-1", "csv", appendCSV(rows, 210, 240))
	crash(srv0)
	ts0.Close()
	l, rec, err := store.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	dir := t.TempDir()
	writeLog(t, dir, append(payloadLog(t, rows), rec.Records...)...)
	if err := os.Rename(filepath.Join(src, "segments"), filepath.Join(dir, "segments")); err != nil {
		t.Fatal(err)
	}

	_, ts1 := testServer(t, Options{Workers: 2, DataDir: dir})
	var got DatasetInfo
	if code := doJSON(t, http.MethodGet, ts1.URL+"/v1/datasets/ds-1", nil, &got); code != 200 {
		t.Fatalf("upgraded dataset: status %d", code)
	}
	if got.Storage != "segment" || got.Segments != 2 || got.Samples != 240 || got.Generation != 1 {
		t.Fatalf("upgraded dataset = %+v, want 2 segments holding 240 samples at generation 1", got)
	}
	_, tsRef := testServer(t, Options{Workers: 2})
	ref := uploadCSV(t, tsRef.URL, "name=ref&threshold=0.5&shards=2", appendCSV(rows, 0, 240))
	doc := resultBytes(t, ts1.URL, appendVariants("ds-1")[0])
	if want := resultBytes(t, tsRef.URL, appendVariants(ref.ID)[0]); !bytes.Equal(doc, want) {
		t.Fatalf("upgraded dataset mines differently from a fresh upload:\n%s\nvs\n%s", doc, want)
	}
}

// TestV1FingerprintLogRestart opens a server on a log written before v2
// fingerprints, where the dataset record, its segment footer and the done
// job's record all carry the content's v1 key. The restored generation
// keeps that key, so repeating the job still hits the result cache under
// it; the first append then digests the content from scratch and stores
// the v2 key a fresh upload of the appended content gets, which survives
// the next restart.
func TestV1FingerprintLogRestart(t *testing.T) {
	rows := appendRows(44, 240)
	req := appendVariants("ds-1")[0]

	// A log this server writes, with every fingerprint in it then
	// rewritten to the v1 key of the same content.
	src := t.TempDir()
	srv0, ts0 := testServer(t, Options{Workers: 1, DataDir: src, SnapshotEvery: 10_000})
	ds := uploadCSV(t, ts0.URL, "name=old&threshold=0.5&shards=2", appendCSV(rows, 0, 180))
	doc := resultBytes(t, ts0.URL, req)
	v2 := srv0.reg.byID[ds.ID].view().fingerprint
	waitJobsSettled(t, srv0)
	crash(srv0)
	v1 := fingerprintSource(referenceDB(t, appendCSV(rows, 0, 180), 0.5))
	if !strings.HasPrefix(v2, "v2:") || len(v1) != len(v2) {
		t.Fatalf("fingerprints v1 %q, v2 %q: want a v2 key as long as the v1 one", v1, v2)
	}
	l, rec, err := store.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	dir := t.TempDir()
	out, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := 0
	for _, r := range rec.Records {
		rewritten += bytes.Count(r.Data, []byte(v2))
		if err := out.Append(r.Kind, bytes.ReplaceAll(r.Data, []byte(v2), []byte(v1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if rewritten != 2 {
		t.Fatalf("rewrote %d fingerprints, want the dataset's and the job's", rewritten)
	}
	segName := segmentName(ds.ID, 0)
	seg, err := store.OpenSegment(filepath.Join(src, "segments", segName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := store.WriteSegment(filepath.Join(dir, "segments", segName), seg, v1); err != nil {
		t.Fatal(err)
	}

	srv1, ts1 := testServer(t, Options{Workers: 1, DataDir: dir})
	if fp := srv1.reg.byID[ds.ID].view().fingerprint; fp != v1 {
		t.Fatalf("restored fingerprint %s, want the recorded v1 key %s", fp, v1)
	}
	job := mineDone(t, ts1.URL, req)
	if !job.Summary.ResultCache {
		t.Fatal("a job on the restored generation missed the result cache under its v1 key")
	}
	if _, got := getRaw(t, ts1.URL+"/v1/jobs/"+job.ID+"/result"); !bytes.Equal(got, doc) {
		t.Fatal("the cached document differs from the one mined before the restart")
	}

	mustAppend(t, ts1.URL, ds.ID, "", appendNDJSON(rows, 180, 210))
	srvRef, tsRef := testServer(t, Options{Workers: 1})
	ref := uploadCSV(t, tsRef.URL, "name=ref&threshold=0.5&shards=2", appendCSV(rows, 0, 210))
	want := srvRef.reg.byID[ref.ID].view().fingerprint
	if fp := srv1.reg.byID[ds.ID].view().fingerprint; fp != want {
		t.Fatalf("fingerprint after the first append %s, fresh upload %s", fp, want)
	}
	crash(srv1)
	ts1.Close()
	srv2, _ := testServer(t, Options{Workers: 1, DataDir: dir})
	if fp := srv2.reg.byID[ds.ID].view().fingerprint; fp != want {
		t.Fatalf("fingerprint after restart %s, want the appended v2 key %s", fp, want)
	}
}

// TestCompactionRerunsWhenTriggerCrossedMidCompaction holds a background
// compaction open while enough records to reach the trigger again are
// logged. Those records stay in the WAL past the snapshot and could not
// trigger a compaction themselves (one was running), so the compaction
// must run again when it finishes instead of leaving the WAL at the
// trigger until some later write.
func TestCompactionRerunsWhenTriggerCrossedMidCompaction(t *testing.T) {
	srv, ts := testServer(t, Options{Workers: 1, DataDir: t.TempDir(), SnapshotEvery: 4})
	held, release := make(chan struct{}), make(chan struct{})
	gather := srv.persist.gather
	var once sync.Once
	srv.persist.gather = func() snapshotRecord {
		once.Do(func() {
			close(held)
			<-release
		})
		return gather()
	}
	for i := 0; i < 4; i++ {
		uploadCSV(t, ts.URL, "name=d&threshold=0.5", smallCSV())
	}
	<-held // the fourth record started a compaction, now parked in gather
	for i := 0; i < 4; i++ {
		uploadCSV(t, ts.URL, "name=d&threshold=0.5", smallCSV())
	}
	close(release)
	waitCompacted(t, ts.URL, 4)
}

// TestReplayServesStoredBytes mines a dataset whose series name holds an
// invalid UTF-8 byte and requires its done job to serve the same /result,
// JSON page and NDJSON page bytes after a restart as before it. The
// encoder writes the byte as the escape \ufffd, which decodes to U+FFFD
// and encodes again as its UTF-8 bytes, so only the logged bytes
// themselves give the first body back. An upload of such a name is now a
// 400, so the dataset is added past the handler, as a server from before
// that check ingested it into the logs it must still restore.
func TestReplayServesStoredBytes(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := testServer(t, Options{Workers: 1, DataDir: dir, SnapshotEvery: 10_000})
	csv := strings.Replace(smallCSV(), "time,A,", "time,x\xffy,", 1)
	db, err := csvio.ReadOnOffRuns(strings.NewReader(csv), -1, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := srv1.addDataset("utf8", db, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	job := mineDone(t, ts1.URL, MiningRequest{DatasetID: ds.id, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2})
	paths := []string{"/result", "/patterns?limit=3&offset=1", "/patterns?limit=3&offset=1&format=ndjson"}
	fetch := func(base string) [][]byte {
		t.Helper()
		var out [][]byte
		for _, p := range paths {
			code, body := getRaw(t, base+"/v1/jobs/"+job.ID+p)
			if code != http.StatusOK {
				t.Fatalf("GET %s: status %d", p, code)
			}
			out = append(out, body)
		}
		return out
	}
	before := fetch(ts1.URL)
	if !bytes.Contains(before[0], []byte(`x\ufffdy=On`)) {
		t.Fatalf("result does not name the event x\\ufffdy=On:\n%s", before[0])
	}
	waitJobsSettled(t, srv1)
	crash(srv1)
	ts1.Close()

	_, ts2 := testServer(t, Options{Workers: 1, DataDir: dir})
	for i, body := range fetch(ts2.URL) {
		if !bytes.Equal(body, before[i]) {
			t.Fatalf("GET %s after a restart:\n got %q\nwant %q", paths[i], body, before[i])
		}
	}
}
