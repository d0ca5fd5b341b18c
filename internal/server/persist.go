package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftpm"
	"ftpm/internal/server/store"
)

// Persistence layer: the mining service's registry and job log survive
// restarts. Dataset payloads live out-of-core: an ingestion seals the
// symbolized columns into an immutable segment file and an append seals
// a delta segment (internal/server/store's columnar format; Server.seal),
// so the write-ahead log under Options.DataDir records only metadata plus
// segment references — dataset ingested (shard width, fingerprint,
// segment name), dataset appended (the new generation and its delta
// segment), dataset removed, job submitted, job reached a terminal state
// (with summary and result document). The whole service state is
// periodically compacted into a snapshot streamed in bounded chunks at a
// captured LSN, with the WAL records logged during the snapshot retained
// past it. On startup the snapshot and WAL replay into the registry and
// job manager:
//
//   - Datasets come back with their original ids and shard widths,
//     served straight from their mmap'd segments (fingerprints read from
//     the records, not recomputed); the Analysis (NMI tables) and the
//     Prepared cache are re-derived, not persisted — they are
//     recomputable, and lazily so. A log written before datasets lived in
//     segments has payload records, which replay folds into one payload
//     per dataset; restore seals it into a segment file once and logs a
//     segment record that supersedes the payload ones.
//   - Terminal jobs come back with their summaries and result documents
//     byte-identical; done jobs re-seed the result cache, so a repeat
//     submission after a restart is still a cache hit.
//   - Jobs that were queued or running when the process died re-queue
//     against their tenant (mining is pure, so the re-run is safe and
//     byte-identical, and the re-queued jobs count against the tenant's
//     quota immediately — admission control survives restarts). Only live
//     jobs whose dataset did not survive replay come back failed with a
//     distinguishable "lost to restart" error.
//
// Replay is idempotent — records re-applied over a snapshot that already
// contains them (possible when a crash lands between snapshot
// replacement and WAL truncation, or when an event races a concurrent
// snapshot) overwrite rather than duplicate.

// Record kinds of the service WAL.
const (
	kindDatasetAdded    store.Kind = 1
	kindDatasetRemoved  store.Kind = 2
	kindJobSubmitted    store.Kind = 3
	kindJobTerminal     store.Kind = 4
	kindDatasetAppended store.Kind = 5
)

// defaultSnapshotEvery is the record-count compaction trigger: a
// snapshot is written once this many WAL records accumulate since the
// previous one.
const defaultSnapshotEvery = 256

// maxWALBytes is the byte-based compaction trigger. Dataset records are
// O(1), but terminal job records still carry result documents (and a
// legacy log can hold payload records), so a byte bound
// keeps startup's whole-WAL read bounded regardless of record mix.
const maxWALBytes = 128 << 20

// Transient WAL-append faults (interrupted syscalls, briefly-busy
// devices) are retried this many times with doubling backoff before the
// append is declared failed; see persister.append.
const (
	appendMaxRetries     = 3
	appendInitialBackoff = 5 * time.Millisecond
)

// lostToRestart is the error restored onto live-at-crash jobs whose
// dataset did not survive replay (jobs whose dataset is present re-queue
// instead). The wording is part of the API: clients distinguish it from
// mining failures.
const lostToRestart = "lost to restart: the server restarted while the job was queued or running"

// seriesRecord is one series of a legacy full-payload dataset record.
type seriesRecord struct {
	Name     string     `json:"name"`
	Start    int64      `json:"start"`
	Step     int64      `json:"step"`
	Alphabet []string   `json:"alphabet"`
	Symbols  symbolList `json:"symbols"`
}

// symbolList is a legacy payload's per-sample symbol array. An array
// decodes into one allocation sized by its element count, not through the
// reflective decoder, which grows the slice a quarter at a time.
type symbolList []int

func (l *symbolList) UnmarshalJSON(data []byte) error {
	body, ok := bytes.CutPrefix(data, []byte("["))
	if !ok {
		return json.Unmarshal(data, (*[]int)(l)) // null, or the type error
	}
	body = bytes.TrimSpace(bytes.TrimSuffix(body, []byte("]")))
	syms := make([]int, 0, bytes.Count(body, []byte(","))+1)
	for len(body) > 0 {
		var tok []byte
		tok, body, _ = bytes.Cut(body, []byte(","))
		v, err := strconv.Atoi(string(bytes.TrimSpace(tok)))
		if err != nil {
			return fmt.Errorf("symbols: %w", err)
		}
		syms = append(syms, v)
	}
	*l = syms
	return nil
}

// datasetRecord is the persisted form of one dataset: identity plus
// references — the segment file names holding the columnar payload, the
// content fingerprint sealed into them, and the sample count. That is
// O(1) bytes regardless of dataset size, which is what lifts the WAL off
// the record-size cap and makes restart a footer read instead of a
// payload replay. Records written before datasets lived in segments
// carry the full symbolic payload in Series instead; restore upgrades
// them once (Server.restore). Analysis and the Prepared cache are always
// re-derived on restore. Generation and Threshold are omitempty so
// records written by earlier versions replay unchanged (generation 0,
// server-default threshold).
type datasetRecord struct {
	ID          string         `json:"id"`
	Name        string         `json:"name"`
	CreatedAt   time.Time      `json:"created_at"`
	Shards      int            `json:"shards"`
	Generation  int64          `json:"generation,omitempty"`
	Threshold   *float64       `json:"threshold,omitempty"`
	Series      []seriesRecord `json:"series,omitempty"` // legacy payload only
	Segments    []string       `json:"segments,omitempty"`
	Fingerprint string         `json:"fingerprint,omitempty"`
	Samples     int            `json:"samples,omitempty"`
}

// removeRecord is the payload of a dataset removal event.
type removeRecord struct {
	ID string `json:"id"`
}

// appendSeriesRecord is one series' slice of a legacy payload append
// event: the appended symbols only, plus the full post-append alphabet
// (appends may extend alphabets, never renumber them, so replaying the
// whole alphabet is idempotent by construction).
type appendSeriesRecord struct {
	Name     string     `json:"name"`
	Alphabet []string   `json:"alphabet"`
	Symbols  symbolList `json:"symbols"`
}

// appendRecord is the payload of a dataset append event. PrevSamples is
// the per-series sample count the append applied to: replay appends the
// symbols only when the replayed dataset still has exactly that many
// samples, so a record re-applied over a snapshot that already contains
// it (crash between snapshot replacement and WAL truncation) is a no-op
// rather than a duplication. Gen still folds in monotonically either way,
// so generations never regress across restarts.
type appendRecord struct {
	ID          string               `json:"id"`
	Gen         int64                `json:"generation"`
	PrevSamples int                  `json:"prev_samples"`
	Series      []appendSeriesRecord `json:"series,omitempty"` // legacy payload only
	// The delta segment sealed by this append, the post-append total
	// sample count and content fingerprint. The delta payload lives in the
	// segment file, and replay only folds the reference in.
	Segment     string `json:"segment,omitempty"`
	Samples     int    `json:"samples,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// jobRecord is the persisted form of one job. Submission events carry it
// without terminal fields; terminal events carry the full record
// (including the result document for done jobs), so either event alone
// reconstructs the job.
type jobRecord struct {
	ID      string        `json:"id"`
	Request MiningRequest `json:"request"`
	// Tenant is the owning tenant; replay rebuilds per-tenant quota
	// accounting from it, so admission control (429 + Retry-After)
	// survives restarts. Empty on records from before tenants existed —
	// those restore under the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Fingerprint is the content fingerprint of the dataset generation the
	// job ran against. Appends change a dataset's fingerprint, so restore
	// must key the re-seeded result cache by the generation the document
	// was actually mined from — keying by the restored dataset's current
	// fingerprint would serve a pre-append document for post-append
	// content. Empty on records from before appends existed; those are
	// keyed by the dataset's fingerprint, which is correct for a log that
	// can't contain appends.
	Fingerprint string            `json:"fingerprint,omitempty"`
	State       JobState          `json:"state"`
	Error       string            `json:"error,omitempty"`
	CreatedAt   time.Time         `json:"created_at"`
	StartedAt   *time.Time        `json:"started_at,omitempty"`
	FinishedAt  *time.Time        `json:"finished_at,omitempty"`
	Summary     *JobSummary       `json:"summary,omitempty"`
	Levels      []LevelTimingJSON `json:"levels,omitempty"`
	// Doc is the result document of a done job. appendJobRecord copies
	// its compact bytes in as the "doc" field; encoding/json never sees
	// it.
	Doc *resultDoc `json:"-"`
	// EventSeq is the event hub's last assigned id when the record was
	// persisted. Restore seeds the hub's sequence past the maximum
	// recorded value, so event ids stay monotone across restarts and a
	// client's Last-Event-ID resume survives a server bounce instead of
	// silently replaying a restarted sequence.
	EventSeq uint64 `json:"event_seq,omitempty"`
}

// appendJobRecord appends the encoding of rec to dst: json.Marshal's
// encoding of the record with its result document's compact bytes,
// already valid JSON, copied in as the "doc" field where the field order
// puts it (before event_seq). encoding/json would re-scan and re-compact
// the document in full had it marshaled it itself, as it does every
// json.Marshaler's output.
func appendJobRecord(dst []byte, rec jobRecord) ([]byte, error) {
	doc, seq := rec.Doc, rec.EventSeq
	rec.EventSeq = 0 // omitted, and written after the document
	b, err := json.Marshal(rec)
	if err != nil {
		return dst, err
	}
	dst = append(dst, b[:len(b)-1]...) // an object with an id: never "{}"
	if doc != nil {
		dst = append(append(dst, `,"doc":`...), doc.body...)
	}
	if seq != 0 {
		dst = strconv.AppendUint(append(dst, `,"event_seq":`...), seq, 10)
	}
	return append(dst, '}'), nil
}

// storedJob decodes a persisted job record with its result document as
// the struct it was encoded from, in the one decoding pass that also
// validates it; record then encodes the document into its retained form.
type storedJob struct {
	jobRecord
	Doc *ftpm.ResultJSON `json:"doc,omitempty"`
}

// record returns the job record with its document encoded.
func (s storedJob) record() (jobRecord, error) {
	rec := s.jobRecord
	if s.Doc != nil {
		doc, err := encodeResult(s.Doc)
		if err != nil {
			return rec, err
		}
		rec.Doc = doc
	}
	return rec, nil
}

// decodeJob decodes one job record of the WAL.
func decodeJob(data []byte) (jobRecord, error) {
	var sj storedJob
	if err := json.Unmarshal(data, &sj); err != nil {
		return jobRecord{}, err
	}
	return sj.record()
}

// snapshotRecord is the payload of a compacting snapshot: the whole
// service state, datasets and jobs in insertion order. Live jobs are
// included as-is; if the process dies they finalize to "lost to restart"
// on the next open. DatasetSeq and JobSeq carry the id counters
// explicitly: the highest-numbered dataset or job may have been removed
// or evicted, so the surviving records alone cannot recover the
// high-water mark, and re-issuing an id would let stale job records
// (and the result cache they seed) cross-talk with new content.
type snapshotRecord struct {
	DatasetSeq int             `json:"dataset_seq"`
	JobSeq     int             `json:"job_seq"`
	EventSeq   uint64          `json:"event_seq,omitempty"`
	Datasets   []datasetRecord `json:"datasets"`
	Jobs       []jobRecord     `json:"-"` // written by encodeSnapshot
}

// encodeSnapshot encodes snap with every job record, result document
// included, appended by appendJobRecord.
func encodeSnapshot(snap snapshotRecord) ([]byte, error) {
	jobs := snap.Jobs
	b, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	b = append(b[:len(b)-1], `,"jobs":[`...)
	for i, j := range jobs {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendJobRecord(b, j); err != nil {
			return nil, err
		}
	}
	return append(b, "]}"...), nil
}

// datasetRecordOf builds the persisted form of a dataset's current
// generation. Generations are immutable, so beyond the view() read no
// lock is needed.
func datasetRecordOf(d *Dataset) datasetRecord {
	g := d.view()
	threshold := d.threshold
	return datasetRecord{
		ID:          d.id,
		Name:        d.name,
		CreatedAt:   d.createdAt,
		Shards:      d.shards,
		Generation:  g.gen,
		Threshold:   &threshold,
		Segments:    append([]string(nil), g.segments...),
		Fingerprint: g.fingerprint,
		Samples:     g.src.Len(),
	}
}

// symbolicDB rebuilds the symbolic database of a legacy payload record.
func (rec datasetRecord) symbolicDB() (*ftpm.SymbolicDB, error) {
	series := make([]*ftpm.SymbolicSeries, len(rec.Series))
	for i, s := range rec.Series {
		series[i] = &ftpm.SymbolicSeries{
			Name:     s.Name,
			Start:    ftpm.Time(s.Start),
			Step:     ftpm.Duration(s.Step),
			Alphabet: s.Alphabet,
			Symbols:  s.Symbols,
		}
	}
	return ftpm.NewSymbolicDB(series...)
}

// persister serializes all durable writes of one server: WAL appends,
// the trigger-driven compaction, and the final snapshot at Close. All
// hook methods are nil-receiver-safe, so the in-memory server (DataDir
// "") calls them for free. Persistence failures (disk full, yanked
// volume) are logged and do not fail requests: availability of the
// in-memory service wins over durability of the event.
//
// Compaction streams through store.BeginSnapshot at a captured LSN, so
// appends are never blocked behind a snapshot's gather/marshal/fsync —
// p.mu is held only for the append itself and the trigger bookkeeping,
// while snapMu serializes whole snapshots against each other (background
// compaction, the replay-time catch-up and the final snapshot at close).
//
// Lock order: snapMu and p.mu are taken before any registry or job lock
// (the snapshot gather reads them), so hooks must be called while
// holding neither.
type persister struct {
	mu            sync.Mutex
	snapMu        sync.Mutex
	log           *store.Log
	snapshotEvery int
	// compacting marks an in-flight background compaction, so appends
	// that keep crossing the trigger while one runs don't stack more.
	compacting bool
	// snapshotFailures counts failed compaction attempts and lastErr
	// keeps the most recent failure; both are surfaced on /metrics so a
	// permanently-failing compaction (e.g. state grown past the store's
	// record cap) is an operator-visible condition, not just a log line.
	// Atomics, not p.mu: /metrics must stay responsive while a
	// compaction holds the lock.
	snapshotFailures atomic.Int64
	lastErr          atomic.Value // string
	// retries counts transient-append retry attempts (the
	// store_retries_total gauge); maxRetries and backoff are the retry
	// policy, fields so the fault tests can shrink the waits.
	retries    atomic.Int64
	maxRetries int
	backoff    time.Duration
	// noteFault (nil-safe) reports an ultimately-failed durable write to
	// the server, which counts it and — for fatal faults — flips into
	// degraded read-only mode.
	noteFault func(err error, fatal bool)
	// gather assembles the current service state for a compacting
	// snapshot; the server installs it after restore, so replay itself
	// never triggers compaction.
	gather func() snapshotRecord
	logf   func(format string, args ...any)
}

// recoveredState is the replayed service state, ready to load into the
// registry and job manager.
type recoveredState struct {
	datasets []datasetRecord
	jobs     []jobRecord
	// maxDatasetSeq / maxJobSeq are the highest id sequence numbers ever
	// observed (including removed datasets), so restored servers never
	// re-issue an id.
	maxDatasetSeq int
	maxJobSeq     int
	// maxEventSeq is the highest event-hub id any replayed record
	// carried; the hub reseeds past it so event ids never restart.
	maxEventSeq uint64
	// truncatedBytes and snapshotDamaged surface what recovery had to
	// discard, for the startup log line.
	truncatedBytes  int64
	snapshotDamaged bool
}

// parseSeq extracts the numeric suffix of an "<prefix><n>" id; 0 when
// the id has a different shape.
func parseSeq(id, prefix string) int {
	if !strings.HasPrefix(id, prefix) {
		return 0
	}
	n, err := strconv.Atoi(id[len(prefix):])
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// openPersister opens the data directory and replays its snapshot and
// WAL into a recoveredState.
func openPersister(fsys store.FS, dir string, snapshotEvery int, logf func(string, ...any)) (*persister, *recoveredState, error) {
	log, rec, err := store.OpenFS(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	if snapshotEvery <= 0 {
		snapshotEvery = defaultSnapshotEvery
	}
	p := &persister{
		log:           log,
		snapshotEvery: snapshotEvery,
		maxRetries:    appendMaxRetries,
		backoff:       appendInitialBackoff,
		logf:          logf,
	}
	st, err := replay(rec)
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	return p, st, nil
}

// replay folds the snapshot and WAL records into the service state.
// Application is idempotent: added records overwrite existing entries,
// removals of absent entries are no-ops, and a terminal job record wins
// over its submission regardless of arrival order.
func replay(rec store.Recovery) (*recoveredState, error) {
	st := &recoveredState{
		snapshotDamaged: rec.SnapshotDamaged,
		truncatedBytes:  rec.TruncatedBytes,
	}
	dsIndex := make(map[string]int)
	jobIndex := make(map[string]int)
	noteDataset := func(id string) { st.maxDatasetSeq = max(st.maxDatasetSeq, parseSeq(id, "ds-")) }
	noteJob := func(id string) { st.maxJobSeq = max(st.maxJobSeq, parseSeq(id, "job-")) }
	putDataset := func(d datasetRecord) {
		noteDataset(d.ID)
		if i, ok := dsIndex[d.ID]; ok {
			st.datasets[i] = d
			return
		}
		dsIndex[d.ID] = len(st.datasets)
		st.datasets = append(st.datasets, d)
	}
	dropDataset := func(id string) {
		noteDataset(id)
		i, ok := dsIndex[id]
		if !ok {
			return
		}
		st.datasets = append(st.datasets[:i], st.datasets[i+1:]...)
		delete(dsIndex, id)
		for k, v := range dsIndex {
			if v > i {
				dsIndex[k] = v - 1
			}
		}
	}
	putJob := func(j jobRecord, terminal bool) {
		noteJob(j.ID)
		st.maxEventSeq = max(st.maxEventSeq, j.EventSeq)
		if i, ok := jobIndex[j.ID]; ok {
			// A submission record never downgrades a terminal state the
			// log already holds (a fast job's terminal append can race
			// ahead of its submission append).
			if !terminal && st.jobs[i].State.Terminal() {
				return
			}
			st.jobs[i] = j
			return
		}
		jobIndex[j.ID] = len(st.jobs)
		st.jobs = append(st.jobs, j)
	}

	if rec.Snapshot != nil {
		var snap struct {
			snapshotRecord
			Jobs []storedJob `json:"jobs"`
		}
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return nil, fmt.Errorf("server: corrupt snapshot payload: %w", err)
		}
		st.maxDatasetSeq = max(st.maxDatasetSeq, snap.DatasetSeq)
		st.maxJobSeq = max(st.maxJobSeq, snap.JobSeq)
		st.maxEventSeq = max(st.maxEventSeq, snap.EventSeq)
		for _, d := range snap.Datasets {
			putDataset(d)
		}
		for _, sj := range snap.Jobs {
			j, err := sj.record()
			if err != nil {
				return nil, fmt.Errorf("server: corrupt snapshot payload: job %s: %w", sj.ID, err)
			}
			putJob(j, j.State.Terminal())
		}
	}
	for _, r := range rec.Records {
		switch r.Kind {
		case kindDatasetAdded:
			var d datasetRecord
			if err := json.Unmarshal(r.Data, &d); err != nil {
				return nil, fmt.Errorf("server: corrupt dataset record (lsn %d): %w", r.LSN, err)
			}
			putDataset(d)
		case kindDatasetRemoved:
			var rm removeRecord
			if err := json.Unmarshal(r.Data, &rm); err != nil {
				return nil, fmt.Errorf("server: corrupt removal record (lsn %d): %w", r.LSN, err)
			}
			dropDataset(rm.ID)
		case kindDatasetAppended:
			var ar appendRecord
			if err := json.Unmarshal(r.Data, &ar); err != nil {
				return nil, fmt.Errorf("server: corrupt append record (lsn %d): %w", r.LSN, err)
			}
			applyAppend(st, dsIndex, ar)
		case kindJobSubmitted, kindJobTerminal:
			j, err := decodeJob(r.Data)
			if err != nil {
				return nil, fmt.Errorf("server: corrupt job record (lsn %d): %w", r.LSN, err)
			}
			putJob(j, r.Kind == kindJobTerminal)
		default:
			// Unknown kinds are skipped, not fatal: a downgraded binary
			// reading a newer log should serve what it understands.
		}
	}
	return st, nil
}

// applyAppend folds one append record into the replayed state. The
// symbols apply only when the dataset exists, matches the record's series
// set, and still has exactly PrevSamples samples — a record whose data a
// later snapshot already contains is thereby a no-op, so crash-replay
// applies each append exactly once. The generation folds in monotonically
// regardless, so a skipped (already-applied) record still keeps the
// generation from regressing. Appends to datasets replay has already
// dropped (append record racing ahead of a removal's, or a removal
// earlier in the log) are skipped entirely.
func applyAppend(st *recoveredState, dsIndex map[string]int, ar appendRecord) {
	i, ok := dsIndex[ar.ID]
	if !ok {
		return
	}
	d := &st.datasets[i]
	if ar.Gen > d.Generation {
		d.Generation = ar.Gen
	}
	if ar.Segment != "" {
		// Fold the delta segment reference in. The record applies only
		// when the replayed dataset does not already reference the segment
		// and still has the pre-append sample count — the same idempotence
		// contract as the legacy payload shape below.
		for _, seg := range d.Segments {
			if seg == ar.Segment {
				return
			}
		}
		if len(d.Segments) == 0 || d.Samples != ar.PrevSamples {
			return
		}
		d.Segments = append(d.Segments, ar.Segment)
		d.Samples = ar.Samples
		if ar.Fingerprint != "" {
			d.Fingerprint = ar.Fingerprint
		}
		return
	}
	if len(d.Series) != len(ar.Series) || len(d.Series) == 0 {
		return
	}
	for si := range d.Series {
		if d.Series[si].Name != ar.Series[si].Name || len(d.Series[si].Symbols) != ar.PrevSamples {
			return
		}
	}
	for si := range d.Series {
		s := &d.Series[si]
		n := len(s.Symbols)
		s.Symbols = append(s.Symbols[:n:n], ar.Series[si].Symbols...)
		s.Alphabet = ar.Series[si].Alphabet
	}
}

// append marshals and durably logs one event. Crossing a snapshot
// trigger — record count or WAL bytes — schedules a background
// compaction instead of running it inline, so the request that happens
// to land on the trigger does not pay the full-state marshal + fsync +
// rename itself. The compaction streams at a captured LSN, so durable
// writes arriving while it runs append to the WAL concurrently and are
// retained past the snapshot — nothing waits on it.
func (p *persister) append(kind store.Kind, v any) {
	if p == nil {
		return
	}
	var data []byte
	var err error
	if rec, ok := v.(jobRecord); ok {
		data, err = appendJobRecord(nil, rec)
	} else {
		data, err = json.Marshal(v)
	}
	if err != nil {
		p.logf("persist: marshal failed: %v", err)
		return
	}
	p.mu.Lock()
	for attempt := 0; ; attempt++ {
		err = p.log.Append(kind, data)
		if err == nil {
			break
		}
		// Only transient faults are worth retrying; fatal ones (ENOSPC,
		// EIO) won't clear in milliseconds, and a corrupting fault means
		// the log itself refused further writes. The sleep holds p.mu —
		// deliberate: letting other appends interleave against a disk
		// that just faulted would only reorder their failures.
		if store.Classify(err) != store.FaultTransient || attempt >= p.maxRetries {
			break
		}
		p.retries.Add(1)
		time.Sleep(p.backoff << attempt)
	}
	if err != nil {
		p.mu.Unlock()
		if errors.Is(err, store.ErrClosed) {
			// A hook racing shutdown: the event is covered by the final
			// snapshot (or legitimately lost with the process), not a
			// storage fault.
			return
		}
		p.logf("persist: append failed (%s fault): %v", store.Classify(err), err)
		if f := p.noteFault; f != nil {
			f(err, true)
		}
		return
	}
	trigger := !p.compacting && p.gather != nil && p.pastTrigger()
	if trigger {
		p.compacting = true
	}
	p.mu.Unlock()
	if trigger {
		go func() {
			for again := true; again; {
				ok := p.compact()
				// Records logged while the compaction ran stay in the WAL and
				// could not start one themselves; when they alone are past
				// the trigger, go again rather than wait for the next write.
				p.mu.Lock()
				again = ok && p.pastTrigger()
				p.compacting = again
				p.mu.Unlock()
			}
		}()
	}
}

// pastTrigger reports whether the WAL has reached a compaction trigger,
// record count or bytes.
func (p *persister) pastTrigger() bool {
	return p.log.WALRecords() >= p.snapshotEvery || p.log.WALBytes() >= maxWALBytes
}

// snapshotChunk bounds one streamed snapshot chunk. Chunking keeps every
// WAL/snapshot record far below the store's per-record cap, so total
// service state is no longer bounded by it.
const snapshotChunk = 4 << 20

// compact streams a fresh snapshot of the whole service state at a
// captured LSN and trims the covered prefix out of the WAL. The gather
// callback may take registry and job locks; appends proceed throughout —
// anything logged mid-gather lands both in the snapshot and the retained
// WAL, which replay applies idempotently. It reports whether a snapshot
// was committed.
func (p *persister) compact() bool {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if p.gather == nil {
		return false
	}
	w, err := p.log.BeginSnapshot()
	if err != nil {
		p.noteSnapshotErr(err)
		return false
	}
	data, err := encodeSnapshot(p.gather())
	if err != nil {
		w.Abort()
		p.noteSnapshotErr(err)
		return false
	}
	for off := 0; off < len(data); off += snapshotChunk {
		end := min(off+snapshotChunk, len(data))
		if err := w.WriteChunk(data[off:end]); err != nil {
			p.noteSnapshotErr(err)
			return false
		}
	}
	if err := w.Commit(); err != nil {
		p.noteSnapshotErr(err)
		return false
	}
	p.lastErr.Store("")
	return true
}

// noteSnapshotErr records a failed compaction for the /metrics gauges. A
// close racing a scheduled background compaction loses benignly — the
// final snapshot already covered the state — so ErrClosed is not counted.
func (p *persister) noteSnapshotErr(err error) {
	if errors.Is(err, store.ErrClosed) {
		return
	}
	p.snapshotFailures.Add(1)
	p.lastErr.Store(err.Error())
	p.logf("persist: snapshot failed: %v", err)
	// A failed compaction is a counted store fault but not a fatal one:
	// the WAL still holds every record the snapshot would have covered,
	// so durability is intact — the server stays writable and the next
	// trigger retries.
	if f := p.noteFault; f != nil {
		f(err, false)
	}
}

// setGather installs the snapshot gather callback. Workers start before
// restore finishes, so a re-queued job's terminal append can read it
// concurrently; both of its readers' locks are taken.
func (p *persister) setGather(gather func() snapshotRecord) {
	p.snapMu.Lock()
	p.mu.Lock()
	p.gather = gather
	p.mu.Unlock()
	p.snapMu.Unlock()
}

// maybeCompact compacts if the WAL (e.g. as replayed at open) is already
// past the trigger.
func (p *persister) maybeCompact() {
	if p == nil {
		return
	}
	if p.log.WALRecords() >= p.snapshotEvery {
		p.compact()
	}
}

// datasetAdded logs a dataset ingestion.
func (p *persister) datasetAdded(d *Dataset) {
	if p == nil {
		return
	}
	p.append(kindDatasetAdded, datasetRecordOf(d))
}

// datasetRemoved logs a dataset removal.
func (p *persister) datasetRemoved(id string) {
	if p == nil {
		return
	}
	p.append(kindDatasetRemoved, removeRecord{ID: id})
}

// datasetAppended logs a dataset append.
func (p *persister) datasetAppended(rec appendRecord) {
	if p == nil {
		return
	}
	p.append(kindDatasetAppended, rec)
}

// jobSubmitted logs a job admission.
func (p *persister) jobSubmitted(rec jobRecord) {
	if p == nil {
		return
	}
	p.append(kindJobSubmitted, rec)
}

// jobTerminal logs a job's terminal transition, result document
// included.
func (p *persister) jobTerminal(rec jobRecord) {
	if p == nil {
		return
	}
	p.append(kindJobTerminal, rec)
}

// metrics reports the persistence gauges, nil when persistence is off.
func (p *persister) metrics() *PersistenceMetricsJSON {
	if p == nil {
		return nil
	}
	lastErr, _ := p.lastErr.Load().(string)
	return &PersistenceMetricsJSON{
		WALRecords:         p.log.WALRecords(),
		WALBytes:           p.log.WALBytes(),
		SnapshotAgeSeconds: time.Since(p.log.SnapshotTime()).Seconds(),
		SnapshotFailures:   p.snapshotFailures.Load(),
		LastError:          lastErr,
	}
}

// close takes a final compacting snapshot (so restarts after a clean
// shutdown replay one record instead of the whole WAL) and closes the
// log.
func (p *persister) close() {
	if p == nil {
		return
	}
	// compact takes snapMu, so an in-flight background compaction is
	// waited out rather than raced.
	if p.log.WALRecords() > 0 {
		p.compact()
	}
	if err := p.log.Close(); err != nil {
		p.logf("persist: close failed: %v", err)
	}
}
