package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ftpm"
	"ftpm/internal/server/events"
)

// JobState is the lifecycle state of a mining job.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// errQueueFull is returned by submit when the job queue is at capacity.
var errQueueFull = errors.New("job queue full")

// maxRetainedJobs bounds how many jobs (and their result documents) the
// manager keeps: beyond it, the oldest terminal jobs are evicted so a
// long-running service does not grow without bound. Live (queued or
// running) jobs are never evicted.
const maxRetainedJobs = 1000

// errClosed is returned by submit after Close.
var errClosed = errors.New("server shutting down")

// ApproxRequest selects A-HTPGM for a job. Exactly one of Mu or Density
// must be set (mirrors ftpm.ApproxOptions).
type ApproxRequest struct {
	Mu         float64 `json:"mu,omitempty"`
	Density    float64 `json:"density,omitempty"`
	EventLevel bool    `json:"event_level,omitempty"`
}

// MiningRequest is the JSON body of POST /jobs.
type MiningRequest struct {
	DatasetID      string         `json:"dataset_id"`
	MinSupport     float64        `json:"min_support"`
	MinConfidence  float64        `json:"min_confidence"`
	Epsilon        int64          `json:"epsilon,omitempty"`
	MinOverlap     int64          `json:"min_overlap,omitempty"`
	TMax           int64          `json:"tmax,omitempty"`
	MaxPatternSize int            `json:"max_pattern_size,omitempty"`
	WindowLength   int64          `json:"window_length,omitempty"`
	NumWindows     int            `json:"num_windows,omitempty"`
	Overlap        int64          `json:"overlap,omitempty"`
	Workers        int            `json:"workers,omitempty"`
	Approx         *ApproxRequest `json:"approx,omitempty"`
}

// validate rejects requests that would certainly fail at mine time, so
// the caller gets a 400 instead of a failed job.
func (req MiningRequest) validate() error {
	if req.MinSupport <= 0 || req.MinSupport > 1 {
		return fmt.Errorf("min_support must be in (0,1], got %v", req.MinSupport)
	}
	if req.MinConfidence < 0 || req.MinConfidence > 1 {
		return fmt.Errorf("min_confidence must be in [0,1], got %v", req.MinConfidence)
	}
	if req.WindowLength < 0 || req.NumWindows < 0 {
		return fmt.Errorf("window_length and num_windows must be non-negative")
	}
	if (req.WindowLength > 0) == (req.NumWindows > 0) {
		return fmt.Errorf("exactly one of window_length and num_windows must be set")
	}
	if req.Overlap < 0 || req.Epsilon < 0 || req.MinOverlap < 0 || req.TMax < 0 || req.MaxPatternSize < 0 {
		return fmt.Errorf("overlap, epsilon, min_overlap, tmax and max_pattern_size must be non-negative")
	}
	if a := req.Approx; a != nil {
		// Reject negative selectors explicitly: {"mu": -1, "density": 0.5}
		// would otherwise slip through the exactly-one check below (only
		// density reads as "set") and fail at mine time as a failed job,
		// defeating validate's fail-fast purpose.
		if a.Mu < 0 || a.Density < 0 {
			return fmt.Errorf("approx mu and density must be positive when set, got mu=%v density=%v", a.Mu, a.Density)
		}
		if (a.Mu > 0) == (a.Density > 0) {
			return fmt.Errorf("approx requires exactly one of mu and density")
		}
	}
	if req.Workers < 0 {
		return fmt.Errorf("workers must be non-negative, got %d", req.Workers)
	}
	return nil
}

// options maps the request onto the library's mining options. The
// client-supplied worker count is clamped to the machine's parallelism
// here as a first bound; 0 (unset) is passed on as a request for the
// whole budget. The job manager's fair-share budget then grants the job
// its tenant's share of that parallelism at admission and renegotiates
// it at every level boundary (see grantLocked in tenant.go); workers 1
// mines serially.
func (req MiningRequest) options() ftpm.Options {
	workers := req.Workers
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	opt := ftpm.Options{
		MinSupport:     req.MinSupport,
		MinConfidence:  req.MinConfidence,
		Epsilon:        req.Epsilon,
		MinOverlap:     req.MinOverlap,
		TMax:           req.TMax,
		MaxPatternSize: req.MaxPatternSize,
		WindowLength:   req.WindowLength,
		NumWindows:     req.NumWindows,
		Overlap:        req.Overlap,
		Workers:        workers,
	}
	if a := req.Approx; a != nil {
		opt.Approx = &ftpm.ApproxOptions{Mu: a.Mu, Density: a.Density, EventLevel: a.EventLevel}
	}
	return opt
}

// splitOptions extracts the window geometry of the request.
func (req MiningRequest) splitOptions() ftpm.SplitOptions {
	return ftpm.SplitOptions{
		WindowLength: req.WindowLength,
		NumWindows:   req.NumWindows,
		Overlap:      req.Overlap,
	}
}

// Progress is the per-job view of mining progress, accumulated from the
// miner's per-level stats while the job runs.
type Progress struct {
	// Level is the highest completed level of the pattern graph.
	Level int `json:"level"`
	// Candidates is the cumulative number of candidate combinations
	// generated so far.
	Candidates int `json:"candidates"`
	// Patterns is the cumulative number of frequent temporal patterns
	// (k >= 2) found so far.
	Patterns int `json:"patterns"`
}

// JobSummary reports the headline numbers of a completed job. Shards and
// ShardSeqs mirror the sharded run's partition (absent for unsharded
// datasets); Workers is the worker count the budget granted the job.
// DSEQCache and NMICache report whether the run reused the dataset's
// cached DSEQ conversion / pairwise NMI table (NMICache is always false
// for exact jobs, which never consult NMI); ResultCache is true when the
// job reused the document of a retained done job with its result key —
// nothing was mined, DSEQCache/NMICache then read true since nothing was
// recomputed, and Workers is 0.
type JobSummary struct {
	Sequences      int     `json:"sequences"`
	FrequentEvents int     `json:"frequent_events"`
	Patterns       int     `json:"patterns"`
	Shards         int     `json:"shards,omitempty"`
	ShardSeqs      []int   `json:"shard_sequences,omitempty"`
	Workers        int     `json:"workers,omitempty"`
	DSEQCache      bool    `json:"dseq_cache"`
	NMICache       bool    `json:"nmi_cache"`
	ResultCache    bool    `json:"result_cache"`
	Mu             float64 `json:"mu,omitempty"`
	DurationMillis int64   `json:"duration_ms"`
}

// JobInfo is the JSON snapshot of a job. QueueDepth is the number of
// jobs waiting for a worker at snapshot time — a service-level gauge
// stamped onto every job response so operators can spot backlog without
// a separate metrics endpoint.
type JobInfo struct {
	ID         string      `json:"id"`
	DatasetID  string      `json:"dataset_id"`
	Tenant     string      `json:"tenant"`
	State      JobState    `json:"state"`
	Error      string      `json:"error,omitempty"`
	CreatedAt  time.Time   `json:"created_at"`
	StartedAt  *time.Time  `json:"started_at,omitempty"`
	FinishedAt *time.Time  `json:"finished_at,omitempty"`
	QueueDepth int         `json:"queue_depth"`
	Progress   Progress    `json:"progress"`
	Summary    *JobSummary `json:"summary,omitempty"`
}

// job is one mining job. Mutable fields are guarded by mu; the request is
// immutable after submission.
type job struct {
	id     string
	req    MiningRequest
	tenant string

	mu sync.Mutex
	// ds is the dataset the job mines. It is cleared when the job turns
	// terminal, so a deleted dataset is not kept reachable by the
	// retained job.
	ds    *Dataset
	state JobState
	// fp is the content fingerprint of the dataset generation the run
	// captured — the result key component and the provenance stamp
	// persisted with the terminal record.
	fp string
	// key is the job's resultKey, set when the run captures its
	// generation (or on restore); eviction uses it to drop the job's
	// entry from the manager's byKey index.
	key        string
	errMsg     string
	createdAt  time.Time
	startedAt  time.Time
	finishedAt time.Time
	progress   Progress
	// levels records the per-level timings from the miner's Progress
	// callback; the /metrics endpoint exposes them.
	levels  []LevelTimingJSON
	cancel  context.CancelFunc
	doc     *resultDoc
	summary *JobSummary
}

// snapshot returns a consistent JSON view of the job.
func (j *job) snapshot() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:        j.id,
		DatasetID: j.req.DatasetID,
		Tenant:    j.tenant,
		State:     j.state,
		Error:     j.errMsg,
		CreatedAt: j.createdAt,
		Progress:  j.progress,
		Summary:   j.summary,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		info.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		info.FinishedAt = &t
	}
	return info
}

// document returns the result document of a done job, or nil and the
// current state otherwise.
func (j *job) document() (*resultDoc, JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.doc, j.state
}

// recordLocked snapshots the job as its persistence record. The summary
// is copied and the level slice cloned so the record stays immutable
// once handed to the persister; the result document is shared — it is
// never mutated after the job completes. Caller holds j.mu.
func (j *job) recordLocked() jobRecord {
	rec := jobRecord{
		ID:          j.id,
		Request:     j.req,
		Tenant:      j.tenant,
		Fingerprint: j.fp,
		State:       j.state,
		Error:       j.errMsg,
		CreatedAt:   j.createdAt,
		Levels:      append([]LevelTimingJSON(nil), j.levels...),
		Doc:         j.doc,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		rec.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		rec.FinishedAt = &t
	}
	if j.summary != nil {
		s := *j.summary
		rec.Summary = &s
	}
	return rec
}

// jobManager runs mining jobs on a bounded worker pool over per-tenant
// FIFO queues drained by weighted fair share (tenant.go).
//
// Lock order: m.mu before j.mu (evictLocked and the scheduler take both);
// the event hub's internal lock is a leaf and may be taken under either.
type jobManager struct {
	baseCtx  context.Context
	stop     context.CancelFunc
	wg       sync.WaitGroup
	counters *cacheCounters
	persist  *persister  // nil when DataDir is unset
	hub      *events.Hub // never nil
	qos      qosOptions
	// workerCount / budgetTotal are the pool size and the worker budget
	// the fair share divides (GOMAXPROCS).
	workerCount int
	budgetTotal int
	// logf receives worker-pool diagnostics (panic stacks, notably);
	// never nil.
	logf func(format string, args ...any)

	mu   sync.Mutex
	cond *sync.Cond // signalled when a job is enqueued or a slot frees
	// tenants / tenantOrder hold the per-tenant scheduler state in
	// first-seen order (deterministic iteration).
	tenants     map[string]*tenantState
	tenantOrder []string
	// totalQueued gauges the jobs genuinely waiting for a worker across
	// all tenants; cancelled-while-queued jobs leave their queue (and this
	// counter) immediately.
	totalQueued int
	// queueCap is the global admission bound (Options.QueueDepth): submits
	// beyond it are rejected 503 regardless of tenant.
	queueCap int
	// pickTick orders tenant drains for the scheduler's round-robin
	// tie-break.
	pickTick int64
	// avgJobMillis is the EWMA of completed mining durations feeding the
	// Retry-After estimate.
	avgJobMillis int64
	closed       bool
	byID         map[string]*job
	ids          []string // insertion order
	seq          int
	// byKey maps a resultKey to the newest retained done job with that
	// key: the one place a repeat job looks for a result to reuse. Every
	// job it reaches is in byID, so it holds no document of its own.
	byKey map[string]*job
}

func newJobManager(base context.Context, workers, queueDepth int, persist *persister, hub *events.Hub, qos qosOptions, logf func(string, ...any)) *jobManager {
	// Every job context derives from base (Options.BaseContext): cancel
	// it and queued/running jobs observe cancellation, in addition to
	// the manager's own close.
	ctx, cancel := context.WithCancel(base)
	if hub == nil {
		hub = events.NewHub(1)
	}
	if qos.maxQueued <= 0 {
		qos.maxQueued = queueDepth
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	m := &jobManager{
		baseCtx:     ctx,
		stop:        cancel,
		counters:    &cacheCounters{},
		persist:     persist,
		hub:         hub,
		qos:         qos,
		workerCount: workers,
		budgetTotal: runtime.GOMAXPROCS(0),
		logf:        logf,
		tenants:     make(map[string]*tenantState),
		queueCap:    queueDepth,
		byID:        make(map[string]*job),
		byKey:       make(map[string]*job),
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// queueDepth is the number of jobs waiting for a worker across all
// tenants.
func (m *jobManager) queueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalQueued
}

// jobEventData is the data payload of job stream events ("state" and
// "progress").
type jobEventData struct {
	JobID  string   `json:"job_id"`
	Tenant string   `json:"tenant"`
	State  JobState `json:"state"`
	Error  string   `json:"error,omitempty"`
	// Level carries one completed pattern-graph level on "progress"
	// events.
	Level *LevelTimingJSON `json:"level,omitempty"`
}

// publishState pushes a job state transition into the event hub. The
// terminal transitions mark the event final, ending per-job streams.
func (m *jobManager) publishState(id, tenant string, state JobState, errMsg string) {
	m.hub.Publish("state", id, state.Terminal(), jobEventData{
		JobID: id, Tenant: tenant, State: state, Error: errMsg,
	})
}

// finishLocked completes j's transition to its (already set) terminal
// state: it drops the dataset reference, publishes the final event and
// returns the terminal record for the persister. Publishing under j.mu
// makes "state is terminal" and "final event is in the hub" one step for
// every j.snapshot reader, which the per-job stream handler relies on.
// Caller holds j.mu.
func (m *jobManager) finishLocked(j *job) jobRecord {
	j.ds = nil
	m.publishState(j.id, j.tenant, j.state, j.errMsg)
	return j.recordLocked()
}

// publishProgress pushes one completed level of a running job.
func (m *jobManager) publishProgress(id, tenant string, lv LevelTimingJSON) {
	m.hub.Publish("progress", id, false, jobEventData{
		JobID: id, Tenant: tenant, State: JobRunning, Level: &lv,
	})
}

// restore loads replayed jobs into the manager. Jobs that were live
// (queued or running) when the previous process died re-queue against
// their tenant — they count against its quota immediately, so admission
// control survives restarts — and re-run from scratch; mining is pure, so
// the re-run is safe and byte-identical. Only live jobs whose dataset did
// not survive replay come back failed with the distinguishable
// lost-to-restart error. Done jobs whose dataset still exists are indexed
// by their result key, so repeat submissions after a restart hit without
// mining.
func (m *jobManager) restore(records []jobRecord, maxSeq int, reg *registry) {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range records {
		tenant := rec.Tenant
		if tenant == "" { // records from before tenants existed
			tenant = DefaultTenant
		}
		j := &job{
			id:        rec.ID,
			req:       rec.Request,
			tenant:    tenant,
			fp:        rec.Fingerprint,
			state:     rec.State,
			errMsg:    rec.Error,
			createdAt: rec.CreatedAt,
			levels:    rec.Levels,
			doc:       rec.Doc,
			summary:   rec.Summary,
		}
		if rec.StartedAt != nil {
			j.startedAt = *rec.StartedAt
		}
		if rec.FinishedAt != nil {
			j.finishedAt = *rec.FinishedAt
		}
		// Progress is not persisted separately — it re-accumulates from
		// the persisted level timings exactly as the live Progress
		// callback built it.
		for _, lv := range rec.Levels {
			if lv.Level > j.progress.Level {
				j.progress.Level = lv.Level
			}
			j.progress.Candidates += lv.Candidates
			if lv.Level >= 2 {
				j.progress.Patterns += lv.Patterns
			}
		}
		if j.state == JobDone && j.doc == nil {
			// Every done record is logged with its document; one without
			// has nothing to serve, so it comes back failed, not done.
			j.state = JobFailed
			j.errMsg = "result document missing from the job record"
		}
		if !j.state.Terminal() {
			if ds, ok := reg.get(rec.Request.DatasetID); ok {
				// Re-queue: reset to a clean pre-run lifecycle (a snapshot
				// may have captured the job mid-run with partial levels).
				j.state = JobQueued
				j.errMsg = ""
				j.startedAt = time.Time{}
				j.progress = Progress{}
				j.levels = nil
				j.ds = ds
				t := m.tenantLocked(tenant)
				t.queue = append(t.queue, j)
				t.admitted++
				m.totalQueued++
				m.publishState(j.id, tenant, JobQueued, "")
			} else {
				j.state = JobFailed
				j.errMsg = lostToRestart
				j.finishedAt = now
			}
		}
		if j.state == JobDone && j.summary != nil {
			if ds, ok := reg.get(rec.Request.DatasetID); ok {
				// Pre-append-era records carry no fingerprint; their log
				// cannot contain appends, so the dataset's current
				// fingerprint is the one the job mined.
				fp := rec.Fingerprint
				if fp == "" {
					fp = ds.view().fingerprint
				}
				j.key = resultKey(fp, ds.shards, rec.Request)
				m.byKey[j.key] = j
			}
		}
		m.byID[j.id] = j
		m.ids = append(m.ids, j.id)
	}
	if maxSeq > m.seq {
		m.seq = maxSeq
	}
	m.evictLocked()
	m.cond.Broadcast() // wake workers for any re-queued jobs
}

// submit enqueues a job against the dataset for the given tenant.
// Admission control applies in order: a closing manager rejects with
// errClosed (503), a service-wide queue at capacity with errQueueFull
// (503), and a tenant past its queued quota with errQuotaExceeded (429 +
// Retry-After). The enqueue, the index registration and the "queued"
// event publish happen under one critical section, so the queued event
// always precedes the job's running event and a rejected submit never
// disturbs concurrent ones.
func (m *jobManager) submit(ds *Dataset, req MiningRequest, tenant string) (*job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errClosed
	}
	if m.totalQueued >= m.queueCap {
		m.mu.Unlock()
		return nil, errQueueFull
	}
	t := m.tenantLocked(tenant)
	if len(t.queue) >= m.qos.maxQueued {
		t.shed++
		retry := m.retryAfterLocked(t)
		m.mu.Unlock()
		return nil, errQuotaExceeded{tenant: tenant, maxQueued: m.qos.maxQueued, retryAfter: retry}
	}
	j := &job{
		id:        fmt.Sprintf("job-%d", m.seq+1),
		ds:        ds,
		req:       req,
		tenant:    tenant,
		state:     JobQueued,
		createdAt: time.Now(),
	}
	m.seq++
	m.byID[j.id] = j
	m.ids = append(m.ids, j.id)
	t.queue = append(t.queue, j)
	t.admitted++
	m.totalQueued++
	m.evictLocked()
	m.publishState(j.id, tenant, JobQueued, "")
	m.cond.Signal()
	m.mu.Unlock()
	// Logged outside m.mu (the persister's snapshot gather takes the
	// manager locks). A terminal record racing ahead of this one is
	// fine: replay never downgrades a terminal job.
	j.mu.Lock()
	rec := j.recordLocked()
	j.mu.Unlock()
	m.persist.jobSubmitted(m.stamp(rec))
	return j, nil
}

// stamp records the hub's high-water event id on a record headed for the
// WAL. Restore reseeds the hub past the highest persisted value, so event
// ids stay monotone across restarts and Last-Event-ID resume survives a
// server bounce. Called after the transition publishes, so the stamped
// id covers the record's own event.
func (m *jobManager) stamp(rec jobRecord) jobRecord {
	rec.EventSeq = m.hub.LastID()
	return rec
}

// evictLocked drops the oldest terminal jobs while the retained set
// exceeds maxRetainedJobs, and the byKey entries that point at them.
// Caller holds m.mu.
func (m *jobManager) evictLocked() {
	if len(m.ids) <= maxRetainedJobs {
		return
	}
	kept := m.ids[:0]
	excess := len(m.ids) - maxRetainedJobs
	for _, id := range m.ids {
		j := m.byID[id]
		j.mu.Lock()
		terminal, key := j.state.Terminal(), j.key
		j.mu.Unlock()
		if excess > 0 && terminal {
			delete(m.byID, id)
			if m.byKey[key] == j {
				delete(m.byKey, key)
			}
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.ids = kept
}

func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	return j, ok
}

// cancelJob cancels a queued or running job and reports the state the
// job was in when the request arrived. Queued jobs transition to
// cancelled immediately and leave their tenant's queue; running jobs are
// cancelled via their context and transition once the miner observes
// ctx.Err(). Terminal jobs are left untouched — the caller turns
// prior.Terminal() into a 409.
func (m *jobManager) cancelJob(id string) (j *job, prior JobState, ok bool) {
	m.mu.Lock()
	j, ok = m.byID[id]
	if !ok {
		m.mu.Unlock()
		return nil, "", false
	}
	var rec *jobRecord
	j.mu.Lock()
	prior = j.state
	switch j.state {
	case JobQueued:
		j.state = JobCancelled
		j.finishedAt = time.Now()
		// The job may already have been popped by a worker that has not
		// yet observed the state (run discards it then); only a job still
		// queued moves the gauge here.
		m.removeQueuedLocked(j)
		if t, tok := m.tenants[j.tenant]; tok {
			t.finished++
		}
		r := m.finishLocked(j)
		rec = &r
	case JobRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	m.mu.Unlock()
	if rec != nil {
		m.persist.jobTerminal(m.stamp(*rec))
	}
	return j, prior, true
}

// removeQueuedLocked drops j from its tenant's queue if still present and
// reports whether it was. Caller holds m.mu.
func (m *jobManager) removeQueuedLocked(j *job) bool {
	t, ok := m.tenants[j.tenant]
	if !ok {
		return false
	}
	for i, q := range t.queue {
		if q == j {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			m.totalQueued--
			return true
		}
	}
	return false
}

func (m *jobManager) worker() {
	defer m.wg.Done()
	for {
		j := m.nextJob()
		if j == nil {
			return
		}
		m.run(j)
	}
}

// nextJob blocks until the fair-share scheduler yields a job or the
// manager closes (nil then). Popping the job, decrementing the queue
// gauge and incrementing the tenant's running count are one atomic step.
func (m *jobManager) nextJob() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return nil
		}
		if t := m.pickLocked(); t != nil {
			j := t.queue[0]
			copy(t.queue, t.queue[1:])
			t.queue[len(t.queue)-1] = nil
			t.queue = t.queue[:len(t.queue)-1]
			m.totalQueued--
			t.running++
			m.pickTick++
			t.lastPick = m.pickTick
			return j
		}
		m.cond.Wait()
	}
}

// releaseRun returns a popped job's worker slot to its tenant. finished
// marks jobs that reached a terminal state in run (a job cancelled
// between pop and run start was already counted by cancelJob);
// minedMillis, when positive, feeds the Retry-After duration estimate.
func (m *jobManager) releaseRun(j *job, minedMillis int64, finished bool) {
	m.mu.Lock()
	if t, ok := m.tenants[j.tenant]; ok {
		if t.running > 0 {
			t.running--
		}
		if finished {
			t.finished++
		}
	}
	if minedMillis > 0 {
		m.noteJobDurationLocked(minedMillis)
	}
	m.cond.Signal()
	m.mu.Unlock()
}

// resultKey is the key under which a done job's result is reused: the
// content fingerprint of the dataset generation the job runs against and
// the shard width, plus every result-affecting option. Appending to a
// dataset changes its fingerprint, so a lookup after an append
// structurally misses — generation invalidation is this key, not an
// eviction sweep — while re-uploading (or rolling forward to) identical
// content still hits. Workers is deliberately excluded — mined results are
// byte-identical across worker counts — so jobs differing only in
// parallelism share an entry.
func resultKey(fingerprint string, shards int, req MiningRequest) string {
	approx := "-"
	if a := req.Approx; a != nil {
		approx = fmt.Sprintf("%g|%g|%t", a.Mu, a.Density, a.EventLevel)
	}
	return fmt.Sprintf("%s|K%d|s%g|c%g|e%d|o%d|t%d|k%d|wl%d|nw%d|ov%d|a%s",
		fingerprint, shards, req.MinSupport, req.MinConfidence,
		req.Epsilon, req.MinOverlap, req.TMax, req.MaxPatternSize,
		req.WindowLength, req.NumWindows, req.Overlap, approx)
}

// run executes one job end to end on the calling worker goroutine. The
// testMineHook, when non-nil, runs inside the panic-isolated mining
// section of every job; the panic-isolation tests use it to detonate a
// chosen job.
var testMineHook func(*job)

// dataset's current generation is captured once, before anything else:
// the cache key, the Prepared handle and the mine all resolve against
// that one immutable view, so an append landing mid-run can neither tear
// the job's data nor mislabel its result — the job simply completes on
// the generation it started on, and the next job picks up the new one.
func (m *jobManager) run(j *job) {
	j.mu.Lock()
	if j.state != JobQueued { // cancelled between pop and here
		j.mu.Unlock()
		m.releaseRun(j, 0, false)
		return
	}
	ds := j.ds
	g := ds.view() // the dataset lock is a leaf under j.mu
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.state = JobRunning
	j.startedAt = time.Now()
	j.cancel = cancel
	j.fp = g.fingerprint
	j.key = resultKey(g.fingerprint, ds.shards, j.req)
	j.mu.Unlock()
	defer cancel()
	m.publishState(j.id, j.tenant, JobRunning, "")

	// Result reuse: a retained done job with the same key (dataset
	// content and options) answers this one without preparing or mining
	// anything. Its document and summary are immutable once done.
	m.mu.Lock()
	if src, ok := m.byKey[j.key]; ok {
		j.mu.Lock()
		j.finishedAt = time.Now()
		if ctx.Err() != nil { // cancelled while the job was being admitted
			j.state = JobCancelled
			j.errMsg = ctx.Err().Error()
		} else {
			m.counters.resultHits.Add(1)
			j.state = JobDone
			j.doc = src.doc
			sum := *src.summary
			sum.ResultCache = true
			sum.DSEQCache = true
			sum.NMICache = j.req.Approx != nil
			sum.Workers = 0
			sum.DurationMillis = j.finishedAt.Sub(j.startedAt).Milliseconds()
			j.summary = &sum
		}
		m.endRun(j)
		return
	}
	m.mu.Unlock()

	opt := j.req.options()
	// The fair-share budget grants the job its tenant's share of
	// GOMAXPROCS at admission, and the miner renegotiates the grant at
	// every level boundary — a tenant arriving mid-run reclaims its share
	// without waiting for this job to finish.
	requested := opt.Workers
	workers := m.grantFor(j.tenant, requested)
	opt.Workers = workers
	opt.WorkersFunc = func(int) int { return m.grantFor(j.tenant, requested) }
	opt.Progress = func(ls ftpm.LevelStats) {
		lv := LevelTimingJSON{
			Level:          ls.K,
			DurationMillis: ls.Duration.Milliseconds(),
			DurationMicros: ls.Duration.Microseconds(),
			Candidates:     ls.Candidates,
			Patterns:       ls.Patterns,
			Workers:        ls.Workers,
			MemoHits:       ls.MemoHits,
		}
		j.mu.Lock()
		if ls.K > j.progress.Level {
			j.progress.Level = ls.K
		}
		j.progress.Candidates += ls.Candidates
		if ls.K >= 2 {
			j.progress.Patterns += ls.Patterns
		}
		j.levels = append(j.levels, lv)
		j.mu.Unlock()
		m.publishProgress(j.id, j.tenant, lv)
	}

	// Every job — exact, approx, event-level, sharded or not — mines
	// through the dataset's geometry-keyed Prepared handle and shares its
	// cached DSEQ conversion and NMI tables. The closure isolates a panic
	// anywhere in the prepare/mine pipeline to this job: it fails with
	// the panic reason (stack to the log) and the worker — and every
	// other job — keeps going.
	var res *ftpm.Result
	var doc *resultDoc
	var err error
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
				m.logf("job %s panicked: %v\n%s", j.id, p, debug.Stack())
			}
		}()
		if h := testMineHook; h != nil {
			h(j)
		}
		var prep *ftpm.Prepared
		prep, err = ds.prepared(g, j.req.splitOptions())
		if err == nil {
			res, err = prep.Mine(ctx, opt)
		}
		if err == nil {
			// The one encoding of the document: every later /result,
			// pattern page and log record is served from these bytes.
			d := res.Document()
			doc, err = encodeResult(&d)
		}
	}()

	m.mu.Lock()
	j.mu.Lock()
	j.finishedAt = time.Now()
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || ctx.Err() != nil):
		j.state = JobCancelled
		j.errMsg = err.Error()
	case err != nil:
		j.state = JobFailed
		j.errMsg = err.Error()
	default:
		// Counters move only for jobs that actually completed: hits count
		// documents reused from a retained job, misses jobs that mined to
		// done, so hits + misses always equals the done-job count.
		m.counters.resultMisses.Add(1)
		m.counters.note(res.Cache, j.req.Approx != nil)
		ds.noteSeqCounts(res.Stats.ShardSequences)
		j.doc = doc
		j.state = JobDone
		j.summary = &JobSummary{
			Sequences:      res.Stats.Sequences,
			FrequentEvents: len(res.Singles),
			Patterns:       len(res.Patterns),
			Workers:        workers,
			DSEQCache:      res.Cache.DSEQ,
			NMICache:       res.Cache.NMI,
			Mu:             res.Mu,
			DurationMillis: res.Stats.Duration.Milliseconds(),
		}
		if res.Stats.Shards > 1 {
			j.summary.Shards = res.Stats.Shards
			j.summary.ShardSeqs = res.Stats.ShardSequences
		}
	}
	m.endRun(j)
}

// endRun completes a run whose terminal state the caller has just set
// under m.mu and j.mu. A done job becomes the byKey entry for its key in
// the same critical section, so a client that sees it done and repeats it
// hits; a running job is never evicted, so the entry always points at a
// retained job. endRun then releases both locks, logs the terminal record
// and frees the worker slot.
func (m *jobManager) endRun(j *job) {
	if j.state == JobDone {
		m.byKey[j.key] = j
	}
	rec := m.finishLocked(j)
	millis := j.finishedAt.Sub(j.startedAt).Milliseconds()
	j.mu.Unlock()
	m.mu.Unlock()
	m.persist.jobTerminal(m.stamp(rec))
	m.releaseRun(j, millis, true)
}

// info snapshots a job and stamps the current queue depth onto it.
func (m *jobManager) info(j *job) JobInfo {
	in := j.snapshot()
	in.QueueDepth = m.queueDepth()
	return in
}

// close stops the pool: running jobs are cancelled, queued jobs are
// marked cancelled, and workers are joined. The shutdown cancellations
// are persisted as ordinary terminal transitions, so a clean restart
// shows them cancelled — only a crash produces "lost to restart" jobs.
func (m *jobManager) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.cond.Broadcast() // unblock workers waiting for jobs
	m.mu.Unlock()

	m.stop()
	m.wg.Wait()

	// All workers are joined: running jobs have already transitioned
	// (and persisted) via run; only still-queued jobs are swept here.
	m.mu.Lock()
	var recs []jobRecord
	for _, id := range m.ids {
		j := m.byID[id]
		j.mu.Lock()
		if !j.state.Terminal() {
			j.state = JobCancelled
			j.finishedAt = time.Now()
			if t, ok := m.tenants[j.tenant]; ok {
				t.finished++
			}
			recs = append(recs, m.finishLocked(j))
		}
		j.mu.Unlock()
	}
	for _, t := range m.tenants {
		t.queue = nil
	}
	m.totalQueued = 0
	m.mu.Unlock()
	// The shutdown cancellations were published before the hub closes
	// (Server.Close closes it after this returns), so streaming clients
	// see them as ordinary terminal events.
	for _, rec := range recs {
		m.persist.jobTerminal(m.stamp(rec))
	}
}

// tenantMetrics snapshots the per-tenant scheduler gauges and counters.
func (m *jobManager) tenantMetrics() map[string]TenantMetricsJSON {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.tenants) == 0 {
		return nil
	}
	out := make(map[string]TenantMetricsJSON, len(m.tenants))
	for name, t := range m.tenants {
		out[name] = TenantMetricsJSON{
			Weight:   t.weight,
			Queued:   len(t.queue),
			Running:  t.running,
			Admitted: t.admitted,
			Finished: t.finished,
			Shed:     t.shed,
		}
	}
	return out
}

// page returns up to limit job snapshots strictly after the afterSeq id
// cursor, in insertion order (ascending job number — insertion order and
// id order coincide, and terminal-job eviction only removes entries, so a
// cursor stays stable across appends and evictions). nextAfter is the
// cursor of the following page ("" when this page is the last).
func (m *jobManager) page(afterSeq, limit int) (infos []JobInfo, nextAfter string) {
	m.mu.Lock()
	var jobs []*job
	more := false
	for _, id := range m.ids {
		if parseSeq(id, "job-") <= afterSeq {
			continue
		}
		if len(jobs) == limit {
			more = true
			break
		}
		jobs = append(jobs, m.byID[id])
	}
	m.mu.Unlock()
	depth := m.queueDepth()
	infos = make([]JobInfo, len(jobs))
	for i, j := range jobs {
		infos[i] = j.snapshot()
		infos[i].QueueDepth = depth
	}
	if more {
		nextAfter = jobs[len(jobs)-1].id
	}
	return infos, nextAfter
}

// seqNo returns the highest job sequence number ever issued.
func (m *jobManager) seqNo() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// records snapshots every retained job for a compacting snapshot, in
// insertion order.
func (m *jobManager) records() []jobRecord {
	m.mu.Lock()
	jobs := make([]*job, len(m.ids))
	for i, id := range m.ids {
		jobs[i] = m.byID[id]
	}
	m.mu.Unlock()
	out := make([]jobRecord, len(jobs))
	for i, j := range jobs {
		j.mu.Lock()
		out[i] = j.recordLocked()
		j.mu.Unlock()
	}
	return out
}
