package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"ftpm"
	"ftpm/internal/csvio"
	"ftpm/internal/server/events"
	"ftpm/internal/server/store"
	"ftpm/internal/timeseries"
)

// Options configures a Server.
type Options struct {
	// Workers is the size of the mining worker pool; at most this many
	// jobs mine concurrently. Defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; submits
	// beyond it are rejected with 503. Defaults to 64.
	QueueDepth int
	// MaxUploadBytes caps the size of one dataset upload. Defaults to
	// 64 MiB.
	MaxUploadBytes int64
	// DefaultThreshold is the On/Off threshold applied to numeric uploads
	// when the request does not pass ?threshold=. A pointer so that an
	// explicit zero threshold is distinguishable from unset; nil defaults
	// to 0.05, the CLI's default.
	DefaultThreshold *float64
	// DefaultShards is the shard count applied to uploads that do not pass
	// ?shards=. Defaults to GOMAXPROCS: ingestion and mining then
	// parallelize across the machine by default, with results identical to
	// one shard.
	DefaultShards int
	// DataDir, when non-empty, makes the service durable: dataset
	// ingestions/removals and job submissions/terminal transitions are
	// appended to a write-ahead log in this directory (fsync'd, CRC per
	// record) and compacted into periodic snapshots; on startup the
	// directory replays into the registry and job log. Empty keeps
	// today's purely in-memory behavior with zero new I/O. One server
	// process owns a data directory at a time.
	DataDir string
	// SnapshotEvery is the compaction trigger: a snapshot replaces the
	// WAL once this many records accumulate since the previous one.
	// Defaults to 256. Ignored without DataDir.
	SnapshotEvery int
	// TenantMaxQueued caps one tenant's queued jobs: submits beyond it
	// are shed with 429 + Retry-After while other tenants keep
	// submitting. Defaults to QueueDepth (per-tenant admission then only
	// binds when several tenants share the service).
	TenantMaxQueued int
	// TenantMaxRunning caps one tenant's concurrently running jobs; 0
	// (the default) leaves tenants bounded only by the worker pool and
	// fair-share scheduling.
	TenantMaxRunning int
	// TenantWeights sets per-tenant fair-share weights for worker
	// scheduling and the worker-budget split; tenants not listed weigh 1.
	TenantWeights map[string]int
	// EventRing is how many recent job events the broadcast hub retains
	// for Last-Event-ID resume. Defaults to 1024.
	EventRing int
	// MaxStreamSubscribers caps concurrently open firehose streams
	// (GET /v1/events): connections beyond it are rejected with 429 so a
	// subscriber herd cannot pin unbounded per-connection buffers.
	// Per-job streams are not counted — they end with their job. 0 (the
	// default) leaves the firehose uncapped.
	MaxStreamSubscribers int
	// BaseContext is the root context every job context derives from:
	// cancel it and queued or running jobs observe cancellation just as
	// they do on Close. nil defaults to a fresh root that only Close
	// cancels; processes that want SIGTERM to stop mining promptly
	// (ftpm-serve does) pass their signal context here.
	BaseContext context.Context
	// FS is the filesystem every durable write goes through (WAL,
	// snapshots, segment files). nil means the real filesystem; the
	// fault-injection tests substitute a store.ErrFS. Ignored without
	// DataDir.
	FS store.FS
	// Logger, when non-nil, receives one line per request and job
	// transition.
	Logger *log.Logger
}

// Server is the mining service: an http.Handler plus the dataset
// registry, job manager and (optional) persistence layer behind it.
type Server struct {
	opts    Options
	reg     *registry
	jobs    *jobManager
	hub     *events.Hub
	persist *persister // nil when Options.DataDir is unset
	fsys    store.FS   // filesystem for segment files; store.OS() by default
	segDir  string     // DataDir/segments; "" when not durable
	closed  atomic.Bool

	// degraded flips (sticky) when a fatal store fault is observed: the
	// server keeps serving reads but rejects mutations with 503
	// code "degraded" until restart. degradedReason holds the operator-
	// facing cause; storeFaults counts every observed store fault.
	degraded       atomic.Bool
	degradedReason atomic.Value // string
	storeFaults    atomic.Int64

	// appends / appendRows are the service-lifetime append counters
	// surfaced on /metrics.
	appends    atomic.Int64
	appendRows atomic.Int64
	// streamSubs counts open firehose streams against
	// Options.MaxStreamSubscribers; streamRejected counts connections
	// turned away at the cap.
	streamSubs     atomic.Int64
	streamRejected atomic.Int64
}

// New builds a Server and starts its worker pool. With Options.DataDir
// set it opens (or initializes) the data directory and replays its
// snapshot and WAL back into the registry and job log before serving.
// Call Close to stop it.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = 64 << 20
	}
	if opts.DefaultThreshold == nil {
		v := 0.05
		opts.DefaultThreshold = &v
	}
	if opts.DefaultShards <= 0 {
		opts.DefaultShards = runtime.GOMAXPROCS(0)
	}
	if opts.DefaultShards > maxShards {
		opts.DefaultShards = maxShards
	}
	if opts.EventRing <= 0 {
		opts.EventRing = 1024
	}
	s := &Server{opts: opts, fsys: opts.FS}
	if s.fsys == nil {
		s.fsys = store.OS()
	}
	var recovered *recoveredState
	if opts.DataDir != "" {
		var err error
		s.persist, recovered, err = openPersister(s.fsys, opts.DataDir, opts.SnapshotEvery, s.logf)
		if err != nil {
			return nil, err
		}
		s.persist.noteFault = s.noteStoreFault
		s.segDir = filepath.Join(opts.DataDir, "segments")
		if err := s.fsys.MkdirAll(s.segDir, 0o755); err != nil {
			s.persist.close()
			return nil, fmt.Errorf("server: segments dir: %w", err)
		}
	}
	base := opts.BaseContext
	if base == nil {
		//ftpm:ctx the one structural root: a library default for callers that did not wire Options.BaseContext; Close still cancels every job derived from it
		base = context.Background()
	}
	s.hub = events.NewHub(opts.EventRing)
	s.reg = newRegistry(s.persist)
	s.jobs = newJobManager(base, opts.Workers, opts.QueueDepth, s.persist, s.hub, qosOptions{
		maxQueued:  opts.TenantMaxQueued,
		maxRunning: opts.TenantMaxRunning,
		weights:    opts.TenantWeights,
	}, s.logf)
	if recovered != nil {
		if err := s.restore(recovered); err != nil {
			s.jobs.close()
			s.persist.close()
			return nil, err
		}
		// A crash between sealing a segment and logging its record leaves
		// the sealed file unreferenced; the retry re-seals under the same
		// name, but an abandoned upload's file would otherwise leak forever.
		s.cleanOrphanSegments()
		// Compaction needs the gather callback and must not fire during
		// replay, so it is installed after restore; an oversized replayed
		// WAL is then collapsed into a fresh snapshot immediately.
		s.persist.setGather(s.snapshotState)
		s.persist.maybeCompact()
	}
	return s, nil
}

// restore loads the replayed datasets and jobs. Datasets mmap their
// sealed segment files and trust the recorded fingerprint — no payload
// re-read, no rehash — which is what makes restart near-instant. Jobs
// that were live at crash time surface as failed ("lost to restart").
func (s *Server) restore(st *recoveredState) error {
	if st.snapshotDamaged {
		s.logf("persist: snapshot failed verification and was ignored")
	}
	if st.truncatedBytes > 0 {
		s.logf("persist: truncated %d bytes of torn WAL tail", st.truncatedBytes)
	}
	restored := 0
	for _, rec := range st.datasets {
		g, err := s.segmentGen(rec)
		if err != nil {
			// A lost or corrupt segment loses this dataset (its live jobs
			// fail as "lost to restart"), not the whole service: the rest
			// of the log is intact and serveable.
			s.logf("persist: dataset %s dropped: %v", rec.ID, err)
			continue
		}
		s.reg.restore(rec, g, *s.opts.DefaultThreshold)
		restored++
	}
	// Seq counters apply even when nothing survived replay (the highest
	// id's dataset or job may have been removed or evicted).
	s.reg.advanceSeq(st.maxDatasetSeq)
	// Reseed event ids past every persisted record, with ring-sized slack
	// for events published after the last record hit the log — ids stay
	// monotone across the bounce, so Last-Event-ID resume keeps working.
	slack := uint64(s.opts.EventRing)
	if slack < 1024 {
		slack = 1024
	}
	if st.maxEventSeq > 0 {
		s.hub.SeedIDs(st.maxEventSeq + slack)
	}
	s.jobs.restore(st.jobs, st.maxJobSeq, s.reg)
	if restored > 0 || len(st.jobs) > 0 {
		s.logf("recovered %d datasets and %d jobs from %s", restored, len(st.jobs), s.opts.DataDir)
	}
	return nil
}

// segmentGen opens a segment-backed dataset record's sealed files and
// chains them (base segment, then one delta per append) into the
// generation's content view. Only footers are read — the column bytes
// are mapped, not loaded — so this is O(appends), not O(samples).
func (s *Server) segmentGen(rec datasetRecord) (*dsGen, error) {
	parts := make([]ftpm.SymbolSource, len(rec.Segments))
	var segBytes int64
	for k, name := range rec.Segments {
		seg, err := store.OpenSegmentFS(s.fsys, filepath.Join(s.segDir, name))
		if err != nil {
			return nil, fmt.Errorf("segment %s: %w", name, err)
		}
		segBytes += seg.Size()
		parts[k] = seg
	}
	src := chainParts(parts)
	if rec.Samples != 0 && src.Len() != rec.Samples {
		return nil, fmt.Errorf("segments hold %d samples, record expects %d", src.Len(), rec.Samples)
	}
	return genFromSource(src, rec.Fingerprint, append([]string(nil), rec.Segments...), segBytes), nil
}

// cleanOrphanSegments removes files under the segments directory that no
// restored dataset references: seal tmp files, segments whose WAL record
// never made it, and segments of removed datasets whose unlink was lost
// to a crash. Referenced files are exactly the live generations' segment
// lists, so this runs strictly after restore.
func (s *Server) cleanOrphanSegments() {
	entries, err := s.fsys.ReadDir(s.segDir)
	if err != nil {
		s.logf("persist: segment scan failed: %v", err)
		return
	}
	live := s.reg.liveSegments()
	removed := 0
	for _, e := range entries {
		if e.IsDir() || live[e.Name()] {
			continue
		}
		if err := s.fsys.Remove(filepath.Join(s.segDir, e.Name())); err != nil {
			s.logf("persist: orphan segment %s not removed: %v", e.Name(), err)
			continue
		}
		removed++
	}
	if removed > 0 {
		s.logf("persist: removed %d orphan segment file(s)", removed)
	}
}

// snapshotState gathers the whole service state for a compacting
// snapshot, id counters included (the highest-numbered dataset or job
// may be removed/evicted, so the records alone can't recover them).
func (s *Server) snapshotState() snapshotRecord {
	return snapshotRecord{
		DatasetSeq: s.reg.seqNo(),
		JobSeq:     s.jobs.seqNo(),
		EventSeq:   s.hub.LastID(),
		Datasets:   s.reg.records(),
		Jobs:       s.jobs.records(),
	}
}

// Close cancels running jobs, stops the worker pool, then compacts and
// closes the persistence log (shutdown cancellations included, so a
// clean restart distinguishes them from crash losses). The handler
// keeps answering reads; mutations — job submissions, dataset uploads
// and removals — are rejected with 503. Accepting an upload here would
// acknowledge state the closed log can no longer make durable.
func (s *Server) Close() {
	s.closed.Store(true)
	s.jobs.close()
	// Closed after the job manager so the shutdown cancellations publish
	// to streaming clients before their channels close.
	s.hub.Close()
	s.persist.close()
}

// CloseStreams ends every open event stream (their subscriber channels
// close and the handlers return). Graceful HTTP shutdown wires this into
// http.Server.RegisterOnShutdown: Shutdown waits for in-flight handlers,
// and an SSE handler would otherwise hold its connection open until the
// shutdown deadline.
func (s *Server) CloseStreams() {
	s.hub.Close()
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf(format, args...)
	}
}

// Stable machine-readable error codes of the uniform envelope. Every
// non-2xx response body is {"error":{"code":..., "message":...}}; clients
// branch on the code, humans read the message.
const (
	codeInvalidArgument  = "invalid_argument"   // 400
	codeNotFound         = "not_found"          // 404
	codeMethodNotAllowed = "method_not_allowed" // 405
	codeConflict         = "conflict"           // 409
	codePayloadTooLarge  = "payload_too_large"  // 413
	codeQuotaExceeded    = "quota_exceeded"     // 429
	codeInternal         = "internal"           // 500
	codeUnavailable      = "unavailable"        // 503
	codeDegraded         = "degraded"           // 503, read-only until restart
)

// degradedRetryAfter is the Retry-After (seconds) on degraded-mode 503s.
// Degraded mode is sticky until an operator restarts the server, so the
// hint is a polling cadence, not a recovery estimate.
const degradedRetryAfter = 30

// degradedEventData is the payload of the "degraded" event broadcast on
// every stream when the server flips read-only.
type degradedEventData struct {
	Degraded bool   `json:"degraded"`
	Reason   string `json:"reason"`
}

// noteStoreFault counts one observed store fault; a fatal one flips the
// server into degraded read-only mode. Wired as the persister's fault
// callback and called directly by the segment-seal paths.
func (s *Server) noteStoreFault(err error, fatal bool) {
	s.storeFaults.Add(1)
	if fatal {
		s.enterDegraded(err)
	}
}

// enterDegraded flips the server read-only (idempotent; the first fault
// wins the reason). Existing datasets and finished results stay
// servable; mutations 503 with code "degraded" until restart. Every
// open event stream gets a broadcast "degraded" frame so streaming
// clients learn the state change without polling.
func (s *Server) enterDegraded(cause error) {
	if !s.degraded.CompareAndSwap(false, true) {
		return
	}
	reason := fmt.Sprintf("store fault (%s): %v", store.Classify(cause), cause)
	s.degradedReason.Store(reason)
	s.logf("entering degraded read-only mode: %s", reason)
	s.hub.Publish("degraded", "", false, degradedEventData{Degraded: true, Reason: reason})
}

// degradedState returns the sticky degraded flag and its reason.
func (s *Server) degradedState() (bool, string) {
	if !s.degraded.Load() {
		return false, ""
	}
	reason, _ := s.degradedReason.Load().(string)
	return true, reason
}

// Ready reports whether the server accepts work: not shut down and not
// degraded. The /v1/readyz endpoint and ftpm-serve's -ready-timeout gate
// poll it.
func (s *Server) Ready() bool {
	return !s.closed.Load() && !s.degraded.Load()
}

// rejectUnwritable writes the 503 a mutation gets while the server is
// shutting down or degraded and reports whether it did. Every write
// endpoint calls it first, so the two read-only states are rejected
// uniformly.
func (s *Server) rejectUnwritable(w http.ResponseWriter) bool {
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, codeUnavailable, "server shutting down")
		return true
	}
	if degraded, reason := s.degradedState(); degraded {
		w.Header().Set("Retry-After", strconv.Itoa(degradedRetryAfter))
		writeError(w, http.StatusServiceUnavailable, codeDegraded, "server is in degraded read-only mode: %s", reason)
		return true
	}
	return false
}

// storeFailure reports a failed durable write (segment seal, typically)
// to the client and the fault accounting. Fatal faults degrade the
// server and answer with code "degraded"; transient ones answer
// "unavailable" — the client may simply retry.
func (s *Server) storeFailure(w http.ResponseWriter, op string, err error) {
	class := store.Classify(err)
	fatal := class != store.FaultTransient
	s.logf("%s failed (%s fault): %v", op, class, err)
	s.noteStoreFault(err, fatal)
	if fatal {
		w.Header().Set("Retry-After", strconv.Itoa(degradedRetryAfter))
		writeError(w, http.StatusServiceUnavailable, codeDegraded, "%s failed: %v", op, err)
		return
	}
	writeError(w, http.StatusServiceUnavailable, codeUnavailable, "%s failed: %v", op, err)
}

// apiErrorBody is the inner object of the error envelope.
type apiErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiError is the JSON error envelope shared by every error response.
type apiError struct {
	Error apiErrorBody `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError is the single place error responses are written; the
// envelope vet test enforces that no handler bypasses it.
func writeError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	writeJSON(w, status, apiError{Error: apiErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// recoverWriter tracks whether a handler already wrote its header, so
// the panic recovery knows whether a 500 envelope can still be sent.
// It always implements http.Flusher (a no-op when the underlying writer
// cannot flush) because the streaming handlers type-assert for it.
type recoverWriter struct {
	http.ResponseWriter
	wroteHeader bool
}

func (rw *recoverWriter) WriteHeader(status int) {
	rw.wroteHeader = true
	rw.ResponseWriter.WriteHeader(status)
}

func (rw *recoverWriter) Write(p []byte) (int, error) {
	rw.wroteHeader = true
	return rw.ResponseWriter.Write(p)
}

func (rw *recoverWriter) Flush() {
	if f, ok := rw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// testRouteHook, when non-nil, runs at the top of every routed request;
// the panic-isolation tests use it to detonate inside a handler.
var testRouteHook func(*http.Request)

// ServeHTTP wraps the routing in panic isolation: a panicking handler
// answers 500 with the uniform error envelope (when its header is still
// unsent) and the server keeps serving every other connection. The
// stack goes to the logger, not the client.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rw := &recoverWriter{ResponseWriter: w}
	defer func() {
		if p := recover(); p != nil {
			s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			if !rw.wroteHeader {
				writeError(rw, http.StatusInternalServerError, codeInternal, "internal error")
			}
		}
	}()
	if h := testRouteHook; h != nil {
		h(r)
	}
	s.route(rw, r)
}

// route dispatches requests by hand on net/http only, so the server works
// identically across toolchain versions. The whole surface lives under
// /v1; every other path answers the not_found envelope.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	seg := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	if seg[0] != "v1" {
		writeError(w, http.StatusNotFound, codeNotFound, "no such route: %s %s", r.Method, r.URL.Path)
		return
	}
	seg = seg[1:]
	switch {
	case len(seg) == 1 && seg[0] == "healthz":
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case len(seg) == 1 && seg[0] == "readyz":
		s.handleReadyz(w, r)
	case len(seg) == 1 && seg[0] == "metrics":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "method %s not allowed", r.Method)
			return
		}
		writeJSON(w, http.StatusOK, s.metricsDoc())
	case len(seg) == 1 && seg[0] == "events":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "method %s not allowed", r.Method)
			return
		}
		s.handleEvents(w, r, "")
	case len(seg) >= 1 && seg[0] == "datasets" && len(seg) <= 3:
		s.routeDatasets(w, r, seg[1:])
	case len(seg) >= 1 && seg[0] == "jobs" && len(seg) <= 3:
		s.routeJobs(w, r, seg[1:])
	default:
		writeError(w, http.StatusNotFound, codeNotFound, "no such route: %s %s", r.Method, r.URL.Path)
	}
}

// handleReadyz is the readiness probe, the liveness/readiness split's
// second half: /v1/healthz answers 200 as long as the process serves HTTP,
// /v1/readyz answers 200 only while the server can accept work — not
// shutting down and not degraded. Load balancers drain on readyz while
// clients with running jobs keep reading results through the same
// process.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, codeUnavailable, "not ready: server shutting down")
		return
	}
	if degraded, reason := s.degradedState(); degraded {
		writeError(w, http.StatusServiceUnavailable, codeDegraded, "not ready: %s", reason)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// pageParams parses the shared limit/page_token pagination parameters.
func pageParams(q url.Values) (limit int, token string, err error) {
	limit = defaultPageLimit
	if v := q.Get("limit"); v != "" {
		n, convErr := strconv.Atoi(v)
		if convErr != nil || n <= 0 || n > maxPageLimit {
			return 0, "", fmt.Errorf("bad limit %q (want 1..%d)", v, maxPageLimit)
		}
		limit = n
	}
	return limit, q.Get("page_token"), nil
}

func (s *Server) routeDatasets(w http.ResponseWriter, r *http.Request, rest []string) {
	switch {
	case len(rest) == 0 && r.Method == http.MethodPost:
		if s.rejectUnwritable(w) {
			return
		}
		s.handleUploadDataset(w, r)
	case len(rest) == 0 && r.Method == http.MethodGet:
		limit, token, err := pageParams(r.URL.Query())
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "%v", err)
			return
		}
		after, err := afterSeqFromToken(token, "ds-")
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "%v", err)
			return
		}
		infos, next := s.reg.page(after, limit)
		page := datasetsPage{Datasets: infos}
		if next != "" {
			page.NextPageToken = encodeAfterToken(next)
		}
		writeJSON(w, http.StatusOK, page)
	case len(rest) == 1 && r.Method == http.MethodGet:
		ds, ok := s.reg.get(rest[0])
		if !ok {
			writeError(w, http.StatusNotFound, codeNotFound, "no such dataset: %s", rest[0])
			return
		}
		writeJSON(w, http.StatusOK, ds.info())
	case len(rest) == 1 && r.Method == http.MethodDelete:
		if s.rejectUnwritable(w) {
			return
		}
		ds, ok := s.reg.get(rest[0])
		if !ok || !s.reg.remove(rest[0]) {
			writeError(w, http.StatusNotFound, codeNotFound, "no such dataset: %s", rest[0])
			return
		}
		// Only the request that won the removal unlinks the files.
		s.removeSegments(ds.view())
		w.WriteHeader(http.StatusNoContent)
	case len(rest) == 2 && rest[1] == "append" && r.Method == http.MethodPost:
		if s.rejectUnwritable(w) {
			return
		}
		s.handleAppendDataset(w, r, rest[0])
	case len(rest) == 2 && rest[1] != "append":
		writeError(w, http.StatusNotFound, codeNotFound, "no such route: %s %s", r.Method, r.URL.Path)
	default:
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// maxShards bounds the client-supplied shard count: shards are
// goroutines at ingestion and mining fan-out, so the count must not grow
// with request variety.
const maxShards = 64

// handleUploadDataset ingests one CSV upload: the csvio reader reads the
// body once, into a buffer sized from its Content-Length, and scans it in
// row blocks over the shard count straight into each series' symbol runs
// — numeric cells through the On/Off threshold, symbolic cells by name —
// and the runs are registered with the shard width for sharded mining.
func (s *Server) handleUploadDataset(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		name = "dataset"
	}
	format := q.Get("format")
	if format == "" {
		format = "numeric"
	}
	shards := s.opts.DefaultShards
	if v := q.Get("shards"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxShards {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "bad shards %q (want 1..%d)", v, maxShards)
			return
		}
		shards = n
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)

	// The effective threshold is parsed regardless of format: numeric
	// uploads symbolize with it now, and the dataset keeps it either way
	// so numeric values in later appends map consistently.
	threshold := *s.opts.DefaultThreshold
	if v := q.Get("threshold"); v != "" {
		var err error
		threshold, err = strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "bad threshold: %v", err)
			return
		}
	}
	// Checked on the effective value, wherever it came from: ParseFloat
	// accepts "NaN" and "±Inf" (and Options can carry them), but every
	// comparison against NaN is false (all-Off symbols) and infinities
	// pin one symbol — silent garbage, not a usable mapping.
	if math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "bad threshold %v: must be finite", threshold)
		return
	}

	var db *timeseries.RunDB
	var err error
	switch format {
	case "numeric":
		db, err = csvio.ReadOnOffRuns(body, r.ContentLength, threshold, shards)
	case "symbolic":
		db, err = csvio.ReadSymbolicRuns(body, r.ContentLength, shards)
	default:
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "unknown format %q (want numeric or symbolic)", format)
		return
	}
	if err == nil {
		err = checkUTF8(db)
	}
	if err != nil {
		status, code := http.StatusBadRequest, codeInvalidArgument
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status, code = http.StatusRequestEntityTooLarge, codePayloadTooLarge
		}
		writeError(w, status, code, "ingest failed: %v", err)
		return
	}

	ds, err := s.addDataset(name, db, shards, threshold)
	if err != nil {
		s.storeFailure(w, "dataset storage", err)
		return
	}
	s.logf("dataset %s ingested: %q, %d series, %d samples, %d shards", ds.id, name, db.NumSeries(), db.Len(), shards)
	writeJSON(w, http.StatusCreated, ds.info())
}

// checkUTF8 rejects an upload whose series names or symbols are not
// valid UTF-8, naming the CSV column (the time column is 0). A result
// document writes each invalid byte as \ufffd, so two such names that
// differ would export as one event name.
func checkUTF8(src ftpm.SymbolSource) error {
	for i := 0; i < src.NumSeries(); i++ {
		name := src.SeriesName(i)
		if !utf8.ValidString(name) {
			return fmt.Errorf("column %d: series name %q is not valid UTF-8", i+1, name)
		}
		for _, sym := range src.SeriesAlphabet(i) {
			if !utf8.ValidString(sym) {
				return fmt.Errorf("column %d (series %q): symbol %q is not valid UTF-8", i+1, name, sym)
			}
		}
	}
	return nil
}

// addDataset seals the upload's symbol runs into the base segment of a new
// dataset, serves the dataset from that segment, and only then registers
// it (logging, when durable, an O(1) record that references the segment
// file). A crash after the seal but before the log append leaves an
// orphan file that the next startup collects; the sealed name is
// deterministic (id + generation), so a client retry overwrites rather
// than accumulates.
func (s *Server) addDataset(name string, src ftpm.SymbolSource, shards int, threshold float64) (*Dataset, error) {
	id := s.reg.reserveID()
	g, err := s.baseGen(id, 0, src)
	if err != nil {
		return nil, err
	}
	return s.reg.addPrepared(newDataset(id, name, time.Now(), g, shards, threshold)), nil
}

// baseGen digests src from an empty state and seals it as the one segment
// of dataset id's generation gen.
func (s *Server) baseGen(id string, gen int64, src ftpm.SymbolSource) (*dsGen, error) {
	digest := digestSource(src)
	fp := digest.fingerprint(src)
	seg, segName, err := s.seal(id, gen, src, fp)
	if err != nil {
		return nil, err
	}
	g := genFromSource(seg, fp, withSegment(nil, segName), seg.Size())
	g.digest = digest
	return g, nil
}

// seal encodes src, the content of dataset id's generation gen, as a
// segment with fingerprint fp in its footer. It is the only code the
// storage mode changes: a durable server writes file segName =
// segmentName(id, gen) and maps it back, a non-durable one keeps the
// validated image in the heap (segName "").
func (s *Server) seal(id string, gen int64, src ftpm.SymbolSource, fp string) (seg *store.Segment, segName string, err error) {
	if s.segDir == "" {
		img, err := store.EncodeSegment(src, fp)
		if err != nil {
			return nil, "", err
		}
		seg, err = store.ParseSegment(img)
		return seg, "", err
	}
	segName = segmentName(id, gen)
	path := filepath.Join(s.segDir, segName)
	if _, err := store.WriteSegmentFS(s.fsys, path, src, fp); err != nil {
		return nil, "", err
	}
	seg, err = store.OpenSegmentFS(s.fsys, path)
	return seg, segName, err
}

// withSegment extends (a copy of) names by seal's file name, if any.
func withSegment(names []string, segName string) []string {
	if segName == "" {
		return names
	}
	return append(append([]string(nil), names...), segName)
}

// segmentName is the sealed-file name of one dataset generation's
// segment. Deterministic on (id, generation) so a crashed-and-retried
// seal replaces its own leftover instead of leaking it.
func segmentName(id string, gen int64) string {
	return fmt.Sprintf("%s-g%d.seg", id, gen)
}

// removeSegments unlinks a removed dataset's segment files. The mappings
// of the current generation are left alone: a running job may still be
// mining the view, and on Unix the pages outlive the unlink — the disk
// space returns when the last mapping goes away (at the latest, process
// exit). Unlink failures are left for startup orphan collection.
func (s *Server) removeSegments(g *dsGen) {
	for _, name := range g.segments {
		if err := s.fsys.Remove(filepath.Join(s.segDir, name)); err != nil {
			s.logf("persist: segment %s not removed: %v", name, err)
		}
	}
}

func (s *Server) routeJobs(w http.ResponseWriter, r *http.Request, rest []string) {
	switch {
	case len(rest) == 0 && r.Method == http.MethodPost:
		s.handleSubmitJob(w, r)
	case len(rest) == 0 && r.Method == http.MethodGet:
		limit, token, err := pageParams(r.URL.Query())
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "%v", err)
			return
		}
		after, err := afterSeqFromToken(token, "job-")
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "%v", err)
			return
		}
		infos, next := s.jobs.page(after, limit)
		page := jobsPage{Jobs: infos}
		if next != "" {
			page.NextPageToken = encodeAfterToken(next)
		}
		writeJSON(w, http.StatusOK, page)
	case len(rest) == 1 && r.Method == http.MethodGet:
		j, ok := s.jobs.get(rest[0])
		if !ok {
			writeError(w, http.StatusNotFound, codeNotFound, "no such job: %s", rest[0])
			return
		}
		writeJSON(w, http.StatusOK, s.jobs.info(j))
	case len(rest) == 1 && r.Method == http.MethodDelete:
		j, prior, ok := s.jobs.cancelJob(rest[0])
		if !ok {
			writeError(w, http.StatusNotFound, codeNotFound, "no such job: %s", rest[0])
			return
		}
		if prior.Terminal() {
			// A 202 here would imply a cancellation was requested; the
			// job is already finished and stays untouched.
			writeError(w, http.StatusConflict, codeConflict, "job %s is already %s; only queued or running jobs can be cancelled", rest[0], prior)
			return
		}
		s.logf("job %s cancellation requested", rest[0])
		writeJSON(w, http.StatusAccepted, s.jobs.info(j))
	case len(rest) == 2 && rest[1] == "events" && r.Method == http.MethodGet:
		s.handleEvents(w, r, rest[0])
	case len(rest) == 2 && rest[1] == "patterns" && r.Method == http.MethodGet:
		s.handlePatterns(w, r, rest[0])
	case len(rest) == 2 && rest[1] == "result" && r.Method == http.MethodGet:
		s.handleResult(w, r, rest[0])
	default:
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	// Submits are gated like uploads: a degraded server cannot make the
	// submission (or its terminal record) durable, so accepting the job
	// would promise state a restart forgets.
	if degraded, reason := s.degradedState(); degraded {
		w.Header().Set("Retry-After", strconv.Itoa(degradedRetryAfter))
		writeError(w, http.StatusServiceUnavailable, codeDegraded, "server is in degraded read-only mode: %s", reason)
		return
	}
	tenant, ok := tenantOf(r.Header.Get(tenantHeader))
	if !ok {
		writeError(w, http.StatusBadRequest, codeInvalidArgument,
			"bad %s header %q (want 1..%d chars of [A-Za-z0-9._-])", tenantHeader, r.Header.Get(tenantHeader), maxTenantName)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req MiningRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "bad job request: %v", err)
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "bad job request: %v", err)
		return
	}
	ds, ok := s.reg.get(req.DatasetID)
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "no such dataset: %s", req.DatasetID)
		return
	}
	j, err := s.jobs.submit(ds, req, tenant)
	if err != nil {
		var quota errQuotaExceeded
		if errors.As(err, &quota) {
			w.Header().Set("Retry-After", strconv.Itoa(quota.retryAfter))
			writeError(w, http.StatusTooManyRequests, codeQuotaExceeded, "%v", err)
			return
		}
		writeError(w, http.StatusServiceUnavailable, codeUnavailable, "%v", err)
		return
	}
	s.logf("job %s submitted on %s by tenant %s (σ=%v δ=%v approx=%v)",
		j.id, req.DatasetID, tenant, req.MinSupport, req.MinConfidence, req.Approx != nil)
	writeJSON(w, http.StatusAccepted, s.jobs.info(j))
}

// patternsPage is the JSON body of GET /jobs/{id}/patterns. It carries
// both cursor styles: the original offset/next_offset pair and the
// unified next_page_token (feed it back as ?page_token=).
type patternsPage struct {
	JobID         string             `json:"job_id"`
	Total         int                `json:"total"`
	Offset        int                `json:"offset"`
	Limit         int                `json:"limit"`
	NextOffset    *int               `json:"next_offset,omitempty"`
	NextPageToken string             `json:"next_page_token,omitempty"`
	Patterns      []ftpm.PatternJSON `json:"patterns"`
}

// handlePatterns pages through a done job's patterns. With
// ?format=ndjson (or Accept: application/x-ndjson) the page streams as
// one JSON document per line instead of a wrapped array. ?page_token=
// (from a previous page's next_page_token) wins over ?offset=.
func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request, id string) {
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "no such job: %s", id)
		return
	}
	doc, state := j.document()
	if state != JobDone {
		writeError(w, http.StatusConflict, codeConflict, "job %s is %s; patterns are available once it is done", id, state)
		return
	}

	q := r.URL.Query()
	offset, err := intParam(q.Get("offset"), 0)
	if err != nil || offset < 0 {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "bad offset %q", q.Get("offset"))
		return
	}
	if tok := q.Get("page_token"); tok != "" {
		offset, err = offsetFromToken(tok)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "%v", err)
			return
		}
	}
	limit, err := intParam(q.Get("limit"), defaultPageLimit)
	if err != nil || limit <= 0 || limit > maxPageLimit {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "bad limit %q (want 1..%d)", q.Get("limit"), maxPageLimit)
		return
	}

	total := len(doc.patterns())
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}

	if q.Get("format") == "ndjson" || strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		doc.writeNDJSON(w, offset, end)
		return
	}

	resp := patternsPage{JobID: id, Total: total, Offset: offset, Limit: limit}
	if end < total {
		next := end
		resp.NextOffset = &next
		resp.NextPageToken = encodeOffsetToken(end)
	}
	doc.writePage(w, resp, end)
}

// handleResult returns the full export document of a done job — the same
// shape as the CLI's -json output — from the bytes encoded when it finished.
func (s *Server) handleResult(w http.ResponseWriter, _ *http.Request, id string) {
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "no such job: %s", id)
		return
	}
	doc, state := j.document()
	if state != JobDone {
		writeError(w, http.StatusConflict, codeConflict, "job %s is %s; the result is available once it is done", id, state)
		return
	}
	doc.writeResult(w)
}

// intParam parses an optional integer query parameter.
func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}
