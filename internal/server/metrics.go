package server

import (
	"sync"
	"sync/atomic"

	"ftpm"
)

// Service-level observability: cumulative cache hit/miss counters, the
// bounded completed-job result cache, and the JSON document of the
// GET /metrics endpoint.

// cacheCounters are the service-lifetime cache effectiveness counters.
// dseq/nmi count per-job artifact reuse inside the Prepared handles (an
// exact job never touches NMI, so it moves neither NMI counter); result
// counts whole-job memoization. Counters only move for jobs that reach
// the done state — result hits + misses equals the number of jobs ever
// completed (cumulative; the job_states gauge is not, since old terminal
// jobs are evicted past maxRetainedJobs).
type cacheCounters struct {
	dseqHits, dseqMisses     atomic.Int64
	nmiHits, nmiMisses       atomic.Int64
	resultHits, resultMisses atomic.Int64
}

// note records one completed mining run's artifact reuse.
func (c *cacheCounters) note(cache ftpm.CacheInfo, approx bool) {
	if cache.DSEQ {
		c.dseqHits.Add(1)
	} else {
		c.dseqMisses.Add(1)
	}
	if approx {
		if cache.NMI {
			c.nmiHits.Add(1)
		} else {
			c.nmiMisses.Add(1)
		}
	}
}

// CounterJSON is one hit/miss counter pair.
type CounterJSON struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// CacheMetricsJSON groups the cumulative cache counters.
type CacheMetricsJSON struct {
	DSEQ   CounterJSON `json:"dseq"`
	NMI    CounterJSON `json:"nmi"`
	Result CounterJSON `json:"result"`
}

func (c *cacheCounters) snapshot() CacheMetricsJSON {
	return CacheMetricsJSON{
		DSEQ:   CounterJSON{Hits: c.dseqHits.Load(), Misses: c.dseqMisses.Load()},
		NMI:    CounterJSON{Hits: c.nmiHits.Load(), Misses: c.nmiMisses.Load()},
		Result: CounterJSON{Hits: c.resultHits.Load(), Misses: c.resultMisses.Load()},
	}
}

// LevelTimingJSON is one completed pattern-graph level of a job, sourced
// from the miner's Options.Progress callback. Workers is the effective
// worker grant the level ran with — under fair-share scheduling it can
// change between levels as other tenants' jobs arrive or finish.
type LevelTimingJSON struct {
	Level          int   `json:"level"`
	DurationMillis int64 `json:"duration_ms"`
	Candidates     int   `json:"candidates"`
	Patterns       int   `json:"patterns"`
	Workers        int   `json:"workers,omitempty"`
}

// TenantMetricsJSON is one tenant's slice of the scheduler on /metrics:
// the queued/running gauges, the fair-share weight, and the lifetime
// admitted/finished/shed counters (shed counts submits rejected by the
// tenant's queued quota with 429).
type TenantMetricsJSON struct {
	Weight   int   `json:"weight"`
	Queued   int   `json:"queued"`
	Running  int   `json:"running"`
	Admitted int64 `json:"admitted"`
	Finished int64 `json:"finished"`
	Shed     int64 `json:"shed"`
}

// EventsMetricsJSON gauges the job-event hub: events published, current
// and lifetime subscriber counts, events dropped on slow consumers' full
// buffers, and firehose connections rejected by the subscriber quota
// (Options.MaxStreamSubscribers).
type EventsMetricsJSON struct {
	Published       uint64 `json:"published"`
	Subscribers     int    `json:"subscribers"`
	EverSubscribers uint64 `json:"ever_subscribers"`
	Dropped         uint64 `json:"dropped"`
	RejectedStreams int64  `json:"rejected_streams,omitempty"`
	FirehoseStreams int64  `json:"firehose_streams"`
}

// JobMetricsJSON is the per-job slice of the metrics document: the level
// timings of one (running or finished) job. Result-cache hits mined
// nothing and therefore carry no levels.
type JobMetricsJSON struct {
	ID     string            `json:"id"`
	State  JobState          `json:"state"`
	Levels []LevelTimingJSON `json:"levels,omitempty"`
}

// PersistenceMetricsJSON gauges the persistence layer of a durable
// server: how many WAL records (and bytes) accumulated since the last
// compacting snapshot — bounded replay work on restart — how old that
// snapshot is, and whether compaction is failing (SnapshotFailures
// climbing with a non-empty LastError means the WAL is growing without
// bound and needs operator attention).
type PersistenceMetricsJSON struct {
	WALRecords         int     `json:"wal_records"`
	WALBytes           int64   `json:"wal_bytes"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	SnapshotFailures   int64   `json:"snapshot_failures,omitempty"`
	LastError          string  `json:"last_error,omitempty"`
}

// StorageMetricsJSON gauges where datasets' sealed segments live. A
// durable server keeps DatasetResidentBytes at zero — content is served
// from mmap'd segment files whose pages the kernel reclaims under
// pressure — while a non-durable server reports the heap footprint of
// its encoded segment images and no segment files. The split is the
// operator's direct view of the out-of-core story: resident is what the
// heap must hold, segment bytes are sealed files that survive restarts.
type StorageMetricsJSON struct {
	DatasetResidentBytes int64 `json:"dataset_resident_bytes"`
	DatasetSegmentBytes  int64 `json:"dataset_segment_bytes"`
	SegmentsTotal        int   `json:"segments_total"`
}

// AppendMetricsJSON reports the append path: the cumulative append count
// and row count, and the current generation of every dataset (0 = never
// appended; the gauge lets operators confirm an append actually advanced
// its dataset and that generations survive restarts without regressing).
type AppendMetricsJSON struct {
	AppendsTotal       int64            `json:"appends_total"`
	AppendRowsTotal    int64            `json:"append_rows_total"`
	DatasetGenerations map[string]int64 `json:"dataset_generations,omitempty"`
}

// HealthMetricsJSON gauges the server's fault state: whether it is in
// degraded read-only mode (and why), every store fault observed, and
// how many transient WAL-append retries were attempted.
type HealthMetricsJSON struct {
	Degraded          bool   `json:"degraded"`
	Reason            string `json:"reason,omitempty"`
	StoreFaultsTotal  int64  `json:"store_faults_total"`
	StoreRetriesTotal int64  `json:"store_retries_total"`
}

// MetricsJSON is the GET /metrics document. QueueDepth counts jobs
// genuinely waiting for a worker — entries cancelled while queued but
// not yet popped are excluded.
type MetricsJSON struct {
	QueueDepth int `json:"queue_depth"`
	// Health reports degraded mode and the store fault/retry counters.
	Health    HealthMetricsJSON `json:"health"`
	JobStates map[string]int    `json:"job_states"`
	Cache     CacheMetricsJSON  `json:"cache"`
	// Tenants reports the per-tenant scheduler state; absent until the
	// first job is submitted.
	Tenants map[string]TenantMetricsJSON `json:"tenants,omitempty"`
	// Events gauges the job-event broadcast hub.
	Events EventsMetricsJSON `json:"events"`
	// Appends gauges the incremental-append path.
	Appends AppendMetricsJSON `json:"appends"`
	// Storage gauges dataset payload placement: heap-resident bytes vs
	// sealed on-disk segment bytes.
	Storage StorageMetricsJSON `json:"storage"`
	// ResultCacheEntries and ResultCacheBytes gauge the completed-job
	// result cache: live entry count and the cumulative size of the
	// retained documents' encoded bytes — compact JSON, the form the cache
	// holds them in (the byte-budget eviction currency).
	ResultCacheEntries int   `json:"result_cache_entries"`
	ResultCacheBytes   int64 `json:"result_cache_bytes"`
	// Persistence gauges the WAL and snapshot of a durable server; absent
	// when DataDir is unset.
	Persistence *PersistenceMetricsJSON `json:"persistence,omitempty"`
	// Jobs lists the per-level timings of the most recent jobs (newest
	// last), bounded by metricsJobWindow.
	Jobs []JobMetricsJSON `json:"jobs"`
}

// metricsJobWindow bounds how many recent jobs the metrics document
// details; the full job list stays on GET /jobs.
const metricsJobWindow = 32

// metrics assembles the service metrics document.
func (m *jobManager) metrics() MetricsJSON {
	m.mu.Lock()
	ids := append([]string(nil), m.ids...)
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		jobs[i] = m.byID[id]
	}
	m.mu.Unlock()

	doc := MetricsJSON{
		QueueDepth: m.queueDepth(),
		JobStates:  make(map[string]int),
		Cache:      m.counters.snapshot(),
		Tenants:    m.tenantMetrics(),
	}
	doc.Events.Published, doc.Events.Subscribers, doc.Events.EverSubscribers, doc.Events.Dropped = m.hub.Stats()
	doc.ResultCacheEntries, doc.ResultCacheBytes = m.results.stats()
	windowStart := len(jobs) - metricsJobWindow
	for i, j := range jobs {
		j.mu.Lock()
		doc.JobStates[string(j.state)]++
		if i >= windowStart {
			doc.Jobs = append(doc.Jobs, JobMetricsJSON{
				ID: j.id, State: j.state,
				Levels: append([]LevelTimingJSON(nil), j.levels...),
			})
		}
		j.mu.Unlock()
	}
	return doc
}

// metricsDoc assembles the full service metrics document, persistence
// gauges included.
func (s *Server) metricsDoc() MetricsJSON {
	doc := s.jobs.metrics()
	doc.Persistence = s.persist.metrics()
	degraded, reason := s.degradedState()
	doc.Health = HealthMetricsJSON{
		Degraded:         degraded,
		Reason:           reason,
		StoreFaultsTotal: s.storeFaults.Load(),
	}
	if s.persist != nil {
		doc.Health.StoreRetriesTotal = s.persist.retries.Load()
	}
	doc.Appends = AppendMetricsJSON{
		AppendsTotal:       s.appends.Load(),
		AppendRowsTotal:    s.appendRows.Load(),
		DatasetGenerations: s.reg.generations(),
	}
	resident, segBytes, segments := s.reg.storageTotals()
	doc.Storage = StorageMetricsJSON{
		DatasetResidentBytes: resident,
		DatasetSegmentBytes:  segBytes,
		SegmentsTotal:        segments,
	}
	doc.Events.RejectedStreams = s.streamRejected.Load()
	doc.Events.FirehoseStreams = s.streamSubs.Load()
	return doc
}

// resultEntry is one memoized completed job: its encoded export
// document, the summary of the run that produced it, and the size of the
// encoded bytes it holds — the currency of the cache's byte budget.
type resultEntry struct {
	doc     *resultDoc
	summary JobSummary
	size    int64
}

// resultCache memoizes completed jobs by (dataset fingerprint, canonical
// options), bounded by an LRU that is both entry- and size-aware: an
// entry count cap keeps lookup structures small, and a byte budget over
// the stored documents' encoded bytes keeps a handful of huge pattern
// sets from pinning unbounded memory (low thresholds can make a single
// document orders of magnitude larger than the median). Keys are
// content-addressed, so dataset deletion needs no invalidation and
// re-uploads of identical data still hit.
type resultCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64
	bytes    int64
	entries  map[string]*resultEntry
	order    []string // LRU order, least recently used first
}

// maxResultCache bounds the number of memoized job results and
// maxResultCacheBytes the cumulative size of their encoded bytes. 64 hot
// parameterizations within 64 MiB is plenty for repeat-query traffic
// without letting memory grow with either request variety or result
// volume. A single document larger than the whole byte budget is not
// cached at all — evicting every other entry to hold one outlier would
// gut the cache for no repeat-traffic benefit.
const (
	maxResultCache      = 64
	maxResultCacheBytes = 64 << 20
)

func newResultCache(capacity int, maxBytes int64) *resultCache {
	return &resultCache{cap: capacity, maxBytes: maxBytes, entries: make(map[string]*resultEntry)}
}

// touch moves key to the most-recently-used end. Caller holds c.mu.
func (c *resultCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			return
		}
	}
	c.order = append(c.order, key)
}

func (c *resultCache) get(key string) (*resultEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.touch(key)
	}
	return e, ok
}

func (c *resultCache) put(key string, e *resultEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.size > c.maxBytes {
		return // oversized: caching it would evict everything else
	}
	if old, ok := c.entries[key]; ok {
		c.bytes -= old.size
	}
	c.entries[key] = e
	c.bytes += e.size
	c.touch(key)
	// Evict least-recently-used entries until both budgets hold; the entry
	// just inserted is newest and fits the byte budget, so the loop always
	// terminates with it retained.
	for (len(c.order) > c.cap || c.bytes > c.maxBytes) && len(c.order) > 1 {
		oldest := c.order[0]
		c.order = c.order[1:]
		c.bytes -= c.entries[oldest].size
		delete(c.entries, oldest)
	}
}

// stats returns the current entry count and byte footprint.
func (c *resultCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes
}
