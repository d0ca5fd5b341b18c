// Package server turns the ftpm library into a long-running mining
// service: many datasets are ingested once and mined concurrently under
// different parameterizations, instead of one CLI run at a time.
//
// The subsystem has four parts:
//
//   - A sharded dataset registry (registry.go): an upload goes CSV →
//     runs → digest → segment. The internal/csvio run readers read the
//     request body once, into a buffer sized from its Content-Length,
//     and scan it in row blocks over the shard count straight into each
//     series' maximal symbol runs — numeric cells through the On/Off
//     threshold, symbolic cells interned by name — with no float matrix
//     and no symbol per sample; the runs are digested into the content
//     fingerprint and sealed as the base segment. Each dataset carries a
//     shard width K, chosen per upload via ?shards= (default GOMAXPROCS,
//     capped at 64). Mining goes through geometry-keyed
//     ftpm.Prepared handles: one handle per window geometry owns that
//     geometry's sharded DSEQ conversion (window i of the split lives in
//     shard i%K), its merged view, and the memoized pairwise NMI tables,
//     so every job over the same split — exact, approximate, event-level
//     — shares the same cached artifacts and a repeat A-HTPGM job
//     recomputes neither the conversion nor the O(n²) NMI analysis.
//
//     A dataset's content is always a chain of sealed segments
//     (source.go, internal/server/store's "FTPMSEG1" format): the upload
//     seals a base segment and every append a delta. The chain is one
//     level deep: a flat list of the base and every delta with their
//     cumulative sample counts, which an append copies and extends by one
//     entry, so its length is O(1) to read and one pass over a series
//     visits each segment once. Server.seal is the
//     only code the storage mode changes: a durable server keeps each
//     segment in a file under DataDir/segments, mapped read-only, and a
//     non-durable server keeps the encoded image in the heap.
//
//     Dataset content lives in immutable generations (append.go):
//     POST /v1/datasets/{id}/append extends a dataset with NDJSON rows or a
//     CSV chunk without re-uploading it. Rows must continue the sampling
//     grid exactly (gaps, duplicates, ragged rows, unknown series all
//     400 with the dataset untouched — appends are all-or-nothing);
//     numeric values symbolize against the upload's threshold and
//     symbolic values intern into the existing per-series alphabets,
//     extending but never renumbering them, so append-then-mine is
//     byte-identical to reupload-then-mine. Each append bumps the
//     dataset's generation: jobs mid-mine keep the generation they
//     captured at run start, the new generation advances each cached
//     Prepared handle incrementally (only the window suffix the new
//     samples touched is re-cut and re-verified at L1), and the NMI
//     tables start fresh — appended samples change every pairwise score.
//     Result reuse keys on the content fingerprint, so
//     stale-generation lookups structurally miss. The fingerprint (v2,
//     source.go's contentDigest) is a SHA-256 per series over its maximal
//     runs, the last run carried because an append may extend it; each
//     generation keeps those hash states, so an append hashes only its
//     own runs, and the same content digests the same however appends
//     split it. A generation restored from the log builds the states from
//     its segments on its first append. v1 fingerprints, which hashed
//     every sample, stay in old records as opaque keys; content uploaded
//     before v2 misses the cache once when uploaded again. NDJSON bodies
//     are scanned byte by byte (ndjson.go), accepting exactly the
//     language encoding/json decoded them by, less bodies holding invalid
//     UTF-8: series names and symbols must be valid UTF-8 on upload
//     (checkUTF8) and append alike. A per-dataset append
//     mutex serializes concurrent appends (each builds on the generation
//     its predecessor installed); an append racing DELETE loses
//     deterministically with 409 and nothing swapped or logged.
//
//   - An async job manager (jobs.go) with multi-tenant QoS (tenant.go):
//     a bounded worker pool drains per-tenant FIFO queues of mining jobs
//     by weighted fair share. Every request may carry an X-Tenant header
//     (the default tenant otherwise); the scheduler picks the queued
//     tenant with the lowest running/weight ratio, per-tenant quotas
//     bound queued (429 + Retry-After beyond it) and running jobs, and
//     the GOMAXPROCS worker budget splits over the running tenants in
//     proportion to their weights — recomputed between mining levels
//     through ftpm.Options.WorkersFunc, so a newly-arrived tenant
//     shrinks an incumbent job's parallelism at its next level boundary
//     instead of waiting for the whole run (results are byte-identical
//     across worker counts, so mid-run renegotiation is safe). A job
//     that leaves workers unset runs on its fair share; workers 1 mines
//     serially. Jobs move through the states queued → running → done |
//     failed | cancelled; per-job progress is sourced from the miner's
//     per-level stats via Options.Progress, and cancellation is real —
//     DELETE propagates context cancellation into the miner, which stops
//     between verification units and returns ctx.Err(). Every transition and
//     per-level progress tick is also published to a broadcast hub
//     (events/hub.go) feeding the event-stream endpoints: per-client
//     bounded buffers never block the miner, and a stalled consumer is
//     told how many events it missed via a "dropped" event instead of
//     silently losing them. The job manager indexes its retained done
//     jobs by result key (dataset fingerprint, canonical options — worker
//     count excluded, results are byte-identical across it), one entry
//     per key pointing at the newest such job: a repeat submission reuses
//     that job's document without mining, for as long as the job is
//     retained (the newest 1 000 jobs). The index holds no document of
//     its own, so it bounds nothing and needs no budget. Job summaries
//     report cache effectiveness as the dseq_cache / nmi_cache /
//     result_cache booleans. A done job's document is encoded once, at
//     completion or replay, into its served form, the indented /result
//     body (result.go): at completion in one reflection-free pass from
//     the document's fields, at replay by indenting the logged bytes, so
//     a restart serves the bytes served before it. Jobs that reuse it and
//     log records share those bytes. /result writes them whole and a JSON
//     page writes its header and a slice of them, since a page lays out
//     its elements as /result does; NDJSON pages and log records compact
//     the bytes they need. Every Content-Length is a slice length. The
//     served form is about 1.7 times the compact encoding.
//
//   - An optional persistence layer (persist.go over internal/server/
//     store): with Options.DataDir set, dataset ingestions/appends/
//     removals and job submissions/terminal transitions (summary and
//     result document included) are appended to a fsync'd write-ahead
//     log with a CRC per
//     record, and compacted into an atomically-replaced snapshot every
//     Options.SnapshotEvery records (default 256) or 128 MiB of WAL,
//     whichever comes first, plus at clean shutdown and at startup when
//     the replayed WAL is already oversized. Compaction runs on a
//     background goroutine — the triggering request doesn't pay for it,
//     though durable writes landing during the compaction window wait
//     behind it. The wal_records/wal_bytes/snapshot_age_seconds and
//     snapshot_failures gauges on /v1/metrics make WAL growth and a
//     persistently-failing compaction operator-visible. On open
//     the snapshot and WAL replay into the registry and job log:
//     datasets return under their original ids with fingerprint,
//     Analysis and Prepared caches re-derived (they are recomputable and
//     lazy), append records replay idempotently on top of them — each
//     applies only when the dataset still has exactly the record's
//     pre-append sample count, so a crash between an append's WAL write
//     and the next snapshot replays it exactly once and generations
//     never regress — terminal jobs return with byte-identical result
//     documents (done jobs are indexed for reuse again), and jobs that were
//     queued or running at crash time re-queue against their tenant —
//     counting against its quota — and re-run from scratch, which is safe
//     because mining is deterministic; only a live job whose dataset did
//     not survive the crash comes back failed with a distinguishable
//     "lost to restart" error. A torn WAL tail is truncated, not fatal;
//     a damaged snapshot is ignored with a loud log line. A log written
//     before datasets lived in segments, and never upgraded since, fails
//     the open with ErrPayloadLog. DataDir ""
//     keeps the service purely in-memory with zero new I/O. One server
//     process owns a data directory at a time (there is no inter-process
//     locking).
//
//   - A versioned JSON/NDJSON HTTP API (server.go) built on net/http
//     only. Every route lives under /v1; any other path answers 404 with
//     code not_found:
//
//     POST   /v1/datasets                upload a CSV dataset (?name=, ?format=numeric|symbolic, ?threshold=, ?shards=)
//     GET    /v1/datasets                list datasets (?limit=, ?page_token=)
//     GET    /v1/datasets/{id}           dataset detail
//     POST   /v1/datasets/{id}/append    append rows to a dataset (?format=ndjson|csv, default ndjson)
//     DELETE /v1/datasets/{id}           drop a dataset
//     POST   /v1/jobs                    submit a mining job (JSON body; optional X-Tenant header)
//     GET    /v1/jobs                    list jobs (?limit=, ?page_token=)
//     GET    /v1/jobs/{id}               job status and progress
//     DELETE /v1/jobs/{id}               cancel a queued or running job
//     GET    /v1/jobs/{id}/patterns      page through mined patterns (?limit=, ?page_token= or ?offset=, ?format=ndjson)
//     GET    /v1/jobs/{id}/events        stream the job's state/progress events (SSE; NDJSON via Accept)
//     GET    /v1/events                  firehose event stream across all jobs
//     GET    /v1/metrics                 queue depth, job states, per-tenant scheduler state, event-hub gauges, cache hit/miss counters, append counters + per-dataset generation gauge, persistence gauges
//     GET    /v1/jobs/{id}/result        the done job's result document
//     GET    /v1/healthz                 liveness probe
//     GET    /v1/readyz                  readiness probe
//
// Errors are returned uniformly as
// {"error":{"code":"...","message":"..."}} with a matching status code;
// the codes (invalid_argument, not_found, method_not_allowed, conflict,
// payload_too_large, quota_exceeded, unavailable) are stable API surface,
// the messages are not. List endpoints share one pagination contract:
// ?limit= bounds the page and a non-empty next_page_token resumes
// strictly after the last delivered item — tokens are opaque, and they
// stay valid while the collection grows, so a walk started before an
// upload neither skips nor repeats anything.
//
// Event streams speak Server-Sent Events by default and NDJSON when the
// request prefers application/x-ndjson. Frames are sequenced by a
// monotone event id; clients resume after a disconnect with the standard
// Last-Event-ID header (or ?last_event_id=) and the hub's ring buffer
// (Options.EventRing, default 1024) replays what they missed. A resume
// gap larger than the ring surfaces as an explicit "dropped" event
// followed by a synthetic state snapshot, never as silent loss. A
// per-job stream ends after the job's terminal event; the firehose runs
// until the client goes away (use Server.CloseStreams via
// http.Server.RegisterOnShutdown so Shutdown is not held open by
// streams). Event ids are process-local and restart from 1 with the
// process.
//
// Pattern pages reuse the stable export document shapes of the root
// package (ftpm.PatternJSON), so service responses and CLI -json output
// stay interchangeable.
//
// # Sharding
//
// Shard layout: a dataset's sequence database is partitioned round-robin
// over sequences — global sequence i lives in shard i%K at local
// position i/K. All shards share one event vocabulary, and ingestion
// (the CSV scan into symbol runs, window cutting) runs concurrently per
// shard.
//
// Shards partition ingestion only: the miner runs once over the merged
// view (the shards interleaved back into global sequence order), so mined
// patterns are byte-identical for every K and the thresholds apply to
// global counts. Mining parallelizes over candidates through the job's
// worker grant, independently of K.
//
// Picking K: the default GOMAXPROCS is right for ingestion; more shards
// than cores only adds goroutines. Dataset responses expose "shards" and
// the per-shard sequence counts of the most recently mined geometry, job
// summaries report the shard split (absent for one-shard datasets),
// granted workers and cache hits, and every job response carries the
// current queue depth; GET /v1/metrics adds
// the service-wide view — queue depth, job-state counts, per-job level
// timings sourced from the miner's Progress callback, the cumulative
// dseq/nmi/result cache counters, the appends_total/append_rows_total
// counters with the per-dataset dataset_generations gauge (generations
// survive restarts without regressing), and — on durable servers — the
// wal_records and snapshot_age_seconds persistence gauges. DELETE on a
// job that already reached a terminal state answers 409 Conflict (a 202
// would imply a cancellation was requested); queue_depth counts only
// jobs genuinely waiting for a worker, excluding entries cancelled while
// queued but not yet popped.
package server
