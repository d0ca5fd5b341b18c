package server

import (
	"fmt"
	"sync"
	"time"

	"ftpm"
)

// Dataset is one ingested, symbolized dataset held by the registry. Its
// content lives in immutable generations: appending data never mutates
// the current generation — it seals the appended samples into a delta
// segment, chains it after the current view and swaps the chain in, so
// jobs that captured the previous generation keep mining a consistent
// view. Mining
// goes through geometry-keyed ftpm.Prepared handles owned by the
// generation: one handle per window geometry owns that geometry's sharded
// DSEQ conversion (window i of the split lives in shard i%K), its merged
// view, and the generation's memoized pairwise NMI tables, so every job
// over the same split — exact, approx, event-level, sharded or not —
// shares the same cached artifacts.
type Dataset struct {
	id        string
	name      string
	createdAt time.Time
	shards    int // partition width K; >= 1, fixed at upload
	// threshold is the On/Off mapping threshold numeric appends symbolize
	// with — the upload's effective threshold, so appended samples map
	// exactly like the original ingestion's.
	threshold float64

	// appendMu serializes appends to this dataset: generation numbers
	// and the expected-next-timestamp check are race-free only when one
	// append builds against the generation the previous one installed.
	appendMu sync.Mutex

	mu  sync.Mutex
	cur *dsGen
	// lastShardSeqs is the per-shard sequence count of the most recently
	// mined geometry — the shard-balance view of DatasetInfo.
	lastShardSeqs []int
}

// dsGen is one immutable content generation of a dataset: a chain of
// sealed segments as of some append, its content fingerprint, the shared
// NMI analysis, and the geometry-keyed Prepared cache. An append builds
// the next generation (advancing each cached Prepared incrementally) and
// the dataset atomically swaps to it; jobs hold the generation they
// started on, so a swap never tears a running mine.
type dsGen struct {
	gen int64
	// src is the generation's content view — what conversion, NMI and the
	// info endpoints consume: the base segment chained with one delta
	// segment per append.
	src ftpm.SymbolSource
	// segments are the file names (under the data directory's segments/
	// subdirectory) backing a durable generation, oldest first; empty when
	// the segments are heap-held. sealedBytes is the total size of the
	// sealed images, on disk or in the heap.
	segments    []string
	sealedBytes int64
	// fingerprint is the content key of the generation, a v2 digest
	// (contentDigest.fingerprint) or, for content restored from a log
	// written before v2, the v1 key recorded with it. Result reuse keys
	// on it (not the dataset id), so stale-generation lookups structurally
	// miss and re-uploading identical content hits.
	fingerprint string
	// digest is the resumable state behind a v2 fingerprint, kept so an
	// append hashes only the runs it adds: ~110 bytes per series. A
	// generation restored from the log has none; its first append builds
	// it from the content.
	digest contentDigest
	// analysis holds the generation's geometry-independent NMI tables;
	// every Prepared handle of the generation shares it. NMI depends on
	// every sample, so appends invalidate rather than patch it: a new
	// generation starts with fresh (lazily built) tables.
	analysis *ftpm.Analysis

	prep map[string]*ftpm.Prepared
	keys []string // prep cache keys, oldest first
}

// maxPreparedCache bounds how many window geometries one generation
// caches: each Prepared can hold a full DSEQ conversion, and geometries
// are client-supplied, so the cache must not grow with request variety.
// The NMI tables live on the generation's shared Analysis, outside this
// bound.
const maxPreparedCache = 8

// DatasetInfo is the JSON view of a dataset. ShardSeqs reports the
// per-shard sequence counts of the most recently mined window geometry
// (empty until a first job converts one) so operators and the bench job
// can verify shard balance. Generation counts the appends applied since
// upload (0 for a freshly uploaded dataset) and never regresses, restarts
// included. Storage reports where the dataset's sealed segments live:
// "segment" (mmap'd files) or "memory" (images in the heap of a
// non-durable server). ResidentBytes is the dataset's heap footprint: the
// images (file-backed datasets hold none, because the kernel pages column
// bytes in on demand) plus the mining memos of its prepared handles
// (Dataset.memoBytes), 0 until a first job mines. SegmentBytes is the
// images' on-disk footprint.
type DatasetInfo struct {
	ID            string    `json:"id"`
	Name          string    `json:"name"`
	Series        []string  `json:"series"`
	Samples       int       `json:"samples"`
	Start         int64     `json:"start"`
	Step          int64     `json:"step"`
	Shards        int       `json:"shards"`
	Generation    int64     `json:"generation"`
	Storage       string    `json:"storage"`
	ResidentBytes int64     `json:"resident_bytes"`
	SegmentBytes  int64     `json:"segment_bytes,omitempty"`
	Segments      int       `json:"segments,omitempty"`
	ShardSeqs     []int     `json:"shard_sequences,omitempty"`
	CreatedAt     time.Time `json:"created_at"`
}

// storage reports where the generation's segments live, splitting their
// size into heap-resident and on-disk bytes (mapped files are not
// resident).
func (g *dsGen) storage() (mode string, resident, onDisk int64) {
	if len(g.segments) > 0 {
		return "segment", 0, g.sealedBytes
	}
	return "memory", g.sealedBytes, 0
}

// view returns the dataset's current generation. Generations are
// immutable, so the caller can read it lock-free afterwards; jobs capture
// one view at run start and mine it end to end.
func (d *Dataset) view() *dsGen {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cur
}

func (d *Dataset) info() DatasetInfo {
	g := d.view()
	names := make([]string, g.src.NumSeries())
	for i := range names {
		names[i] = g.src.SeriesName(i)
	}
	d.mu.Lock()
	shardSeqs := append([]int(nil), d.lastShardSeqs...)
	d.mu.Unlock()
	mode, resident, onDisk := g.storage()
	resident += d.memoBytes(g)
	return DatasetInfo{
		ID:            d.id,
		Name:          d.name,
		Series:        names,
		Samples:       g.src.Len(),
		Start:         g.src.Start(),
		Step:          g.src.Step(),
		Shards:        d.shards,
		Generation:    g.gen,
		Storage:       mode,
		ResidentBytes: resident,
		SegmentBytes:  onDisk,
		Segments:      len(g.segments),
		ShardSeqs:     shardSeqs,
		CreatedAt:     d.createdAt,
	}
}

// prepared returns the generation's mining handle for the given window
// geometry, building (and caching) one when none exists. Prepare itself
// is cheap — the expensive artifacts (DSEQ conversion, NMI tables) build
// lazily inside the handle on first use, with concurrent jobs blocking on
// one build instead of duplicating it — so holding the lock across it is
// fine. Evicting a handle never disturbs jobs already mining on it; they
// hold their own reference. The generation is a parameter (not read from
// d.cur) so a job keeps resolving handles against the view it captured
// even after an append swapped the dataset forward.
func (d *Dataset) prepared(g *dsGen, opt ftpm.SplitOptions) (*ftpm.Prepared, error) {
	key := fmt.Sprintf("%d|%d|%d", opt.WindowLength, opt.NumWindows, opt.Overlap)
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := g.prep[key]; ok {
		return p, nil
	}
	p, err := ftpm.PrepareWith(g.analysis, opt, d.shards)
	if err != nil {
		return nil, err
	}
	if len(g.keys) >= maxPreparedCache {
		delete(g.prep, g.keys[0])
		g.keys = g.keys[1:]
	}
	g.prep[key] = p
	g.keys = append(g.keys, key)
	return p, nil
}

// advanceTo numbers next after the current generation and carries the
// Prepared cache forward handle by handle — each advanced handle converts
// incrementally against its predecessor's memoized DSEQ artifacts on first
// use. A handle that cannot advance (geometry no longer valid for the
// grown span, or the append broke the extension contract) is dropped from
// the cache rather than carried stale. Callers hold d.appendMu.
func (d *Dataset) advanceTo(next *dsGen) *dsGen {
	cur := d.view()
	next.gen = cur.gen + 1
	d.mu.Lock()
	keys := append([]string(nil), cur.keys...)
	preps := make([]*ftpm.Prepared, len(keys))
	for i, k := range keys {
		preps[i] = cur.prep[k]
	}
	d.mu.Unlock()
	for i, k := range keys {
		np, err := preps[i].Advance(next.analysis)
		if err != nil {
			continue
		}
		next.prep[k] = np
		next.keys = append(next.keys, k)
	}
	return next
}

// noteSeqCounts records the per-shard sequence counts of the most
// recently mined geometry for DatasetInfo's shard-balance view.
func (d *Dataset) noteSeqCounts(counts []int) {
	if len(counts) == 0 {
		return
	}
	d.mu.Lock()
	d.lastShardSeqs = counts
	d.mu.Unlock()
}

// registry holds the ingested datasets, keyed by their assigned ids.
type registry struct {
	persist *persister // nil when DataDir is unset
	// logMu serializes each mutate+log pair: without it, a DELETE racing
	// an upload (ids are predictable) could append its removal record at
	// a lower LSN than the addition's, and replay would then resurrect the
	// deleted dataset. Appends take it for the same reason (an append record
	// after its dataset's removal record would be a silent no-op at
	// replay but a lie to the acknowledged client). Held before (never
	// inside) mu and the persister's lock.
	logMu sync.Mutex

	mu   sync.RWMutex
	byID map[string]*Dataset
	ids  []string // insertion order
	seq  int
}

func newRegistry(persist *persister) *registry {
	return &registry{persist: persist, byID: make(map[string]*Dataset)}
}

// genFromSource assembles a generation (numbered by advanceTo or
// registry.restore) around its sealed content view. The fingerprint is
// taken, not recomputed: it was hashed when the content was sealed (and
// is recorded in the segment footer and the WAL), so restart never pays
// an O(samples) rehash.
func genFromSource(src ftpm.SymbolSource, fingerprint string, segments []string, sealedBytes int64) *dsGen {
	return &dsGen{
		src:         src,
		segments:    segments,
		sealedBytes: sealedBytes,
		fingerprint: fingerprint,
		analysis:    ftpm.NewAnalysisSource(src),
		prep:        make(map[string]*ftpm.Prepared),
	}
}

// newDataset assembles a Dataset around a prebuilt generation.
func newDataset(id, name string, createdAt time.Time, g *dsGen, shards int, threshold float64) *Dataset {
	if shards < 1 {
		shards = 1
	}
	return &Dataset{
		id:        id,
		name:      name,
		createdAt: createdAt,
		shards:    shards,
		threshold: threshold,
		cur:       g,
	}
}

// reserveID issues the next dataset id without registering anything.
// The upload path needs the id before registration: a durable segment
// file is named after it and must be sealed (and the seal survive a
// crash as a collectible orphan) before the dataset becomes visible.
// Ids are never reissued, so an id whose upload fails is simply skipped.
func (r *registry) reserveID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return fmt.Sprintf("ds-%d", r.seq)
}

// addPrepared registers a fully-assembled dataset under its (reserved)
// id and logs the addition.
func (r *registry) addPrepared(d *Dataset) *Dataset {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	r.mu.Lock()
	r.byID[d.id] = d
	r.ids = append(r.ids, d.id)
	r.mu.Unlock()
	// Logged outside r.mu (the persister's snapshot gather takes the
	// registry lock) but inside logMu, so this dataset's removal can
	// never reach the WAL first.
	r.persist.datasetAdded(d)
	return d
}

// appendDataset commits a prepared append: it re-checks membership, swaps
// the dataset to its next generation, and logs the append record — all
// under logMu, so the swap and its WAL record are atomic against a
// concurrent DELETE. A dataset removed between the handler's lookup and
// this commit reports false and nothing is swapped or logged: the append
// deterministically loses to the removal instead of racing it.
func (r *registry) appendDataset(d *Dataset, next *dsGen, rec appendRecord) bool {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	r.mu.RLock()
	_, ok := r.byID[d.id]
	r.mu.RUnlock()
	if !ok {
		return false
	}
	d.mu.Lock()
	d.cur = next
	d.mu.Unlock()
	r.persist.datasetAppended(rec)
	return true
}

// restore re-inserts a recovered dataset under its original id (and
// replayed generation) without logging a new event; the caller opens the
// generation's segments. defaultThreshold covers records from before
// thresholds were persisted.
func (r *registry) restore(rec datasetRecord, g *dsGen, defaultThreshold float64) *Dataset {
	threshold := defaultThreshold
	if rec.Threshold != nil {
		threshold = *rec.Threshold
	}
	g.gen = rec.Generation
	d := newDataset(rec.ID, rec.Name, rec.CreatedAt, g, rec.Shards, threshold)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byID[d.id] = d
	r.ids = append(r.ids, d.id)
	return d
}

// advanceSeq moves the id counter past every id the log ever issued
// (including removed ones), so future uploads never re-issue an id —
// applied unconditionally at restore, since the highest-numbered
// dataset may not have survived replay at all.
func (r *registry) advanceSeq(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.seq {
		r.seq = n
	}
}

// seqNo returns the highest dataset sequence number ever issued.
func (r *registry) seqNo() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.seq
}

// all snapshots the registered datasets in insertion order.
func (r *registry) all() []*Dataset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	datasets := make([]*Dataset, len(r.ids))
	for i, id := range r.ids {
		datasets[i] = r.byID[id]
	}
	return datasets
}

// records snapshots every registered dataset for a compacting snapshot,
// in insertion order.
func (r *registry) records() []datasetRecord {
	datasets := r.all()
	out := make([]datasetRecord, len(datasets))
	for i, d := range datasets {
		out[i] = datasetRecordOf(d)
	}
	return out
}

func (r *registry) get(id string) (*Dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.byID[id]
	return d, ok
}

func (r *registry) remove(id string) bool {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	r.mu.Lock()
	if _, ok := r.byID[id]; !ok {
		r.mu.Unlock()
		return false
	}
	delete(r.byID, id)
	for i, v := range r.ids {
		if v == id {
			r.ids = append(r.ids[:i], r.ids[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
	r.persist.datasetRemoved(id)
	return true
}

// liveSegments returns the set of segment file names referenced by any
// dataset's current generation — the files startup orphan collection
// must keep.
func (r *registry) liveSegments() map[string]bool {
	live := make(map[string]bool)
	for _, d := range r.all() {
		for _, name := range d.view().segments {
			live[name] = true
		}
	}
	return live
}

// datasetTotals are the dataset gauges of /metrics, taken in one walk
// over every dataset's current generation: heap-resident bytes (segment
// images plus memos), the memos alone, on-disk segment bytes, the live
// segment file count, and each dataset's generation number (nil with no
// datasets).
type datasetTotals struct {
	resident, memo, segBytes int64
	segments                 int
	generations              map[string]int64
}

func (r *registry) totals() datasetTotals {
	var t datasetTotals
	for _, d := range r.all() {
		g := d.view()
		_, resident, disk := g.storage()
		memo := d.memoBytes(g)
		t.resident += resident + memo
		t.memo += memo
		t.segBytes += disk
		t.segments += len(g.segments)
		if t.generations == nil {
			t.generations = make(map[string]int64)
		}
		t.generations[d.id] = g.gen
	}
	return t
}

// memoBytes sums the memo footprint (Prepared.MemoBytes) of the Prepared
// handles cached on g, the dataset's current generation. Handles of
// retired generations that running jobs still hold are not counted; they
// are released when those jobs finish.
func (d *Dataset) memoBytes(g *dsGen) int64 {
	d.mu.Lock()
	preps := make([]*ftpm.Prepared, 0, len(g.keys))
	for _, k := range g.keys {
		preps = append(preps, g.prep[k])
	}
	d.mu.Unlock()
	var total int64
	for _, p := range preps {
		total += p.MemoBytes()
	}
	return total
}

// page returns up to limit dataset infos strictly after the afterSeq id
// cursor, in insertion order (id order — ids are monotone, removals only
// delete entries, so a cursor stays stable across appends and removals).
// nextAfter is the id cursor of the following page ("" on the last).
func (r *registry) page(afterSeq, limit int) (infos []DatasetInfo, nextAfter string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, id := range r.ids {
		if parseSeq(id, "ds-") <= afterSeq {
			continue
		}
		if len(infos) == limit {
			return infos, infos[len(infos)-1].ID
		}
		infos = append(infos, r.byID[id].info())
	}
	return infos, ""
}
