package core

import (
	"cmp"
	"slices"
	"strings"

	"ftpm/internal/bitmap"
	"ftpm/internal/events"
	"ftpm/internal/hpg"
	"ftpm/internal/pattern"
	"ftpm/internal/temporal"
)

// This file holds the per-worker reusable state of the verification hot
// path. A scratch is owned by one worker goroutine for the duration of a
// runParallel drain (handed out by the miner's sync.Pool) and reset
// between candidate nodes, so the per-occurrence work — pending-table
// lookups, tuple dedup, occurrence appends — allocates nothing.

// pendingPattern accumulates one candidate pattern during node
// verification. occs is nil when the level cannot be extended further
// (k == MaxK): then only the bitmap and one sample occurrence are kept,
// which bounds the memory of the deepest (largest) level.
type pendingPattern struct {
	pat       pattern.Pattern
	bm        *bitmap.Bitmap
	occs      *hpg.OccStore
	nOcc      int
	sampleSeq int
	sampleOcc hpg.Occurrence
}

// record registers one occurrence on a pending pattern. occ is a scratch
// view — it is copied where retained. When occurrences are stored, the
// sample is NOT copied here: the store's first occurrence of its first
// run is the sample by construction (minimal sequence, first recorded —
// merges keep the earlier composite's occurrences first), so flush
// derives it without a per-composite copy. Only the deepest level
// (occs == nil) snapshots the sample eagerly.
func (pp *pendingPattern) record(seqIdx int, occ []int32) {
	pp.bm.Set(seqIdx)
	if pp.sampleSeq == -1 || seqIdx < pp.sampleSeq {
		pp.sampleSeq = seqIdx
		if pp.occs == nil {
			pp.sampleOcc = append(pp.sampleOcc[:0], occ...)
		}
	}
	if pp.occs == nil {
		return
	}
	pp.occs.Append(int32(seqIdx), occ)
	pp.nOcc++
}

// reset returns the slot to its pristine state. The bitmap and store are
// NOT recycled here — ownership of those is decided at flush time
// (survivors escape into the graph, the rest return to the scratch
// freelists).
func (pp *pendingPattern) reset() {
	*pp = pendingPattern{sampleSeq: -1}
}

// numPairSlots is the size of the L2 pending table: a pair node (a, b)
// can realize at most (first event ∈ {a, b}) × 3 relations distinct
// 2-event patterns.
const numPairSlots = 6

// pairSlot maps a classified pair to its table slot. Relations are 1-based
// (None is excluded before recording).
func pairSlot(rel temporal.Relation, swapped bool) int {
	i := (int(rel) - 1) * 2
	if swapped {
		i++
	}
	return i
}

// slotPattern inverts pairSlot: the 2-event pattern slot s of the pair
// node (a, b) realizes.
func slotPattern(a, b events.EventID, s int) pattern.Pattern {
	if s%2 == 1 {
		a, b = b, a
	}
	return pattern.Pair(a, temporal.Relation(s/2+1), b)
}

// pairSlotsInKeyOrder lists the slots of the pair node (a, b) in the
// pattern.Compare order of the patterns they realize: first those led by
// the event whose bytes sort first, then the others, each by relation.
func pairSlotsInKeyOrder(a, b events.EventID) [numPairSlots]int {
	f := 0
	if pattern.CompareEvents(b, a) < 0 {
		f = 1
	}
	return [numPairSlots]int{f, f + 2, f + 4, 1 - f, 3 - f, 5 - f}
}

// pairAcc is the integer-indexed L2 pending table: no composite keys at
// all, just direct slot addressing. Each worker's scratch owns one.
type pairAcc struct {
	slots [numPairSlots]pendingPattern
	used  [numPairSlots]bool
	samp  [numPairSlots][2]int32 // the slots' sample storage
}

// release recycles the bitmaps and occurrence stores of the used slots.
func (pa *pairAcc) release(scr *scratch) {
	for i := range pa.slots {
		if pa.used[i] {
			scr.putBitmap(pa.slots[i].bm)
			scr.putStore(pa.slots[i].occs)
		}
	}
}

func (pa *pairAcc) reset() {
	for i := range pa.slots {
		if pa.used[i] {
			pa.slots[i].reset()
			pa.used[i] = false
		}
	}
}

// extKey is the typed composite key of one Lk extension pending entry:
// parent pattern (by its index in the parent node's pattern list, which is
// in key order — same order as the former string keys, since all parent
// keys in a node have equal length), chronological insert position,
// inserted event, and the new relations packed 2 bits per role (values
// 1..3; the pos slot is skipped). relsOv carries the overflow encoding for
// k > 33, which no realistic mining run reaches — the struct stays
// comparable and exact either way, so distinct composites never collide.
type extKey struct {
	parent int32
	pos    int32
	event  events.EventID
	rels   uint64
	relsOv string
}

// maxPackedRoles is the number of relation slots rels can pack (2 bits
// each): child patterns up to k = 33 need no overflow string.
const maxPackedRoles = 32

// compare orders extension composites. Only the relative order of
// composites canonicalizing to the same child pattern is semantically
// relevant (it fixes the occurrence merge order in flush, hence the
// occurrence order within a sequence and which sample wins); such
// composites share (event, rels) by construction, so ordering by
// (parent, pos) first reproduces the former sorted-string-key order
// exactly.
func (k extKey) compare(o extKey) int {
	if k.parent != o.parent {
		return cmp.Compare(k.parent, o.parent)
	}
	if k.pos != o.pos {
		return cmp.Compare(k.pos, o.pos)
	}
	if k.event != o.event {
		return cmp.Compare(k.event, o.event)
	}
	if k.rels != o.rels {
		return cmp.Compare(k.rels, o.rels)
	}
	return strings.Compare(k.relsOv, o.relsOv)
}

func (k extKey) less(o extKey) bool { return k.compare(o) < 0 }

// extPend is the Lk pending table: a typed-key index into a dense,
// reusable slot arena. Lookups hash a fixed-size struct — no byte
// appending, no string conversion — unless the key is the one the last
// lookup returned, as it is for consecutive occurrences that extend the
// same way.
type extPend struct {
	idx  map[extKey]int32
	keys []extKey // insertion order, re-sorted at flush
	pats []pendingPattern

	last     extKey
	lastSlot int32 // 1 + the slot of last; 0 before the first lookup
}

func (ep *extPend) reset() {
	if ep.idx == nil {
		ep.idx = make(map[extKey]int32)
	} else {
		clear(ep.idx)
	}
	ep.keys = ep.keys[:0]
	ep.lastSlot = 0
	for i := range ep.pats {
		ep.pats[i].reset()
	}
	ep.pats = ep.pats[:0]
}

// get returns the slot for key, creating it if absent (created reports
// which). Slot pointers are only valid until the next get — the arena may
// grow.
func (ep *extPend) get(key extKey) (pp *pendingPattern, created bool) {
	if ep.lastSlot > 0 && key == ep.last {
		return &ep.pats[ep.lastSlot-1], false
	}
	i, ok := ep.idx[key]
	if !ok {
		i = int32(len(ep.pats))
		if cap(ep.pats) > len(ep.pats) {
			ep.pats = ep.pats[:i+1]
		} else {
			ep.pats = append(ep.pats, pendingPattern{})
		}
		ep.pats[i].reset()
		ep.idx[key] = i
		ep.keys = append(ep.keys, key)
	}
	ep.last, ep.lastSlot = key, i+1
	return &ep.pats[i], !ok
}

// ordered returns the pending entries sorted by composite key, reusing
// dst. This order decides how flush merges composites of one pattern
// (see TestFlushDeterminism).
func (ep *extPend) ordered(dst []*pendingPattern) []*pendingPattern {
	slices.SortFunc(ep.keys, extKey.compare)
	dst = dst[:0]
	for _, k := range ep.keys {
		dst = append(dst, &ep.pats[ep.idx[k]])
	}
	return dst
}

// tupleSet is an exact, allocation-free hash set of fixed-width int32
// tuples, used to dedup extension occurrences when the parent combination
// contains the inserted event (the same child tuple is then reachable from
// multiple parent occurrences). Buckets are generation-stamped so reset is
// O(1) per sequence instead of clearing the table.
type tupleSet struct {
	k     int
	arena []int32  // accepted tuples of the current generation
	slot  []int32  // bucket -> tuple ordinal of the current generation
	stamp []uint32 // bucket -> generation that wrote it
	gen   uint32
	n     int
}

// reset starts a new generation for width-k tuples.
func (s *tupleSet) reset(k int) {
	s.k = k
	s.arena = s.arena[:0]
	s.n = 0
	s.gen++
	if len(s.slot) == 0 {
		s.slot = make([]int32, 64)
		s.stamp = make([]uint32, 64)
	}
	if s.gen == 0 { // generation counter wrapped: invalidate all stamps
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
}

func (s *tupleSet) hash(t []int32) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, v := range t {
		h = (h ^ uint64(uint32(v))) * 1099511628211
	}
	return h
}

// insert adds t to the set, reporting whether it was absent.
func (s *tupleSet) insert(t []int32) bool {
	if 4*s.n >= 3*len(s.slot) {
		s.grow()
	}
	mask := uint64(len(s.slot) - 1)
	i := s.hash(t) & mask
	for s.stamp[i] == s.gen {
		stored := s.arena[int(s.slot[i])*s.k : (int(s.slot[i])+1)*s.k]
		eq := true
		for j := range t {
			if stored[j] != t[j] {
				eq = false
				break
			}
		}
		if eq {
			return false
		}
		i = (i + 1) & mask
	}
	s.stamp[i] = s.gen
	s.slot[i] = int32(s.n)
	s.arena = append(s.arena, t...)
	s.n++
	return true
}

// grow doubles the table and rehashes the current generation's tuples.
func (s *tupleSet) grow() {
	old := len(s.slot)
	s.slot = make([]int32, old*2)
	s.stamp = make([]uint32, old*2)
	mask := uint64(len(s.slot) - 1)
	for o := 0; o < s.n; o++ {
		t := s.arena[o*s.k : (o+1)*s.k]
		i := s.hash(t) & mask
		for s.stamp[i] == s.gen {
			i = (i + 1) & mask
		}
		s.stamp[i] = s.gen
		s.slot[i] = int32(o)
	}
}

// freelist caps: a scratch keeps at most this many recycled bitmaps and
// occurrence stores; beyond it they are left to the GC so one worker's
// scratch cannot pin an unbounded amount of memory between levels.
const maxFreelist = 64

// scratch holds the per-worker reusable state of the verification hot
// path. Instances are pooled per mining run (the bitmap freelist width is
// the run's sequence count) and handed to workers by runParallel.
type scratch struct {
	idxBuf   []int32             // set-bit indexes of the node bitmap
	tupleBuf []int32             // candidate occurrence materialization
	relsBuf  []temporal.Relation // per-role relations of the inserted event
	masks    []uint8             // per parent role L2 relation masks
	cursors  []int               // per parent pattern occurrence-run cursors
	seen     tupleSet            // per-sequence extension dedup
	ext      extPend             // Lk pending table
	pair     pairAcc             // L2 pending table
	flushBuf []*pendingPattern   // composite-ordered flush view
	fails    []int               // per parent pattern failed triple checks
	lkKeys   []lkKey             // per parent pattern L_k memo keys
	lk       lkHits              // what the L_k memo holds for them

	bmFree []*bitmap.Bitmap
	stFree []*hpg.OccStore
}

// getBitmap returns a cleared full-width bitmap, recycled when possible.
func (s *scratch) getBitmap(n int) *bitmap.Bitmap {
	if l := len(s.bmFree); l > 0 {
		bm := s.bmFree[l-1]
		s.bmFree = s.bmFree[:l-1]
		bm.Reset()
		return bm
	}
	return bitmap.New(n)
}

func (s *scratch) putBitmap(bm *bitmap.Bitmap) {
	if bm != nil && len(s.bmFree) < maxFreelist {
		s.bmFree = append(s.bmFree, bm)
	}
}

// getStore returns an occurrence store reset to width k.
func (s *scratch) getStore(k int) *hpg.OccStore {
	if l := len(s.stFree); l > 0 {
		st := s.stFree[l-1]
		s.stFree = s.stFree[:l-1]
		st.Reset(k)
		return st
	}
	st := &hpg.OccStore{}
	st.Reset(k)
	return st
}

func (s *scratch) putStore(st *hpg.OccStore) {
	if st != nil && len(s.stFree) < maxFreelist {
		s.stFree = append(s.stFree, st)
	}
}
