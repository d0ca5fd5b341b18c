package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"ftpm/internal/bitmap"
	"ftpm/internal/events"
	"ftpm/internal/hpg"
	"ftpm/internal/pattern"
	"ftpm/internal/temporal"
)

// This file holds the prepared view's memo: the vertical lists the L1 and
// L2 passes of a run leave behind for the runs that follow (the extended
// vertical lists of arXiv 1804.10025, kept across runs and generations).
//
//   - L1: per event, the sequences containing it.
//   - L2: per verified candidate pair and per relation slot, the
//     sequences supporting that 2-event pattern, plus the slot's sample —
//     the first occurrence in its first sequence — and, when the run that
//     verified the pair kept them, the slot's occurrences.
//
// Both live in one CSR type of vertical bitmaps, vbits, and follow one
// discipline on a delta view (PrepareShardsDelta): every list is cut below
// the stable prefix, and the tail sequences are added by whoever verifies
// them next (spliceBits). Bitmaps, not sequence-index lists: at the
// supports the miner keeps, a list holds a large share of the sequences,
// and a bitmap spends one bit per sequence where an index list spends 32
// per member. A memo is immutable once published; writers publish a
// copy-on-write successor (ShardedView.updateMemo), so concurrent runs on
// one view read consistent snapshots and mined output never depends on
// the memo's state — only on the view's sequences.
//
// The L2 occurrences are the OccStores a run's L2 flush handed to its
// pattern graph. No run writes them after that flush (level k reads them
// through SeekRun cursors, and DropOccurrences only drops the graph's
// pointer), so the memo shares them without copying, and a publication
// carries them forward by pointer. A delta view's cut memo holds none: a
// store holds occurrences in the windows past the stable prefix, which
// the delta view re-cuts. Level 3 leaves an L_k memo besides (see lkMemo),
// which a delta view starts without for the same reason.

// vbits is a family of vertical bitmaps in CSR form: list i is the bitset
// words[off[i]:off[i+1]] (sequence g is bit g%64 of word g/64), trimmed
// after its last non-zero word, so an empty list holds no words.
type vbits struct {
	off   []int32
	words []uint64
}

// size returns the number of lists.
func (c *vbits) size() int {
	if len(c.off) == 0 {
		return 0
	}
	return len(c.off) - 1
}

// at returns list i.
func (c *vbits) at(i int) bitsPart { return c.part(i, math.MaxInt32) }

// part returns list i cut to its sequences below limit; lists past the
// end are empty.
func (c *vbits) part(i int, limit int32) bitsPart {
	if i >= c.size() {
		return bitsPart{}
	}
	return cutBits(c.words[c.off[i]:c.off[i+1]], 0, limit)
}

// bytes is the family's heap footprint.
func (c *vbits) bytes() int64 { return 4*int64(cap(c.off)) + 8*int64(cap(c.words)) }

// bitsPart is a read-only piece of a bitset: words w, the first of which
// is word lo of the sequence space, with the last word ANDed with last.
// Its last word, so masked, is non-zero unless the part is empty.
type bitsPart struct {
	w    []uint64
	lo   int
	last uint64
}

// cutBits returns the part of w (first word lo) below limit, trimmed.
func cutBits(w []uint64, lo int, limit int32) bitsPart {
	last := ^uint64(0)
	if end := (int(limit)+63)/64 - lo; end <= len(w) {
		if end <= 0 {
			return bitsPart{}
		}
		w = w[:end]
		if r := limit % 64; r != 0 {
			last = 1<<r - 1
		}
	}
	for len(w) > 0 && w[len(w)-1]&last == 0 {
		w, last = w[:len(w)-1], ^uint64(0)
	}
	return bitsPart{w: w, lo: lo, last: last}
}

// word returns the part's i-th word, masked.
func (p bitsPart) word(i int) uint64 {
	if i == len(p.w)-1 {
		return p.w[i] & p.last
	}
	return p.w[i]
}

// end is one past the last word of the sequence space the part touches.
func (p bitsPart) end() int {
	if len(p.w) == 0 {
		return 0
	}
	return p.lo + len(p.w)
}

// count returns the number of sequences in the part.
func (p bitsPart) count() int {
	n := 0
	for i := range p.w {
		n += bits.OnesCount64(p.word(i))
	}
	return n
}

// first returns the part's lowest sequence, or -1 when it is empty.
func (p bitsPart) first() int32 {
	for i := range p.w {
		if v := p.word(i); v != 0 {
			return int32(64*(p.lo+i) + bits.TrailingZeros64(v))
		}
	}
	return -1
}

// orInto adds the part's sequences to dst, a bitset from word 0.
func (p bitsPart) orInto(dst []uint64) {
	for i := range p.w {
		dst[p.lo+i] |= p.word(i)
	}
}

// spliceBits is the memo's one update operation: it builds the family of
// n lists whose list i is the union of the parts parts(i, buf) appends to
// buf and returns — in practice an old list cut below a stable prefix and
// the sequences a tail scan or verification found from that prefix on.
// hint is the expected word total; a build that ends far below its
// capacity is copied to fit.
func spliceBits(n, hint int, parts func(i int, buf []bitsPart) []bitsPart) vbits {
	off := make([]int32, n+1)
	words := make([]uint64, 0, hint)
	var buf []bitsPart
	for i := 0; i < n; i++ {
		buf = parts(i, buf[:0])
		end := 0
		for _, p := range buf {
			end = max(end, p.end())
		}
		// Words past len were never written, so the grown list is zero.
		at := len(words)
		words = slices.Grow(words, end)[:at+end]
		for _, p := range buf {
			p.orInto(words[at:])
		}
		off[i+1] = int32(len(words))
	}
	if cap(words)-len(words) > len(words)/8 {
		words = append(make([]uint64, 0, len(words)), words...)
	}
	return vbits{off: off, words: words}
}

// scanL1 returns the L1 index of db's sequences from index from on: list
// e holds the global indexes >= from of the sequences that contain event
// e. The scan fills one dense bitset per event over the scanned words
// only, then packs them.
func scanL1(db *events.DB, from int) vbits {
	lo := from / 64
	w := (db.Size()+63)/64 - lo
	dense := make([]uint64, db.Vocab.Size()*w)
	for g := from; g < db.Size(); g++ {
		for _, e := range db.Sequences[g].Events() {
			dense[int(e)*w+g/64-lo] |= 1 << (g % 64)
		}
	}
	return spliceBits(db.Vocab.Size(), len(dense), func(e int, buf []bitsPart) []bitsPart {
		return append(buf, cutBits(dense[e*w:(e+1)*w], lo, math.MaxInt32))
	})
}

// patchL1 is the L1 index of db given prev, the index of a view sharing
// db's first stable sequences: prev's lists cut below stable, united
// with a scan of the tail.
func patchL1(prev *vbits, db *events.DB, stable int) *vbits {
	tail := scanL1(db, stable)
	out := spliceBits(tail.size(), len(prev.words)+len(tail.words), func(e int, buf []bitsPart) []bitsPart {
		return append(buf, prev.part(e, int32(stable)), tail.at(e))
	})
	return &out
}

// memoKey is what changes L2 verification: the relation parameters and
// t_max. Thresholds are applied to the memo's counts, and whether
// occurrences are kept changes neither a slot's supporting sequences nor
// its sample, so neither is part of the key.
type memoKey struct {
	rel  temporal.Config
	tmax temporal.Duration
}

// pairMemo is the L2 memo of one verification key. Entry e describes the
// candidate pair pair[e]; its slot s (see pairSlot) owns list
// l = e*numPairSlots+s of lists, read below limit.
type pairMemo struct {
	key  memoKey
	idx  map[uint64]int32 // packPair(a, b) -> entry
	pair []uint64         // entry -> packPair(a, b), in publication order
	// covered[e] is the prefix entry e verified: its lists hold every
	// supporting sequence below it, and none at or beyond it.
	covered []int32
	// samples[l] is the first occurrence (instance indexes) of list l's
	// slot in the list's first sequence; meaningless for an empty list.
	samples [][2]int32
	// stores[e] holds the occurrences entry e's verification kept, nil
	// when it kept none. A cut memo holds none (stores is nil).
	stores []*pairStores
	lists  vbits
	// limit cuts the memo to a delta view's stable prefix: lists read
	// below it and coverage reads at most it. All other fields may be
	// shared with the memo it was cut from.
	limit int32
}

// mapEntryBytes approximates the heap cost of one idx entry (key, value
// and bucket overhead) for the memo's byte report.
const mapEntryBytes = 24

func (pm *pairMemo) bytes() int64 {
	n := pm.lists.bytes() + int64(len(pm.idx))*mapEntryBytes +
		8*int64(cap(pm.pair)+cap(pm.samples)+cap(pm.stores)) + 4*int64(cap(pm.covered))
	for _, ps := range pm.stores {
		if ps != nil {
			for _, st := range ps {
				if st != nil {
					n += st.Bytes()
				}
			}
		}
	}
	return n
}

// pairStores are the L2 occurrences of one memo entry, as the run that
// verified the pair over every sequence stored them: st[s] holds every
// occurrence of slot s's pattern, or is nil when the run kept none — the
// slot failed its thresholds.
type pairStores [numPairSlots]*hpg.OccStore

// storesOf returns entry e's stores, or nil.
func (pm *pairMemo) storesOf(e int32) *pairStores {
	if int(e) >= len(pm.stores) {
		return nil
	}
	return pm.stores[e]
}

// lacks reports whether entry e lacks a store of ps: it holds none for a
// slot ps holds one for.
func (pm *pairMemo) lacks(e int32, ps *pairStores) bool {
	if ps == nil {
		return false
	}
	held := pm.storesOf(e)
	if held == nil {
		return true
	}
	for s, st := range ps {
		if st != nil && held[s] == nil {
			return true
		}
	}
	return false
}

// entry looks a pair up; a nil memo holds nothing.
func (pm *pairMemo) entry(pair uint64) (int32, bool) {
	if pm == nil {
		return 0, false
	}
	e, ok := pm.idx[pair]
	return e, ok
}

// coverage is the prefix of sequences entry e vouches for.
func (pm *pairMemo) coverage(e int32) int32 { return min(pm.covered[e], pm.limit) }

// list returns list l cut to what the memo vouches for.
func (pm *pairMemo) list(l int) bitsPart { return pm.lists.part(l, pm.limit) }

// truncated returns the memo cut to the first stable sequences: every
// list below stable, every coverage at most stable. The cut shares all
// storage with pm and costs nothing until a run publishes a successor
// (merged). Samples carry over: a list's sample is its first sequence's,
// which a non-empty cut list keeps. Occurrence stores do not.
func (pm *pairMemo) truncated(stable int32) *pairMemo {
	cut := *pm
	cut.limit = min(pm.limit, stable)
	cut.stores = nil
	return &cut
}

// merged returns the successor of pm (nil for none) holding fresh — the
// entries a run verified over every one of its n sequences. A fresh entry
// replaces an entry of pm that covers less or lacks one of its occurrence
// stores; pm's other entries are kept, in order, and new pairs are
// appended in fresh's order, so an entry keeps its index from memo to
// memo. Every list is rebuilt into one new family, cut to what it vouches
// for; stores carry over by pointer.
func (pm *pairMemo) merged(key memoKey, n int32, fresh []*pairEntry) *pairMemo {
	// order[j] is entry j of the successor: a fresh entry, or else nil for
	// entry j of pm.
	var order []*pairEntry
	if pm != nil {
		order = make([]*pairEntry, len(pm.pair), len(pm.pair)+len(fresh))
	}
	for _, pe := range fresh {
		e, ok := pm.entry(pe.pair)
		switch {
		case !ok:
			order = append(order, pe)
		case pm.coverage(e) < n || pm.lacks(e, pe.stores):
			order[e] = pe
		}
	}
	out := &pairMemo{
		key:     key,
		covered: make([]int32, len(order)),
		samples: make([][2]int32, len(order)*numPairSlots),
		stores:  make([]*pairStores, len(order)),
		limit:   math.MaxInt32,
	}
	if pm != nil && len(order) == len(pm.pair) {
		out.idx, out.pair = pm.idx, pm.pair
	} else {
		out.idx, out.pair = make(map[uint64]int32, len(order)), make([]uint64, len(order))
		for j, pe := range order {
			var p uint64
			if pe != nil {
				p = pe.pair
			} else {
				p = pm.pair[j]
			}
			out.pair[j] = p
			out.idx[p] = int32(j)
		}
	}
	for j, pe := range order {
		if pe == nil {
			out.covered[j] = pm.coverage(int32(j))
			copy(out.samples[j*numPairSlots:], pm.samples[j*numPairSlots:(j+1)*numPairSlots])
			out.stores[j] = pm.storesOf(int32(j))
		} else {
			out.covered[j] = n
			for s := 0; s < numPairSlots; s++ {
				if pe.support(s) > 0 {
					_, out.samples[j*numPairSlots+s] = pe.sample(s)
				}
			}
			out.stores[j] = pe.stores
		}
	}
	hint := 0
	if pm != nil {
		hint = len(pm.lists.words)
	}
	for _, pe := range fresh {
		hint += len(pe.tail)
	}
	out.lists = spliceBits(len(order)*numPairSlots, hint, func(l int, buf []bitsPart) []bitsPart {
		if pe := order[l/numPairSlots]; pe != nil {
			return append(buf, pe.head(l%numPairSlots), pe.tailOf(l%numPairSlots))
		}
		return append(buf, pm.list(l))
	})
	return out
}

// viewMemo is one immutable state of a view's memo.
type viewMemo struct {
	l1 *vbits // nil until a completed L1 scan is installed
	// pairs is the L2 memo of the verification key last published; a run
	// with another key replaces it.
	pairs *pairMemo
	// lk is the L_k memo of the key last published, shared by every
	// successor state until a run with another key replaces it.
	lk *lkMemo
}

func (vm *viewMemo) bytes() int64 {
	var n int64
	if vm.l1 != nil {
		n += vm.l1.bytes()
	}
	if vm.pairs != nil {
		n += vm.pairs.bytes()
	}
	if vm.lk != nil {
		n += vm.lk.bytes()
	}
	return n
}

// pairEntry is one candidate pair's verification as a run sees it: the
// head lists of a memo entry (none on a miss) united with the tail this
// run verified itself — every sequence from the entry's coverage on, or
// all of them on a miss.
type pairEntry struct {
	pair uint64
	memo *pairMemo // the memo the head lists come from; nil on a miss
	ei   int32     // the entry's index in memo
	// Slot s's tail is the bitset tail[off[s]:off[s+1]] from word lo.
	lo   int
	off  [numPairSlots + 1]int32
	tail []uint64
	// The slots' supports and samples: the first supporting sequence and
	// the first occurrence there. takeTail records the tail's samples;
	// tally resolves every slot against its head.
	supp  [numPairSlots]int32
	first [numPairSlots]int32
	samp  [numPairSlots][2]int32
	// stores are the occurrences this run kept for the pair while
	// verifying it over every sequence; nil when it kept none.
	stores *pairStores
}

// head returns slot s's head: its list in the memo entry.
func (pe *pairEntry) head(s int) bitsPart {
	if pe.memo == nil {
		return bitsPart{}
	}
	return pe.memo.list(int(pe.ei)*numPairSlots + s)
}

// tailOf returns slot s's tail.
func (pe *pairEntry) tailOf(s int) bitsPart {
	return bitsPart{w: pe.tail[pe.off[s]:pe.off[s+1]], lo: pe.lo, last: ^uint64(0)}
}

// tally resolves every slot's support and sample over its head and tail:
// the head's sample, when the head has a sequence, precedes the tail's.
func (pe *pairEntry) tally() {
	for s := range pe.supp {
		head, tail := pe.head(s), pe.tailOf(s)
		pe.supp[s] = int32(head.count() + tail.count())
		if pe.first[s] = head.first(); pe.first[s] >= 0 {
			pe.samp[s] = pe.memo.samples[int(pe.ei)*numPairSlots+s]
		} else {
			pe.first[s] = tail.first()
		}
	}
}

// support is slot s's support, as tallied.
func (pe *pairEntry) support(s int) int { return int(pe.supp[s]) }

// sample returns slot s's sample, as tallied. The slot must have support.
func (pe *pairEntry) sample(s int) (int32, [2]int32) { return pe.first[s], pe.samp[s] }

// takeTail copies the tail bitsets and samples of the L2 pending table,
// filled from sequence from on, into pe. The table keeps its bitmaps and
// occurrence stores for the flush or emission that follows.
func (pe *pairEntry) takeTail(scr *scratch, from int) {
	acc := &scr.pair
	pe.lo = from / 64
	var parts [numPairSlots]bitsPart
	total := 0
	for s := range acc.slots {
		if acc.used[s] {
			w := acc.slots[s].bm.Words()
			parts[s] = cutBits(w[pe.lo:], pe.lo, math.MaxInt32)
			total += len(parts[s].w)
		}
	}
	pe.tail = make([]uint64, 0, total)
	for s := range acc.slots {
		pe.off[s] = int32(len(pe.tail))
		if !acc.used[s] {
			continue
		}
		pe.tail = append(pe.tail, parts[s].w...)
		// With stored occurrences the sample is the store's first (see
		// pendingPattern.record); without, record snapshotted it.
		if pp := &acc.slots[s]; pp.occs != nil {
			copy(pe.samp[s][:], pp.occs.Occ(0))
		} else {
			copy(pe.samp[s][:], pp.sampleOcc)
		}
	}
	pe.off[numPairSlots] = int32(len(pe.tail))
}

// passes applies the final sigma/delta thresholds (the problem
// definition, applied in every pruning mode) to a pattern of support
// supp in a node whose events' largest support is maxSupp.
func (m *miner) passes(supp, maxSupp int) (float64, bool) {
	if supp < m.minSupp {
		return 0, false
	}
	conf := float64(supp) / float64(maxSupp)
	return conf, conf >= m.cfg.MinConfidence
}

// survives reports whether some slot of pe passes the thresholds.
func (m *miner) survives(pe *pairEntry, maxSupp int) bool {
	for s := 0; s < numPairSlots; s++ {
		if _, ok := m.passes(pe.support(s), maxSupp); ok {
			return true
		}
	}
	return false
}

// memoStores returns the occurrences the memo holds for pe when they
// serve this run, else nil. They serve when pe's entry covers every
// sequence and holds a store for every slot that passes the thresholds.
func (m *miner) memoStores(pe *pairEntry, maxSupp int) *pairStores {
	if pe.memo == nil || pe.memo.coverage(pe.ei) < int32(m.n) {
		return nil
	}
	ps := pe.memo.storesOf(pe.ei)
	if ps == nil {
		return nil
	}
	for s, st := range ps {
		if _, ok := m.passes(pe.support(s), maxSupp); ok && st == nil {
			return nil
		}
	}
	return ps
}

// keepStores records in pe the stores flushPair handed to the graph from
// acc: those of the slots that pass the thresholds (a slot that passes has
// support, so acc used it).
func (m *miner) keepStores(pe *pairEntry, acc *pairAcc, maxSupp int) {
	for s := range acc.slots {
		if _, ok := m.passes(pe.support(s), maxSupp); ok {
			if pe.stores == nil {
				pe.stores = &pairStores{}
			}
			pe.stores[s] = acc.slots[s].occs
		}
	}
}

// emitPairs stores the slots of pe that pass the thresholds in node, as
// flush and addPatterns would from the pending table: in key order, with
// the same pattern, bitmap, support, confidence and sample, and the
// occurrences of stores (none when nil).
// When tail is the pending table this run classified pe's tail into, a
// slot's bitmap there (the tail's sequences) is completed with the head's
// and stored, or recycled if the slot fails; otherwise bitmaps are built
// from the memo.
func (m *miner) emitPairs(node *hpg.Node, pe *pairEntry, maxSupp int, tail *pairAcc, stores *pairStores, scr *scratch, ls *LevelStats) {
	for _, s := range pairSlotsInKeyOrder(node.Events[0], node.Events[1]) {
		supp := pe.support(s)
		conf, ok := m.passes(supp, maxSupp)
		var bm *bitmap.Bitmap
		if tail != nil && tail.used[s] {
			bm = tail.slots[s].bm
		}
		if !ok {
			scr.putBitmap(bm)
			continue
		}
		if bm == nil {
			bm = bitmap.New(m.n)
		}
		pe.head(s).orInto(bm.Words())
		seq, occ := pe.sample(s)
		pd := &hpg.PatternData{
			Pattern:    slotPattern(node.Events[0], node.Events[1], s),
			Bitmap:     bm,
			Support:    supp,
			Confidence: conf,
			SampleSeq:  int(seq),
			SampleOcc:  hpg.Occurrence{occ[0], occ[1]},
		}
		if stores != nil {
			pd.Occs = stores[s]
			ls.Occurrences += pd.Occs.NumOccs()
		}
		node.AddPattern(pd)
		ls.Patterns++
	}
}

// The L_k memo holds what level-3 extension produced for one level-2
// parent pattern extended by one event: the pending composites of the
// sequence sweep, in extKey order, and that pattern's share of
// TripleChecksFailed. A threshold sweep over one view re-extends the same
// parent patterns under the same L2 masks cell after cell; an entry lets
// the later cells skip the sweep. The entry is keyed by everything the
// sweep reads (lkKey) and the memo by the verification key (memoKey),
// since the parent's occurrences depend on it. It serves only runs that
// keep no level-3 occurrences, and only nodes whose new event is not in
// the parent: dedup couples the parent patterns of such a node.
//
// Unlike the L1 and L2 memos it grows in place: a run publishes the
// entries it lacked under the memo's lock, each entry once, and no entry
// or composite is ever rewritten. Readers take the read lock for a node's
// lookups only; the composites they then read lie below the arenas'
// lengths at that moment, which no later append writes.

// lkKey identifies one entry: the parent pattern (a, r, b) in role order,
// the new event e, and in bits the relation r (bits 0-1), the four masks
// before[0], before[1], after[0] and after[1] the sweep reads, without the
// green bit it never reads (3 bits each from bit 2), the transitivity
// flag (bit 14) and the insert-position-cut flag (bit 15).
type lkKey struct {
	a, b, e events.EventID
	bits    uint32
}

// lkKeyOf is the key of extending parent pattern p by e. before and after
// are p's masks, nil without transitivity pruning.
func lkKeyOf(p pattern.Pattern, e events.EventID, before, after []uint8, cut bool) lkKey {
	bits := uint32(p.Rels[0])
	if before != nil {
		for i, mask := range [4]uint8{before[0], before[1], after[0], after[1]} {
			bits |= uint32(mask>>1) << (2 + 3*i)
		}
		bits |= 1 << 14
	}
	if cut {
		bits |= 1 << 15
	}
	return lkKey{a: p.Events[0], b: p.Events[1], e: e, bits: bits}
}

// lkVal is an entry: its composites comps[off:off+n] and its share of
// TripleChecksFailed.
type lkVal struct {
	off, n, failed uint32
}

// lkComp is one pending composite of an entry as the sweep left it: the
// insert position and the packed new relations of its extKey, and its
// sample. Its support bitmap is kept beside it (lkMemo.bits).
type lkComp struct {
	seq  int32
	occ  [3]int32
	pos  uint8
	rels uint8
}

// lkMemo is the view's L_k memo of one verification key.
type lkMemo struct {
	key   memoKey
	words int // bitmap words per composite: the view's sequence width

	mu    sync.RWMutex
	idx   map[lkKey]lkVal
	comps []lkComp
	bits  []uint64 // composite i's support is bits[i*words:(i+1)*words]
}

// lkEntryBytes approximates the heap cost of one idx entry: the 28-byte
// key and value, their control byte, and the map's free slots (the map of
// BenchmarkMineSweep's input, 4 708 entries, takes 262 KB). lkCompBytes
// is the size of an lkComp (four int32s and two bytes, padded).
const (
	lkEntryBytes = 56
	lkCompBytes  = 20
)

func (lm *lkMemo) bytes() int64 {
	lm.mu.RLock()
	defer lm.mu.RUnlock()
	return int64(len(lm.idx))*lkEntryBytes + int64(cap(lm.comps))*lkCompBytes + 8*int64(cap(lm.bits))
}

// lkHits is what a node's lookup found: the entry of each parent pattern,
// and the arenas their composites lie in.
type lkHits struct {
	vals  []lkVal
	hit   []bool
	comps []lkComp
	bits  []uint64
}

// lookup finds the entries of keys, reusing h's slices, and reports
// whether all of them hit. A nil memo holds nothing.
func (lm *lkMemo) lookup(keys []lkKey, h *lkHits) bool {
	h.vals, h.hit = slices.Grow(h.vals[:0], len(keys))[:len(keys)], slices.Grow(h.hit[:0], len(keys))[:len(keys)]
	if lm == nil {
		clear(h.hit)
		return false
	}
	all := true
	lm.mu.RLock()
	for i, k := range keys {
		h.vals[i], h.hit[i] = lm.idx[k]
		all = all && h.hit[i]
	}
	h.comps, h.bits = lm.comps, lm.bits
	lm.mu.RUnlock()
	return all
}

// lkFresh is what one run adds to the L_k memo: an entry for each
// parent pattern extension it swept that the memo lacked, with its
// composites (vals index comps, and bits holds a memo's words per
// composite).
type lkFresh struct {
	keys  []lkKey
	vals  []lkVal
	comps []lkComp
	bits  []uint64
}

// add publishes the entries of f that the memo lacks.
func (lm *lkMemo) add(f *lkFresh) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lm.idx == nil {
		lm.idx = make(map[lkKey]lkVal, len(f.keys))
	}
	lm.comps = slices.Grow(lm.comps, len(f.comps))
	lm.bits = slices.Grow(lm.bits, len(f.bits))
	for i, k := range f.keys {
		if _, ok := lm.idx[k]; ok {
			continue
		}
		v := f.vals[i]
		lo, hi := int(v.off), int(v.off+v.n)
		lm.idx[k] = lkVal{off: uint32(len(lm.comps)), n: v.n, failed: v.failed}
		lm.comps = append(lm.comps, f.comps[lo:hi]...)
		lm.bits = append(lm.bits, f.bits[lo*lm.words:hi*lm.words]...)
	}
}
