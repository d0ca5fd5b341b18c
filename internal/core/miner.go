package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"ftpm/internal/bitmap"
	"ftpm/internal/events"
	"ftpm/internal/hpg"
	"ftpm/internal/pattern"
	"ftpm/internal/temporal"
)

// Mine runs HTPGM over the temporal sequence database. With a nil
// Config.Filter this is the exact E-HTPGM (Alg 1); with a correlation
// filter it is A-HTPGM (Alg 2). It is MineShardedView over a one-shard
// view of db, except that level 3 records no L_k memo: no later run reads
// the view.
//
// Cancelling ctx aborts the run: workers stop between verification units
// (candidate nodes and, within a node, sequences), and Mine returns
// ctx.Err(). A nil ctx is treated as context.Background().
func Mine(ctx context.Context, db *events.DB, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if db == nil {
		return nil, fmt.Errorf("core: empty sequence database")
	}
	v, err := PrepareShards([]*events.DB{db})
	if err != nil {
		return nil, err
	}
	return mineView(ctx, v, cfg, false)
}

// mineAll runs the levelwise mining loop on a fully-constructed miner.
func (m *miner) mineAll(ctx context.Context) (*Result, error) {
	start := time.Now()
	m.scrPool.New = func() any { return &scratch{} }
	m.curWorkers = m.cfg.Workers
	m.mineSingles()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if m.cfg.MaxK != 1 && len(m.oneFreq) > 0 {
		m.mineLevel2()
		if m.cfg.MaxK == 0 || m.cfg.MaxK >= 3 {
			// The L2 relation table only serves level-k (k >= 3)
			// mining; a MaxK=2 run never reads it.
			m.buildL2Index()
		}
		for k := 3; ; k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if m.cfg.MaxK > 0 && k > m.cfg.MaxK {
				break
			}
			prev := m.graph.Level(k - 1)
			if prev == nil || prev.Size() == 0 {
				break
			}
			if m.mineLevelK(k) == 0 {
				break
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := m.buildResult()
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// miner carries the run state.
type miner struct {
	db      *events.DB   // the view's merged database
	view    *ShardedView // source of the L1 index and L2 memos
	cfg     Config
	rel     temporal.Config
	n       int // |DSEQ|
	minSupp int

	// support and bitmap of every event (also infrequent ones, needed for
	// the confidence denominators of Def 3.16).
	eventSupp map[events.EventID]int
	eventBm   map[events.EventID]*bitmap.Bitmap
	oneFreq   []events.EventID // frequent singles after the series filter

	graph *hpg.Graph
	stats Stats

	// l2rank and l2rels are the finished level 2 as one dense relation
	// table, built once by buildL2Index and read-only during level-k
	// mining. l2rank maps every vocabulary event to its rank in oneFreq
	// (-1 when infrequent); l2rels[rank(a)*len(oneFreq)+rank(b)] holds
	// bit 0 (l2Green) when {a, b} is a green L2 node and bit r when
	// (a, r, b) is a frequent 2-event pattern. The Lemma 5 candidate
	// filter reads bit 0; extendNode turns the relation bits into per-role
	// masks, so the iterative triple verification is one bit test.
	l2rank []int32
	l2rels []uint8

	// pairs is the view's L2 memo for this run's verification key, as
	// loaded when level 2 starts (nil when the view has none).
	pairs *pairMemo
	// lk is the view's L_k memo for this run's key, as loaded when level 3
	// starts (nil when the view has none); lkFresh collects, under
	// lkFreshMu, the entries level 3 swept that it lacked, unless recordLk
	// is false.
	lk        *lkMemo
	recordLk  bool
	lkFreshMu sync.Mutex
	lkFresh   lkFresh

	// scrPool recycles per-worker scratch state across the run's parallel
	// drains. Scoped to the miner (not package-global) so pooled bitmaps
	// always have this run's sequence-count width.
	scrPool sync.Pool

	// done is the cancellation channel of the run's context; cancelled()
	// polls it between verification units.
	done <-chan struct{}

	// curWorkers is the effective worker count of the level currently
	// being mined. It starts at cfg.Workers and is renegotiated through
	// cfg.WorkersFunc at each level boundary (renegotiateWorkers); it must
	// stay fixed within a level so every fan-out of that level sees the
	// same parallelism.
	curWorkers int
}

// cancelled reports whether the run's context has been cancelled. A nil
// done channel (background context) never signals, so the check is one
// non-blocking select — cheap enough for per-sequence polling inside node
// verification.
func (m *miner) cancelled() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// seriesOf returns the originating series of an event.
func (m *miner) seriesOf(e events.EventID) string { return m.db.Vocab.Def(e).Series }

// pairAllowed applies the A-HTPGM correlation filters at L2 (Alg 2 lines
// 9-11). For the series-level filter, same-series pairs always pass; the
// event-level filter (future-work extension) decides per event pair, with
// self-pairs always allowed.
func (m *miner) pairAllowed(a, b events.EventID) bool {
	if m.cfg.Filter != nil {
		sa, sb := m.seriesOf(a), m.seriesOf(b)
		if sa != sb && !m.cfg.Filter.PairAllowed(sa, sb) {
			return false
		}
	}
	if m.cfg.EventFilter != nil && a != b {
		da, db := m.db.Vocab.Def(a), m.db.Vocab.Def(b)
		if !m.cfg.EventFilter.EventPairAllowed(da.Series, da.Symbol, db.Series, db.Symbol) {
			return false
		}
	}
	return true
}

// eventAllowed applies the L1 filters to a single event.
func (m *miner) eventAllowed(e events.EventID) bool {
	d := m.db.Vocab.Def(e)
	if m.cfg.Filter != nil && !m.cfg.Filter.SeriesAllowed(d.Series) {
		return false
	}
	if m.cfg.EventFilter != nil && !m.cfg.EventFilter.EventAllowed(d.Series, d.Symbol) {
		return false
	}
	return true
}

// maxEventSupport returns max support over the pattern's events — the
// denominator of Def 3.16.
func (m *miner) maxEventSupport(evs []events.EventID) int {
	mx := 0
	for _, e := range evs {
		if s := m.eventSupp[e]; s > mx {
			mx = s
		}
	}
	return mx
}

// spanOK checks the maximal-duration constraint of §III-C. The paper
// phrases it as "end time of the last instance minus start time of the
// first"; we apply the equivalent monotone form — every instance must end
// within first.Start + t_max — so that the constraint is closed under
// sub-patterns and Apriori reasoning stays exact (see DESIGN.md).
func (m *miner) spanOK(first, other events.Instance) bool {
	if m.cfg.TMax <= 0 {
		return true
	}
	end := other.End
	if first.End > end {
		end = first.End
	}
	return end-first.Start <= m.cfg.TMax
}

// mineSingles is step 1 of Alg 1 (lines 1-4): frequent single events.
// The support bitmap of every vocabulary event is rebuilt from the view's
// L1 index (one bit per containing sequence, so a list's count is the
// event's support); the L1 filters and the support threshold then
// assemble level 1 of the pattern graph.
func (m *miner) mineSingles() {
	t0 := time.Now()
	m.renegotiateWorkers(1)
	lists := m.view.singleLists()
	vocabSize := m.db.Vocab.Size()
	m.eventSupp = make(map[events.EventID]int, vocabSize)
	m.eventBm = make(map[events.EventID]*bitmap.Bitmap, vocabSize)
	level := hpg.NewLevel(1)
	allowedSeries := make(map[string]bool)
	for id := 0; id < vocabSize; id++ {
		e := events.EventID(id)
		l := lists.at(id)
		bm := bitmap.New(m.n)
		l.orInto(bm.Words())
		m.eventBm[e] = bm
		supp := l.count()
		m.eventSupp[e] = supp

		if !m.eventAllowed(e) {
			continue
		}
		allowedSeries[m.seriesOf(e)] = true
		m.stats.SinglesConsidered++
		if supp < m.minSupp {
			continue
		}
		m.oneFreq = append(m.oneFreq, e)
		level.Add(hpg.NewNode([]events.EventID{e}, bm, supp, 1))
	}
	if m.cfg.Filter != nil {
		total := make(map[string]bool)
		for id := 0; id < vocabSize; id++ {
			total[m.seriesOf(events.EventID(id))] = true
		}
		m.stats.SeriesFiltered = len(total) - len(allowedSeries)
	}
	sort.Slice(m.oneFreq, func(i, j int) bool { return m.oneFreq[i] < m.oneFreq[j] })
	m.stats.SinglesFrequent = len(m.oneFreq)
	m.graph.Levels = append(m.graph.Levels, level)
	m.finishLevel(LevelStats{K: 1, Candidates: m.stats.SinglesConsidered,
		NodesVerified: m.stats.SinglesConsidered, GreenNodes: len(m.oneFreq),
		Workers: m.workers(), Duration: time.Since(t0)})
}

// finishLevel records a completed level's stats and notifies the progress
// callback (on the mining goroutine). A cancelled run suppresses the
// callback: its counters are partial, and Progress promises final
// per-level numbers.
func (m *miner) finishLevel(ls LevelStats) {
	m.stats.Levels = append(m.stats.Levels, ls)
	if m.cfg.Progress != nil && !m.cancelled() {
		m.cfg.Progress(ls)
	}
}

// keepOccsAt reports whether occurrences of level k must be stored: they
// are needed when level k+1 will extend them, or when the caller wants
// the full graph.
func (m *miner) keepOccsAt(k int) bool {
	return m.cfg.KeepGraph || m.cfg.MaxK == 0 || k < m.cfg.MaxK
}

// mineLevel2 is step 2 of Alg 1 (lines 5-14): frequent 2-event patterns.
// Candidate pairs are verified independently — serially or spread over
// Config.Workers — in one drain over the merged database, against the
// view's L2 memo; the pairs the drain verified are published to the memo
// afterwards, unless the run was cancelled (their lists may be partial).
func (m *miner) mineLevel2() {
	t0 := time.Now()
	m.renegotiateWorkers(2)
	ls := LevelStats{K: 2, Workers: m.workers()}
	level := hpg.NewLevel(2)

	var tasks []pairTask
	for i, a := range m.oneFreq {
		for _, b := range m.oneFreq[i:] {
			if !m.pairAllowed(a, b) {
				m.stats.PairsFiltered++
				continue
			}
			tasks = append(tasks, pairTask{a, b})
		}
	}
	key := memoKey{rel: m.rel, tmax: m.cfg.TMax}
	m.pairs = m.view.pairMemo(key)
	outcomes := runParallel(m.done, m.workers(), &m.scrPool, tasks, m.verifyPairTask)
	var fresh []*pairEntry
	for i := range outcomes {
		o := &outcomes[i]
		o.mergeInto(level, &ls)
		if o.fresh {
			fresh = append(fresh, &o.entry)
		}
	}
	if len(fresh) > 0 && !m.cancelled() {
		m.view.publishPairs(key, m.pairs, int32(m.n), fresh)
	}

	m.graph.Levels = append(m.graph.Levels, level)
	ls.Duration = time.Since(t0)
	m.finishLevel(ls)
}

// verifyPair mines the frequent 2-event patterns of one node (step 2.2).
// The memo answers the sequences an earlier run verified; the pair's
// instance pairs are classified only in the rest — every sequence where
// both events occur on a miss, the tail beyond the entry's coverage on a
// delta view, none on a full hit. The patterns are then emitted from the
// combined entry, which the outcome carries to the memo when this run
// verified part of it. When occurrences must be kept (level 3 extends
// them), a miss stores them while classifying, and a full hit takes them
// from the memo. Any other hit with a pattern passing the thresholds is
// re-verified over every sequence to store them, and its entry, with the
// stores, goes to the memo, so the next such run is served from it.
func (m *miner) verifyPair(node *hpg.Node, scr *scratch, o *pairOutcome) {
	keepOccs := m.keepOccsAt(2)
	pe := &o.entry
	pe.pair = packPair(node.Events[0], node.Events[1])
	from := 0
	if e, ok := m.pairs.entry(pe.pair); ok {
		pe.memo, pe.ei = m.pairs, e
		from = int(m.pairs.coverage(e))
	}
	hit := pe.memo != nil
	occs := keepOccs && !hit
	var tail *pairAcc // the pending table holding what this run classified
	if !hit || from < m.n {
		m.classifyPair(node, scr, from, occs)
		pe.takeTail(scr, from)
		o.fresh = true
		tail = &scr.pair
	}
	pe.tally()
	maxSupp := m.maxEventSupport(node.Events)
	if occs {
		m.flushPair(node, tail, scr, &o.ls)
		m.keepStores(pe, tail, maxSupp)
		return
	}
	var stores *pairStores
	if keepOccs && m.survives(pe, maxSupp) {
		if stores = m.memoStores(pe, maxSupp); stores == nil {
			if tail != nil {
				tail.release(scr)
			}
			m.classifyPair(node, scr, 0, true)
			m.flushPair(node, &scr.pair, scr, &o.ls)
			m.keepStores(pe, &scr.pair, maxSupp)
			o.fresh = true
			return
		}
	}
	if hit {
		o.ls.MemoHits++
	}
	m.emitPairs(node, pe, maxSupp, tail, stores, scr, &o.ls)
}

// classifyPair fills the worker's L2 pending table from the sequences
// from on where both of the node's events occur: it retrieves their
// instance pairs and classifies each relation. keepOccs stores the
// occurrences too.
func (m *miner) classifyPair(node *hpg.Node, scr *scratch, from int, keepOccs bool) {
	acc := &scr.pair
	acc.reset()
	a, b := node.Events[0], node.Events[1]

	seqs := node.Bitmap.AppendIndices(scr.idxBuf[:0])
	scr.idxBuf = seqs
	seqs = seqs[sort.Search(len(seqs), func(i int) bool { return int(seqs[i]) >= from }):]
	for _, s32 := range seqs {
		if m.cancelled() {
			break
		}
		seqIdx := int(s32)
		seq := m.db.Sequences[seqIdx]
		ia := seq.InstancesOf(a)
		ib := seq.InstancesOf(b)
		if a == b {
			// Self-relation: ordered pairs of distinct instances.
			for x := 0; x < len(ia); x++ {
				for y := x + 1; y < len(ia); y++ {
					m.classifyInto(acc, a, b, seq, seqIdx, ia[x], ia[y], keepOccs, scr)
				}
			}
			continue
		}
		for _, x := range ia {
			for _, y := range ib {
				// Order the two instances chronologically; instance order
				// in the sequence equals index order.
				lo, hi := x, y
				if hi < lo {
					lo, hi = hi, lo
				}
				m.classifyInto(acc, a, b, seq, seqIdx, lo, hi, keepOccs, scr)
			}
		}
	}
}

// classifyInto classifies the instance pair (lo before hi) and records the
// resulting 2-event pattern occurrence under its (first event, relation)
// slot — direct table addressing, no keys.
func (m *miner) classifyInto(acc *pairAcc, a, b events.EventID, seq *events.Sequence, seqIdx int, lo, hi int32, keepOccs bool, scr *scratch) {
	first, second := seq.Instances[lo], seq.Instances[hi]
	if !m.spanOK(first, second) {
		return
	}
	rel := m.rel.Classify(first.Interval, second.Interval)
	if rel == temporal.None {
		return
	}
	slot := pairSlot(rel, a != b && first.Event == b)
	pp := &acc.slots[slot]
	if !acc.used[slot] {
		acc.used[slot] = true
		pp.reset()
		pp.bm = scr.getBitmap(m.n)
		// A sample without stored occurrences lands in the table's own
		// storage: takeTail copies it out, and flushPair (which requires
		// stored occurrences) takes the sample from the store instead.
		pp.sampleOcc = acc.samp[slot][:0]
		if keepOccs {
			pp.occs = scr.getStore(2)
		}
	}
	scr.tupleBuf = append(scr.tupleBuf[:0], lo, hi)
	pp.record(seqIdx, scr.tupleBuf)
}

// flushPair flushes the L2 pending table, filled with stored occurrences.
// At L2 every slot already realizes a distinct pattern, so flush only
// puts the slots in key order.
func (m *miner) flushPair(node *hpg.Node, acc *pairAcc, scr *scratch, ls *LevelStats) {
	buf := scr.flushBuf[:0]
	for s := range acc.slots {
		if acc.used[s] {
			pp := &acc.slots[s]
			pp.pat = slotPattern(node.Events[0], node.Events[1], s)
			buf = append(buf, pp)
		}
	}
	scr.flushBuf = buf
	maxSupp := m.maxEventSupport(node.Events)
	m.addPatterns(node, m.flush(buf, maxSupp, scr), maxSupp, ls)
}

// flush applies the final sigma/delta thresholds (passes) to a pending
// table and returns its survivors, a prefix of pps in pattern order; the
// rest are recycled. pps arrives in composite-key order; a stable sort by
// pattern.Compare brings the entries realizing the same pattern together,
// still in that order, and each run is merged left to right — which fixes
// the occurrence order within a sequence and the sample tie-break (see
// TestFlushDeterminism). maxSupp is the largest support of the node's
// events.
func (m *miner) flush(pps []*pendingPattern, maxSupp int, scr *scratch) []*pendingPattern {
	slices.SortStableFunc(pps, func(a, b *pendingPattern) int { return pattern.Compare(a.pat, b.pat) })
	n := 0
	for _, pp := range pps {
		if n == 0 || !pps[n-1].pat.Equal(pp.pat) {
			pps[n] = pp
			n++
			continue
		}
		ex := pps[n-1]
		ex.bm.InPlaceOr(pp.bm)
		scr.putBitmap(pp.bm)
		if ex.occs != nil && pp.occs != nil {
			dst := scr.getStore(ex.occs.K())
			hpg.MergeOccsInto(dst, ex.occs, pp.occs, ex.occs.K())
			scr.putStore(ex.occs)
			scr.putStore(pp.occs)
			ex.occs = dst
		}
		ex.nOcc += pp.nOcc
		if pp.sampleSeq >= 0 && (ex.sampleSeq < 0 || pp.sampleSeq < ex.sampleSeq) {
			ex.sampleSeq = pp.sampleSeq
			ex.sampleOcc = pp.sampleOcc
		}
	}
	s := 0
	for _, pp := range pps[:n] {
		if _, ok := m.passes(pp.bm.Count(), maxSupp); !ok {
			scr.putBitmap(pp.bm)
			scr.putStore(pp.occs)
			continue
		}
		pps[s] = pp
		s++
	}
	return pps[:s]
}

// addPatterns stores the survivors of a flush in node, in their order:
// the node's pattern slice grows once, and their PatternData share one
// allocation.
func (m *miner) addPatterns(node *hpg.Node, survivors []*pendingPattern, maxSupp int, ls *LevelStats) {
	if len(survivors) == 0 {
		return
	}
	node.Grow(len(survivors))
	pds := make([]hpg.PatternData, len(survivors))
	for i, pp := range survivors {
		supp := pp.bm.Count()
		conf, _ := m.passes(supp, maxSupp)
		if pp.occs != nil && pp.occs.NumSeqs() > 0 {
			// The survivor's sample is the store's first occurrence (see
			// pendingPattern.record) — copied only now, once per stored
			// pattern instead of once per composite.
			pp.sampleSeq = int(pp.occs.SeqAt(0))
			pp.sampleOcc = append(hpg.Occurrence(nil), pp.occs.Occ(0)...)
		}
		pds[i] = hpg.PatternData{
			Pattern:    pp.pat,
			Bitmap:     pp.bm,
			Support:    supp,
			Confidence: conf,
			Occs:       pp.occs,
			SampleSeq:  pp.sampleSeq,
			SampleOcc:  pp.sampleOcc,
		}
		node.AddPattern(&pds[i])
		ls.Patterns++
		ls.Occurrences += pp.nOcc
	}
}

// mineLevelK is step 3 of Alg 1 (lines 15-20): frequent k-event patterns
// for k >= 3. It returns the number of green nodes added.
func (m *miner) mineLevelK(k int) int {
	t0 := time.Now()
	m.renegotiateWorkers(k)
	ls := LevelStats{K: k, Workers: m.workers()}
	prev := m.graph.Level(k - 1)
	level := hpg.NewLevel(k)

	// Filtered1Freq (Lemma 5): with transitivity pruning only events that
	// appear in some frequent (k-1)-pattern can extend; otherwise all
	// frequent singles are used.
	src := m.oneFreq
	if m.cfg.Pruning.trans() {
		src = prev.DistinctEvents()
	}

	var tasks []extendTask
	for _, node := range prev.Nodes() {
		last := node.Events[len(node.Events)-1]
		for _, e := range src {
			if e < last {
				// Extending with the largest event only generates each
				// multiset exactly once.
				continue
			}
			tasks = append(tasks, extendTask{parent: node, e: e})
		}
	}
	// Level 3 reads the L_k memo, and the entries its nodes swept go to
	// the memo afterwards, unless the run was cancelled (a node's sweep
	// may be partial).
	key := memoKey{rel: m.rel, tmax: m.cfg.TMax}
	if k == 3 {
		m.lk = m.view.lkMemo(key)
	}
	outcomes := runParallel(m.done, m.workers(), &m.scrPool, tasks, m.extendNodeTask)
	for i := range outcomes {
		outcomes[i].mergeInto(level, &ls)
	}
	if len(m.lkFresh.keys) > 0 && !m.cancelled() {
		m.view.publishLk(key, bitmapWords(m.n), &m.lkFresh)
	}

	// Level k-1 occurrences can be released: only level k extends them.
	if !m.cfg.KeepGraph {
		for _, n := range prev.Nodes() {
			n.DropOccurrences()
		}
	}
	m.graph.Levels = append(m.graph.Levels, level)
	ls.Duration = time.Since(t0)
	m.finishLevel(ls)
	return ls.GreenNodes
}

// packPair packs a sorted event pair into the L2 memo's entry key.
func packPair(lo, hi events.EventID) uint64 {
	return uint64(uint32(lo))<<32 | uint64(uint32(hi))
}

// l2Green is the relation table bit of a green L2 node; bit r (1..3)
// marks relation r.
const l2Green = 1

// buildL2Index snapshots the finished level 2 into the dense relation
// table l2rels: |L1|² bytes, indexed by the frequent singles' ranks.
// Both the Lemma 5 filter and the triple verification read it per
// candidate node, with no hashing.
func (m *miner) buildL2Index() {
	l2 := m.graph.Level(2)
	if l2 == nil {
		return
	}
	m.l2rank = make([]int32, m.db.Vocab.Size())
	for i := range m.l2rank {
		m.l2rank[i] = -1
	}
	for r, e := range m.oneFreq {
		m.l2rank[e] = int32(r)
	}
	n := len(m.oneFreq)
	m.l2rels = make([]uint8, n*n)
	for _, nd := range l2.Nodes() {
		a, b := int(m.l2rank[nd.Events[0]]), int(m.l2rank[nd.Events[1]])
		m.l2rels[a*n+b] |= l2Green
		m.l2rels[b*n+a] |= l2Green
		for _, pd := range nd.Patterns() {
			p := pd.Pattern
			a, b := int(m.l2rank[p.Events[0]]), int(m.l2rank[p.Events[1]])
			m.l2rels[a*n+b] |= 1 << p.Rels[0]
		}
	}
}

// l2rel returns the relation table entry of the ordered event pair
// (a, b): 0 when either event is infrequent.
func (m *miner) l2rel(a, b events.EventID) uint8 {
	ra, rb := m.l2rank[a], m.l2rank[b]
	if ra < 0 || rb < 0 {
		return 0
	}
	return m.l2rels[int(ra)*len(m.oneFreq)+int(rb)]
}

// lemma5Allows implements the Lemma 5 candidate filter: the new event must
// form at least one frequent relation (a green L2 node) with some event of
// the parent combination.
func (m *miner) lemma5Allows(node *hpg.Node, e events.EventID) bool {
	for _, ei := range node.Events {
		if m.l2rel(ei, e)&l2Green != 0 {
			return true
		}
	}
	return false
}

// extendNode mines the k-event patterns of child = parent ∪ {e} by
// inserting instances of e into the stored occurrences of the parent's
// frequent (k-1)-patterns (Lemma 4: the new instance always relates to all
// existing ones). With transitivity pruning each new triple is verified
// against L2 (Lemmas 6-7) before the occurrence is accepted, and the L2
// masks bound where an instance may be inserted at all: where the bound
// is the only check a misplaced instance could fail, only the instances
// inside it are tried, and the rest are counted as failed triple checks.
// At level 3, when the run keeps no level-3 occurrences and e is not in
// the parent, the L_k memo stands in for the sweep if it holds an entry
// for every parent pattern; otherwise the sweep records the entries it
// lacked in m.lkFresh. It returns the flushed survivors (see flush);
// maxSupp is the largest support of the child's events.
func (m *miner) extendNode(parent *hpg.Node, e events.EventID, maxSupp int, scr *scratch, ls *LevelStats) []*pendingPattern {
	scr.ext.reset()
	k := parent.K() + 1
	x := extension{m: m, scr: scr, dup: slices.Contains(parent.Events, e),
		trans: m.cfg.Pruning.trans(), keepOccs: m.keepOccsAt(k)}
	parentPatterns := parent.Patterns()

	// The buffers the sweep works in, sized once per node.
	if cap(scr.tupleBuf) < k {
		scr.tupleBuf = make([]int32, k)
	}
	if cap(scr.relsBuf) < k {
		scr.relsBuf = make([]temporal.Relation, k)
	}
	x.tuple, x.rels = scr.tupleBuf[:k], scr.relsBuf[:k]
	scr.fails = slices.Grow(scr.fails[:0], len(parentPatterns))[:len(parentPatterns)]
	clear(scr.fails)
	x.fails = scr.fails

	// With transitivity pruning, read the L2 relation table once per
	// parent role: before[pi*(k-1)+i] has bit r set when (role i's event,
	// r, e) is a frequent 2-event pattern of L2 — the triple of a role
	// preceding the new instance — and after[pi*(k-1)+i] when (e, r,
	// role i's event) is. A role's event is the same in every occurrence
	// of its pattern.
	var before, after []uint8
	if x.trans {
		n := len(parentPatterns) * (k - 1)
		if cap(scr.masks) < 2*n {
			scr.masks = make([]uint8, 2*n)
		}
		before, after = scr.masks[:n], scr.masks[n:2*n]
		for pi, pd := range parentPatterns {
			for i, a := range pd.Pattern.Events {
				before[pi*(k-1)+i] = m.l2rel(a, e)
				after[pi*(k-1)+i] = m.l2rel(e, a)
			}
		}
	}

	// The insert-position cut. The masks allow an instance of e into a
	// parent pattern's occurrences only at the insert positions
	// insertRange returns; an instance anywhere else fails a triple check.
	// When that check is the only way try can reject it — no dedup probe,
	// no t_max check, and Classify never returns None — the instance is
	// counted as failed here and try is not called, so every counter
	// stays exact.
	cut := x.trans && !x.dup && m.cfg.TMax == 0 && m.rel.AlwaysRelates()

	memo := m.recordLk && k == 3 && !x.keepOccs && !x.dup
	if memo {
		scr.lkKeys = scr.lkKeys[:0]
		for pi, pd := range parentPatterns {
			memo = memo && pd.Occs != nil
			var b, a []uint8
			if x.trans {
				b, a = before[2*pi:2*pi+2], after[2*pi:2*pi+2]
			}
			scr.lkKeys = append(scr.lkKeys, lkKeyOf(pd.Pattern, e, b, a, cut))
		}
		if memo && m.lk.lookup(scr.lkKeys, &scr.lk) {
			return m.replayExt(parentPatterns, e, maxSupp, scr, ls)
		}
	}

	// One monotone run cursor per parent pattern: the sequence sweep below
	// ascends, so each columnar store is walked front to back exactly once.
	if cap(scr.cursors) < len(parentPatterns) {
		scr.cursors = make([]int, len(parentPatterns))
	}
	cursors := scr.cursors[:len(parentPatterns)]
	for i := range cursors {
		cursors[i] = 0
	}

	scr.idxBuf = parent.Bitmap.AppendAndIndices(m.eventBm[e], scr.idxBuf[:0])
	for _, s32 := range scr.idxBuf {
		if m.cancelled() {
			break
		}
		seq := m.db.Sequences[s32]
		eIdxs := seq.InstancesOf(e)
		if len(eIdxs) == 0 {
			continue
		}
		// Dedup occurrences across parent patterns: with duplicate events
		// the same child tuple can be reached from two parent occurrences.
		if x.dup {
			scr.seen.reset(k)
		}
		for pi, pd := range parentPatterns {
			st := pd.Occs
			if st == nil {
				continue
			}
			x.parent, x.parentIdx = pd.Pattern, int32(pi)
			if x.trans {
				x.before, x.after = before[pi*(k-1):(pi+1)*(k-1)], after[pi*(k-1):(pi+1)*(k-1)]
			}
			lo, hi := st.SeekRun(&cursors[pi], s32)
			if lo == hi {
				continue
			}
			var posLo, posHi int32
			if cut {
				if posLo, posHi = insertRange(x.before, x.after); posLo > posHi {
					x.fails[pi] += int(hi-lo) * len(eIdxs)
					continue
				}
			}
			for oi := lo; oi < hi; oi++ {
				occ := st.Occ(oi)
				in := eIdxs
				if cut {
					in = insertable(eIdxs, occ, posLo, posHi)
					x.fails[pi] += len(eIdxs) - len(in)
				}
				for _, ie := range in {
					if x.dup && hpg.Occurrence(occ).Contains(ie) {
						continue
					}
					x.try(seq, s32, occ, ie)
				}
			}
		}
	}
	for _, f := range x.fails {
		ls.TripleChecksFailed += f
	}

	// Order the pending table by typed composite key — the single sort of
	// the flush path — and hand it to the shared threshold flush.
	scr.flushBuf = scr.ext.ordered(scr.flushBuf)
	if memo {
		m.recordExt(scr)
	}
	return m.flush(scr.flushBuf, maxSupp, scr)
}

// replayExt fills the node's pending table from the L_k memo entries
// found for every parent pattern — the composites the sweep would have
// left, in extKey order — and flushes it as the sweep's table is flushed,
// counting each entry's failed triple checks.
func (m *miner) replayExt(parents []*hpg.PatternData, e events.EventID, maxSupp int, scr *scratch, ls *LevelStats) []*pendingPattern {
	h := &scr.lk
	n := 0
	for _, v := range h.vals {
		n += int(v.n)
		ls.TripleChecksFailed += int(v.failed)
	}
	ls.MemoHits += len(parents)
	words := bitmapWords(m.n)
	ep := &scr.ext
	ep.pats = slices.Grow(ep.pats[:0], n)[:n]
	samples := make([]int32, 3*n)
	rels := scr.relsBuf[:3]
	i := 0
	for pi, pd := range parents {
		v := h.vals[pi]
		for c := int(v.off); c < int(v.off+v.n); c++ {
			lc := &h.comps[c]
			// Unpack the relations by parent role into child roles.
			for r := 0; r < 2; r++ {
				j := r
				if r >= int(lc.pos) {
					j++
				}
				rels[j] = temporal.Relation(lc.rels >> (2 * r) & 3)
			}
			bm := scr.getBitmap(m.n)
			copy(bm.Words(), h.bits[c*words:(c+1)*words])
			occ := samples[3*i : 3*i+3 : 3*i+3]
			copy(occ, lc.occ[:])
			ep.pats[i] = pendingPattern{pat: splice(pd.Pattern, int(lc.pos), e, rels), bm: bm,
				sampleSeq: int(lc.seq), sampleOcc: occ}
			i++
		}
	}
	buf := scr.flushBuf[:0]
	for i := range ep.pats {
		buf = append(buf, &ep.pats[i])
	}
	scr.flushBuf = buf
	return m.flush(buf, maxSupp, scr)
}

// recordExt adds to m.lkFresh the L_k memo entries of the parent patterns
// the lookup missed, read from the swept pending table before the flush
// merges it: scr.ext.keys in extKey order, parallel to scr.flushBuf. A
// pattern whose failure count overflows an entry gets none.
func (m *miner) recordExt(scr *scratch) {
	h, keys := &scr.lk, scr.ext.keys
	m.lkFreshMu.Lock()
	defer m.lkFreshMu.Unlock()
	f := &m.lkFresh
	j := 0
	for pi, hit := range h.hit {
		rec, off := !hit && scr.fails[pi] <= math.MaxUint32, len(f.comps)
		for ; j < len(keys) && keys[j].parent == int32(pi); j++ {
			if !rec {
				continue
			}
			pp := scr.flushBuf[j]
			c := lkComp{seq: int32(pp.sampleSeq), pos: uint8(keys[j].pos), rels: uint8(keys[j].rels)}
			copy(c.occ[:], pp.sampleOcc)
			f.comps = append(f.comps, c)
			f.bits = append(f.bits, pp.bm.Words()...)
		}
		if rec {
			f.keys = append(f.keys, scr.lkKeys[pi])
			f.vals = append(f.vals, lkVal{off: uint32(off), n: uint32(len(f.comps) - off), failed: uint32(scr.fails[pi])})
		}
	}
}

// bitmapWords is the number of words of an n-sequence bitmap.
func bitmapWords(n int) int { return (n + 63) / 64 }

// insertRange returns the insert positions [lo, hi] that one parent
// pattern's per-role masks allow (lo > hi when none). Role i precedes the
// new instance when i < pos, and its triple then needs a relation bit in
// before[i]; otherwise it needs one in after[i]. So lo is one past the last
// role with no after relation, and hi is the first role with no before
// relation (len(before) when every role has one).
func insertRange(before, after []uint8) (lo, hi int32) {
	hi = int32(len(before))
	for i := len(after) - 1; i >= 0; i-- {
		if after[i]&^l2Green == 0 {
			lo = int32(i + 1)
			break
		}
	}
	for i, mask := range before {
		if mask&^l2Green == 0 {
			hi = int32(i)
			break
		}
	}
	return lo, hi
}

// insertable narrows eIdxs, a sequence's instances of the new event in
// chronological order, to those that insert into occ at a position in
// [lo, hi]: the instances after role lo-1 and before role hi. No instance
// of occ is one of eIdxs (the new event is not in the parent), so each
// bound is the first index at or past the role's instance.
func insertable(eIdxs, occ []int32, lo, hi int32) []int32 {
	if lo > 0 {
		i, _ := slices.BinarySearch(eIdxs, occ[lo-1])
		eIdxs = eIdxs[i:]
	}
	if int(hi) < len(occ) {
		j, _ := slices.BinarySearch(eIdxs, occ[hi])
		eIdxs = eIdxs[:j]
	}
	return eIdxs
}

// extension is the state of one extendNode sweep. It lives on extendNode's
// stack, so the per-occurrence work in try stores nothing to the heap.
type extension struct {
	m        *miner
	scr      *scratch
	fails    []int // per parent pattern, its failed triple checks
	dup      bool  // the inserted event already occurs in the parent
	trans    bool  // verify the new triples against L2
	keepOccs bool

	tuple []int32             // the extended occurrence tuple (k roles)
	rels  []temporal.Relation // rels[j]: the new instance's relation to child role j

	// The current parent pattern, its index in the parent's pattern
	// order, and its per-role L2 masks (nil without transitivity
	// pruning, which alone reads them).
	parent        pattern.Pattern
	parentIdx     int32
	before, after []uint8
}

// try inserts instance ie into the parent occurrence occ, classifies the
// new triples, and records the occurrence under its typed extension
// composite key (parent pattern index, insert position, new event, packed
// new relations). The checks run in the same order whatever the outcome,
// so TripleChecksFailed counts exactly the extensions whose first failing
// check is a triple's; extendNode counts each instance its insert-position
// cut skips the same way, as a call here would have. The extended tuple is
// only materialized once the checks pass, unless the dedup probe needs it
// first. The child pattern is spliced only when the composite is seen for
// the first time; composites that canonicalize to the same pattern are
// merged in flush.
func (x *extension) try(seq *events.Sequence, seqIdx int32, occ []int32, ie int32) {
	// Instance order in a sequence equals chronological order, so the
	// insert position is found by index comparison.
	pos := len(occ)
	for i, idx := range occ {
		if ie < idx {
			pos = i
			break
		}
	}
	tb := x.tuple
	if x.dup {
		// The dedup probe runs first, on the materialized tuple.
		buildTuple(tb, occ, pos, ie)
		if !x.scr.seen.insert(tb) {
			return
		}
	}

	newIns := seq.Instances[ie]
	// Monotone t_max span check (see spanOK).
	if tmax := x.m.cfg.TMax; tmax > 0 {
		firstStart := newIns.Start
		if pos > 0 {
			firstStart = seq.Instances[occ[0]].Start
		}
		maxEnd := newIns.End
		for _, idx := range occ {
			maxEnd = max(maxEnd, seq.Instances[idx].End)
		}
		if maxEnd-firstStart > tmax {
			return
		}
	}

	// Classify the k-1 new triples between ie and every parent role i
	// (child role j), packing the relations into the composite key as
	// they are accepted.
	rc := x.m.rel
	rels := x.rels
	var packed uint64
	var overflow []byte // engages only beyond maxPackedRoles (k > 33)
	for i, idx := range occ {
		other := &seq.Instances[idx]
		j, rel := i, temporal.None
		if i < pos {
			rel = rc.Classify(other.Interval, newIns.Interval)
		} else {
			j, rel = i+1, rc.Classify(newIns.Interval, other.Interval)
		}
		if rel == temporal.None {
			return
		}
		// Iterative verification (Lemmas 4, 6, 7): the new triple must
		// itself be a frequent, confident 2-event pattern in L2.
		if x.trans {
			mask := x.after[i]
			if i < pos {
				mask = x.before[i]
			}
			if mask&(1<<rel) == 0 {
				x.fails[x.parentIdx]++
				return
			}
		}
		rels[j] = rel
		if i < maxPackedRoles {
			packed |= uint64(rel) << (2 * i)
		} else {
			overflow = append(overflow, byte(rel))
		}
	}
	if !x.dup {
		buildTuple(tb, occ, pos, ie)
	}

	scr := x.scr
	key := extKey{parent: x.parentIdx, pos: int32(pos), event: newIns.Event, rels: packed}
	if overflow != nil {
		key.relsOv = string(overflow)
	}
	pp, created := scr.ext.get(key)
	if created {
		pp.pat = splice(x.parent, pos, newIns.Event, rels)
		pp.bm = scr.getBitmap(x.m.n)
		if x.keepOccs {
			pp.occs = scr.getStore(len(tb))
		}
	}
	pp.record(int(seqIdx), tb)
}

// buildTuple writes the extended tuple — occ with ie inserted at role
// pos — into tb (len(occ)+1 roles).
func buildTuple(tb, occ []int32, pos int, ie int32) {
	copy(tb, occ[:pos])
	tb[pos] = ie
	copy(tb[pos+1:], occ[pos:])
}

// splice builds the (k)-event pattern obtained by inserting newEvent at
// chronological role pos into parent (a (k-1)-event pattern), with
// newRels[j] the relation between the inserted role and role j of the new
// pattern (j != pos).
func splice(parent pattern.Pattern, pos int, newEvent events.EventID, newRels []temporal.Relation) pattern.Pattern {
	k := parent.K() + 1
	evs := make([]events.EventID, 0, k)
	evs = append(evs, parent.Events[:pos]...)
	evs = append(evs, newEvent)
	evs = append(evs, parent.Events[pos:]...)

	rels := make([]temporal.Relation, pattern.TriLen(k))
	// Copy parent relations with shifted roles.
	for i := 0; i < parent.K(); i++ {
		ni := i
		if i >= pos {
			ni = i + 1
		}
		for j := i + 1; j < parent.K(); j++ {
			nj := j
			if j >= pos {
				nj = j + 1
			}
			rels[pattern.TriIndex(ni, nj, k)] = parent.Relation(i, j)
		}
	}
	// Insert the new triples.
	for j := 0; j < k; j++ {
		if j == pos {
			continue
		}
		if j < pos {
			rels[pattern.TriIndex(j, pos, k)] = newRels[j]
		} else {
			rels[pattern.TriIndex(pos, j, k)] = newRels[j]
		}
	}
	return pattern.New(evs, rels)
}

// buildResult assembles the deterministic result listing. Level 1 holds
// its nodes in event-id order; each deeper level's patterns are sorted
// once, by pointer, and the levels follow each other by size.
func (m *miner) buildResult() *Result {
	res := &Result{Stats: m.stats}
	if l1 := m.graph.Level(1); l1 != nil {
		for _, n := range l1.Nodes() {
			res.Singles = append(res.Singles, EventInfo{
				Event:      n.Events[0],
				Support:    n.Support,
				RelSupport: float64(n.Support) / float64(m.n),
				Bitmap:     n.Bitmap,
			})
		}
	}
	res.Patterns = make([]PatternInfo, 0, m.stats.TotalPatterns())
	pds := make([]*hpg.PatternData, 0, cap(res.Patterns))
	for k := 2; k <= m.graph.Height(); k++ {
		pds = pds[:0]
		for _, node := range m.graph.Level(k).Nodes() {
			pds = append(pds, node.Patterns()...)
		}
		slices.SortFunc(pds, func(a, b *hpg.PatternData) int { return pattern.Compare(a.Pattern, b.Pattern) })
		for _, pd := range pds {
			res.Patterns = append(res.Patterns, PatternInfo{
				Pattern:    pd.Pattern,
				Support:    pd.Support,
				RelSupport: float64(pd.Support) / float64(m.n),
				Confidence: pd.Confidence,
				SampleSeq:  pd.SampleSeq,
				Sample:     pd.SampleOcc,
			})
		}
	}
	if m.cfg.KeepGraph {
		res.Graph = m.graph
	} else if h := m.graph.Height(); h >= 2 {
		for _, n := range m.graph.Level(h).Nodes() {
			n.DropOccurrences()
		}
	}
	return res
}

// workers returns the effective parallelism of the current level.
func (m *miner) workers() int {
	if m.curWorkers <= 1 {
		return 1
	}
	return m.curWorkers
}

// renegotiateWorkers consults Config.WorkersFunc at the boundary before
// level k. The returned grant applies to the whole level; a negative
// return (or a nil func) keeps the current one.
func (m *miner) renegotiateWorkers(k int) {
	if m.cfg.WorkersFunc == nil {
		return
	}
	if w := m.cfg.WorkersFunc(k); w >= 0 {
		m.curWorkers = w
	}
}
