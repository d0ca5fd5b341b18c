package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ftpm/internal/events"
	"ftpm/internal/hpg"
)

// This file implements the mining entry points over a ShardedView.
// Shards partition ingestion, not mining: events.ConvertShards cuts window
// i of the split into shard i%K concurrently, and PrepareShards merges the
// shards back into one global-order database (events.MergeShards). Every
// run then mines that merged view once — one L1 index, one levelwise
// drain — so a K-way sharded run performs the same computation as a
// one-shard run and its results are byte-identical for every K.

// ShardedView is the prepared state of a mining run: the shards and their
// merged (global-order) database. Building it — validation and the
// round-robin merge — is O(sequences) work that depends only on the shard
// set, so one view can back any number of MineShardedView runs over the
// same data (the prepared-dataset engine caches it per window geometry).
type ShardedView struct {
	// Shards is the validated shard set the view was built from.
	Shards []*events.DB
	// Merged is the global-order reconstruction of the shards; sample
	// occurrences of mined patterns reference its sequence indexes.
	Merged *events.DB

	// l1 is the memoized L1 occurrence index: per event, the ascending
	// global indexes of the sequences containing it. The first run over
	// the view installs it (offerL1); later runs — and delta views
	// derived from this one (PrepareShardsDelta) — rebuild the L1
	// bitmaps from it instead of re-walking every sequence. The map and
	// its lists are immutable once published.
	l1mu  sync.Mutex
	l1    map[events.EventID][]int32
	l1set atomic.Bool
}

// l1Peek returns the memoized L1 index, if a completed scan has been
// installed. The returned map must not be mutated.
func (v *ShardedView) l1Peek() (map[events.EventID][]int32, bool) {
	if !v.l1set.Load() {
		return nil, false
	}
	return v.l1, true
}

// offerL1 installs a completed L1 scan; only the first offer wins.
func (v *ShardedView) offerL1(lists map[events.EventID][]int32) {
	v.l1mu.Lock()
	defer v.l1mu.Unlock()
	if v.l1 == nil {
		v.l1 = lists
		v.l1set.Store(true)
	}
}

// scanL1Lists returns the L1 index of db: into's lists (the index of the
// sequences below from, or nil) extended, for every sequence at global
// index >= from, by that index in each contained event's list. Scanning
// in index order keeps the lists ascending. A counting pass sizes every
// list up front and carves them all from one backing array, so the scan
// allocates per sequence only what Sequence.Events does; into's lists are
// copied, never grown.
func scanL1Lists(db *events.DB, from int, into map[events.EventID][]int32) map[events.EventID][]int32 {
	lens := make([]int, db.Vocab.Size())
	for id := range lens {
		lens[id] = len(into[events.EventID(id)])
	}
	tail := make([][]events.EventID, db.Size()-from)
	for i := range tail {
		tail[i] = db.Sequences[from+i].Events()
		for _, e := range tail[i] {
			lens[e]++
		}
	}
	total := 0
	for _, n := range lens {
		total += n
	}
	flat := make([]int32, total)
	lists := make([][]int32, len(lens))
	for id, n := range lens {
		lists[id] = append(flat[:0:n], into[events.EventID(id)]...)
		flat = flat[n:]
	}
	for i, evs := range tail {
		for _, e := range evs {
			lists[e] = append(lists[e], int32(from+i))
		}
	}
	out := make(map[events.EventID][]int32, len(lists))
	for id, l := range lists {
		if len(l) > 0 {
			out[events.EventID(id)] = l
		}
	}
	return out
}

// SeqCounts returns the per-shard sequence counts.
func (v *ShardedView) SeqCounts() []int {
	out := make([]int, len(v.Shards))
	for i, sh := range v.Shards {
		out[i] = sh.Size()
	}
	return out
}

// PrepareShards validates a shard set and builds its ShardedView. The
// shards must share one vocabulary (events.ConvertShards and
// events.ShardRoundRobin guarantee this) and carry positional sequence
// ids; empty shards are allowed.
func PrepareShards(shards []*events.DB) (*ShardedView, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: no shards")
	}
	for s, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("core: shard %d is nil", s)
		}
		for i, seq := range sh.Sequences {
			if seq.ID != i {
				return nil, fmt.Errorf("core: shard %d sequence %d carries id %d; ids must be positional", s, i, seq.ID)
			}
		}
	}
	// A single shard with positional ids is already in global order.
	merged := shards[0]
	if len(shards) > 1 {
		var err error
		if merged, _, err = events.MergeShards(shards); err != nil {
			return nil, err
		}
	}
	if merged.Size() == 0 {
		return nil, fmt.Errorf("core: empty sequence database")
	}
	return &ShardedView{Shards: shards, Merged: merged}, nil
}

// PrepareShardsDelta builds the ShardedView of a shard set that extends a
// previous one: the first stable global sequences (window order == merged
// order under the round-robin discipline) are shared by pointer with prev,
// everything after them is new or re-cut. When prev carries a completed L1
// index, the new view starts with that index patched instead of cold: the
// per-event lists are truncated to entries below stable (into fresh
// storage; prev's lists stay intact) and only the tail sequences are
// rescanned, so the next mine's L1 pass re-verifies just the sequences the
// append touched. Without a usable prev index the view is simply cold and the
// next mine scans — and memoizes — from scratch. Either way the resulting
// supports are byte-identical to a full PrepareShards + scan.
func PrepareShardsDelta(prev *ShardedView, shards []*events.DB, stable int) (*ShardedView, error) {
	v, err := PrepareShards(shards)
	if err != nil {
		return nil, err
	}
	if prev == nil || stable <= 0 || stable > v.Merged.Size() {
		return v, nil
	}
	pl, ok := prev.l1Peek()
	if !ok {
		return v, nil
	}
	lists := make(map[events.EventID][]int32, len(pl))
	for e, idx := range pl {
		cut := sort.Search(len(idx), func(i int) bool { return idx[i] >= int32(stable) })
		if cut == 0 {
			continue
		}
		lists[e] = idx[:cut] // scanL1Lists copies it
	}
	v.l1 = scanL1Lists(v.Merged, stable, lists)
	v.l1set.Store(true)
	return v, nil
}

// MineSharded runs HTPGM over a sharded temporal sequence database,
// returning the result — byte-identical to Mine over the merged database
// — together with the merged database itself. It prepares the shard view
// on every call; callers mining the same shard set repeatedly should
// PrepareShards once and use MineShardedView.
//
// Cancellation behaves exactly like Mine: workers stop between
// verification units and MineSharded returns ctx.Err().
func MineSharded(ctx context.Context, shards []*events.DB, cfg Config) (*Result, *events.DB, error) {
	// Validate before preparing: the merge walks every sequence, which a
	// bad config should not pay for.
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	v, err := PrepareShards(shards)
	if err != nil {
		return nil, nil, err
	}
	res, err := MineShardedView(ctx, v, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, v.Merged, nil
}

// MineShardedView runs HTPGM over a prepared view: the miner every entry
// point goes through. It mines v.Merged; the shard set only shapes the
// Shards/ShardSequences stats. The view is read-only during the run apart
// from the install-once L1 memo, so concurrent runs may share one view.
func MineShardedView(ctx context.Context, v *ShardedView, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	m := &miner{
		db:      v.Merged,
		view:    v,
		cfg:     cfg,
		rel:     cfg.relations(),
		n:       v.Merged.Size(),
		minSupp: cfg.AbsoluteSupport(v.Merged.Size()),
		graph:   &hpg.Graph{},
		done:    ctx.Done(),
	}
	m.stats.Sequences = m.n
	m.stats.AbsoluteSupport = m.minSupp
	m.stats.Shards = len(v.Shards)
	m.stats.ShardSequences = v.SeqCounts()

	return m.mineAll(ctx)
}

// singleLists returns the view's L1 index: the installed memo, or else
// one serial scan over the merged sequences, offered as the memo for the
// runs that follow. A concurrent run may install an equal index first;
// the scans are deterministic, so either serves.
func (v *ShardedView) singleLists() map[events.EventID][]int32 {
	if lists, ok := v.l1Peek(); ok {
		return lists
	}
	lists := scanL1Lists(v.Merged, 0, nil)
	v.offerL1(lists)
	return lists
}
