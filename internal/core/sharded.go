package core

import (
	"context"
	"fmt"
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
// The view also carries the memo those runs leave behind (memo.go): the
// L1 index, and the L2 relation supports and occurrences and the L_k memo
// of the level-3 extensions of the last verification key.
type ShardedView struct {
	// Shards is the validated shard set the view was built from.
	Shards []*events.DB
	// Merged is the global-order reconstruction of the shards; sample
	// occurrences of mined patterns reference its sequence indexes.
	Merged *events.DB

	// memo is the current immutable memo state. Runs read it lock-free;
	// writers, serialized by memoMu, publish copy-on-write successors
	// (updateMemo). The L_k memo it points to is the exception: it only
	// grows, in place under its own lock. Delta views derived from this
	// one start from the memo's L1 and L2 parts (PrepareShardsDelta).
	memoMu sync.Mutex
	memo   atomic.Pointer[viewMemo]
}

// updateMemo publishes the successor fn derives from the current memo.
// fn must not write the state it is given.
func (v *ShardedView) updateMemo(fn func(cur viewMemo) viewMemo) {
	v.memoMu.Lock()
	defer v.memoMu.Unlock()
	var cur viewMemo
	if p := v.memo.Load(); p != nil {
		cur = *p
	}
	next := fn(cur)
	v.memo.Store(&next)
}

// l1Peek returns the memoized L1 index, if a completed scan has been
// installed. The returned lists must not be mutated.
func (v *ShardedView) l1Peek() (*vbits, bool) {
	if p := v.memo.Load(); p != nil && p.l1 != nil {
		return p.l1, true
	}
	return nil, false
}

// offerL1 installs a completed L1 scan; only the first offer wins.
func (v *ShardedView) offerL1(lists *vbits) {
	v.updateMemo(func(cur viewMemo) viewMemo {
		if cur.l1 == nil {
			cur.l1 = lists
		}
		return cur
	})
}

// pairMemo returns the view's L2 memo for key, or nil.
func (v *ShardedView) pairMemo(key memoKey) *pairMemo {
	if p := v.memo.Load(); p != nil && p.pairs != nil && p.pairs.key == key {
		return p.pairs
	}
	return nil
}

// publishPairs merges fresh — pair entries one run verified over all n
// sequences of the view, against snap, the L2 memo of key it loaded — into
// the view's current memo of key. When another key's memo has replaced
// snap since, the successor builds on snap and replaces that one in turn.
func (v *ShardedView) publishPairs(key memoKey, snap *pairMemo, n int32, fresh []*pairEntry) {
	v.updateMemo(func(cur viewMemo) viewMemo {
		base := cur.pairs
		if base == nil || base.key != key {
			base = snap
		}
		cur.pairs = base.merged(key, n, fresh)
		return cur
	})
}

// lkMemo returns the view's L_k memo for key, or nil.
func (v *ShardedView) lkMemo(key memoKey) *lkMemo {
	if p := v.memo.Load(); p != nil && p.lk != nil && p.lk.key == key {
		return p.lk
	}
	return nil
}

// publishLk adds the fresh entries of one run to the view's L_k memo of
// key, replacing another key's memo with a new one. words is the view's
// bitmap width in words.
func (v *ShardedView) publishLk(key memoKey, words int, fresh *lkFresh) {
	v.updateMemo(func(cur viewMemo) viewMemo {
		if cur.lk == nil || cur.lk.key != key {
			cur.lk = &lkMemo{key: key, words: words}
		}
		cur.lk.add(fresh)
		return cur
	})
}

// MemoBytes reports the heap footprint of the view's memo: the L1 index,
// the L2 memo with the occurrence stores it holds, and the L_k memo.
// Lists a delta view shares with its parent count for both.
func (v *ShardedView) MemoBytes() int64 {
	if p := v.memo.Load(); p != nil {
		return p.bytes()
	}
	return 0
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
// everything after them is new or re-cut. The new view starts from prev's
// memo instead of cold, cut to what the shared prefix still vouches for:
// the L1 lists are truncated below stable and the tail sequences
// rescanned, and every L2 relation-support list is truncated below stable
// with its coverage capped there and its occurrences dropped, so the next
// mine verifies only the sequences the append touched. The L_k memo does
// not carry over: its entries derive from the dropped occurrences, so the
// new view starts with none. prev's memo stays intact for its own runs.
// Without a memo on prev the view is simply cold and the next mine scans
// — and memoizes — from scratch. Either way the mined results are
// byte-identical to a full PrepareShards.
func PrepareShardsDelta(prev *ShardedView, shards []*events.DB, stable int) (*ShardedView, error) {
	v, err := PrepareShards(shards)
	if err != nil {
		return nil, err
	}
	if prev == nil || stable <= 0 || stable > v.Merged.Size() {
		return v, nil
	}
	pm := prev.memo.Load()
	if pm == nil {
		return v, nil
	}
	var next viewMemo
	if pm.l1 != nil {
		next.l1 = patchL1(pm.l1, v.Merged, stable)
	}
	if pm.pairs != nil {
		next.pairs = pm.pairs.truncated(int32(stable))
	}
	v.memo.Store(&next)
	return v, nil
}

// MineShardedView runs HTPGM over a prepared view: the miner every entry
// point goes through. It mines v.Merged; the shard set only shapes the
// Shards/ShardSequences stats. The run reads the view's memo and
// publishes what it adds — the L1 index once and, unless it was
// cancelled, the L2 relation supports and kept occurrences of the pairs
// it verified and the level-3 extensions it swept — and otherwise leaves
// the view alone, so concurrent runs may share one view. Results never
// depend on the memo's state.
func MineShardedView(ctx context.Context, v *ShardedView, cfg Config) (*Result, error) {
	return mineView(ctx, v, cfg, true)
}

// mineView is MineShardedView; recordLk is false for a view no later run
// reads (Mine's), whose level 3 then records no L_k memo entries.
func mineView(ctx context.Context, v *ShardedView, cfg Config, recordLk bool) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	m := &miner{
		db:       v.Merged,
		view:     v,
		cfg:      cfg,
		rel:      cfg.relations(),
		n:        v.Merged.Size(),
		minSupp:  cfg.AbsoluteSupport(v.Merged.Size()),
		graph:    &hpg.Graph{},
		done:     ctx.Done(),
		recordLk: recordLk,
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
func (v *ShardedView) singleLists() *vbits {
	if lists, ok := v.l1Peek(); ok {
		return lists
	}
	lists := scanL1(v.Merged, 0)
	v.offerL1(&lists)
	return &lists
}
