package events

import (
	"fmt"

	"ftpm/internal/timeseries"
)

// This file implements the sharded view of the temporal sequence database:
// a dataset partitioned round-robin over its sequences into K independent
// shards, following the data-partitioning approach of the distributed
// HTPGM variant. Sequences are the unit of work everywhere in the miner
// (supports are per-sequence bits), so a partition by sequence keeps
// per-shard event lists independent until merge.
//
// The invariant connecting the three entry points: global sequence i lives
// in shard i%K at local position i/K. ShardRoundRobin establishes it,
// ConvertShards produces shards that already satisfy it, and MergeShards
// inverts it — merging shards of sizes differing by at most one
// reconstructs the exact global sequence order, so mining a sharded
// database yields byte-identical results to mining the unsharded one.

// ShardRoundRobin partitions the database into k shards by round-robin
// over sequences. Shards share the vocabulary; sequences are shallow
// copies re-indexed with positional local ids (the miner requires
// positional ids). k may exceed the sequence count, in which case the
// trailing shards are empty.
func (db *DB) ShardRoundRobin(k int) ([]*DB, error) {
	if k <= 0 {
		return nil, fmt.Errorf("events: shard count must be positive, got %d", k)
	}
	shards := make([]*DB, k)
	for s := range shards {
		shards[s] = &DB{Vocab: db.Vocab}
	}
	for i, seq := range db.Sequences {
		sh := shards[i%k]
		cp := *seq
		cp.ID = len(sh.Sequences)
		sh.Sequences = append(sh.Sequences, &cp)
	}
	return shards, nil
}

// MergeShards reassembles sharded databases into one global database by
// round-robin interleave: round r takes the r-th sequence of every
// non-exhausted shard, in shard order. It returns the merged database and,
// per shard, the global index of each local sequence. All shards must
// share one vocabulary instance; empty shards are allowed. Sequences are
// shallow copies re-indexed positionally — instance data is shared with
// the shards, never duplicated.
func MergeShards(shards []*DB) (*DB, [][]int, error) {
	if len(shards) == 0 {
		return nil, nil, fmt.Errorf("events: no shards to merge")
	}
	var vocab *Vocab
	maxLen := 0
	for _, sh := range shards {
		if sh == nil {
			return nil, nil, fmt.Errorf("events: nil shard")
		}
		if vocab == nil {
			vocab = sh.Vocab
		} else if sh.Vocab != vocab {
			return nil, nil, fmt.Errorf("events: shards must share one vocabulary")
		}
		if len(sh.Sequences) > maxLen {
			maxLen = len(sh.Sequences)
		}
	}
	if vocab == nil {
		return nil, nil, fmt.Errorf("events: shards carry no vocabulary")
	}
	out := &DB{Vocab: vocab}
	globalIdx := make([][]int, len(shards))
	for s, sh := range shards {
		globalIdx[s] = make([]int, len(sh.Sequences))
	}
	for r := 0; r < maxLen; r++ {
		for s, sh := range shards {
			if r >= len(sh.Sequences) {
				continue
			}
			cp := *sh.Sequences[r]
			cp.ID = len(out.Sequences)
			globalIdx[s][r] = cp.ID
			out.Sequences = append(out.Sequences, &cp)
		}
	}
	return out, globalIdx, nil
}

// ConvertShards converts a symbolic database into K round-robin shards of
// the temporal sequence database: window i of the split goes to shard i%K.
// The symbol runs are extracted once (one shared vocabulary); the window
// cutting — the expensive part: clipping every run against every window
// and sorting the resulting instances — runs concurrently, one goroutine
// per shard. ConvertShards(db, opt, 1) is equivalent to Convert(db, opt),
// and MergeShards applied to the result reconstructs Convert's sequence
// order exactly. It is the delta conversion (convertDelta) with no
// previous conversion to reuse.
func ConvertShards(src timeseries.SymbolSource, opt SplitOptions, k int) ([]*DB, error) {
	shards, _, err := convertDelta(src, opt, k, nil, 0, nil, 0)
	return shards, err
}
