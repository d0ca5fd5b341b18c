// Package hpg implements the Hierarchical Pattern Graph (paper §IV-C,
// Fig 4): the level structure HTPGM mines into. Level L_k holds one node
// per frequent k-event combination; each node carries the joint bitmap of
// its events and the frequent temporal patterns found for the combination,
// including the per-sequence occurrence tuples that the next level
// extends.
//
// Occurrences are stored columnar (OccStore): one flat []int32 role arena
// per pattern with CSR-style per-sequence runs, appended in ascending
// sequence order and walked by monotone cursors during extension — no
// per-sequence map entries, no per-occurrence slice headers. MergeOccsInto
// combines stores with the exact append semantics the miner's flush relies
// on, for both composite canonicalization and disjoint per-shard partials.
//
// The graph doubles as the miner's working memory: level k-1 occurrence
// stores are dropped as soon as level k has extended them (unless the
// caller asked to keep the full graph), which bounds peak memory to two
// adjacent levels. A node keeps its patterns in one slice, in
// pattern.Compare order, as the miner's flush appends them; a level keeps
// its nodes in the order the miner adds them. Neither needs a map or a
// sort of its own, and parallel mining runs produce byte-identical
// results.
package hpg
