package hpg

import "fmt"

// OccStore is the columnar occurrence storage of one pattern: every
// occurrence tuple is k int32 instance indexes laid out back to back in one
// flat role arena, grouped into per-sequence runs CSR-style. Compared to
// the former map[int][]Occurrence it needs no per-sequence map entries and
// no per-occurrence slice headers — appending an occurrence is a bulk copy
// into the arena, and iterating a sequence's occurrences is a contiguous
// scan. Sequences appear in ascending order, which both the miner's
// bitmap-driven verification sweep and the sharded merge guarantee.
//
// The zero value is an empty store; Reset prepares it for (re)use at a
// given k, retaining the underlying arrays so pooled stores append without
// allocating.
type OccStore struct {
	k     int
	roles []int32 // len = k * NumOccs(); occurrence tuples back to back
	seqs  []int32 // ascending distinct sequence indexes, one per run
	offs  []int32 // len(seqs)+1 run boundaries, in occurrence units
}

// Reset empties the store and sets the tuple width, keeping capacity.
func (st *OccStore) Reset(k int) {
	if k <= 0 {
		panic(fmt.Sprintf("hpg: occurrence width %d", k))
	}
	st.k = k
	st.roles = st.roles[:0]
	st.seqs = st.seqs[:0]
	st.offs = st.offs[:0]
}

// K returns the tuple width (events per occurrence).
func (st *OccStore) K() int { return st.k }

// NumOccs returns the total number of stored occurrence tuples.
func (st *OccStore) NumOccs() int {
	if st.k == 0 {
		return 0
	}
	return len(st.roles) / st.k
}

// Bytes returns the heap footprint of the store's arrays.
func (st *OccStore) Bytes() int64 { return 4 * int64(cap(st.roles)+cap(st.seqs)+cap(st.offs)) }

// NumSeqs returns the number of distinct sequences holding occurrences.
func (st *OccStore) NumSeqs() int { return len(st.seqs) }

// SeqAt returns the sequence index of run r (runs are ascending).
func (st *OccStore) SeqAt(r int) int32 { return st.seqs[r] }

// Run returns the occurrence index range [lo, hi) of run r.
func (st *OccStore) Run(r int) (lo, hi int32) { return st.offs[r], st.offs[r+1] }

// Occ returns the i-th occurrence tuple as a subslice of the role arena —
// no copy; the caller must not retain it across appends.
func (st *OccStore) Occ(i int32) []int32 {
	k := int32(st.k)
	return st.roles[i*k : (i+1)*k : (i+1)*k]
}

// Append files one occurrence under seq. Sequences must arrive in
// non-decreasing order — the verification sweep walks the sequence bitmap
// ascending, and per-shard partials are ascending within their shard.
func (st *OccStore) Append(seq int32, occ []int32) {
	if len(occ) != st.k {
		panic(fmt.Sprintf("hpg: occurrence width %d, store width %d", len(occ), st.k))
	}
	n := len(st.seqs)
	if n == 0 {
		st.offs = append(st.offs[:0], 0, 0)
		st.seqs = append(st.seqs, seq)
	} else if last := st.seqs[n-1]; last != seq {
		if seq < last {
			panic(fmt.Sprintf("hpg: out-of-order append: seq %d after %d", seq, last))
		}
		st.seqs = append(st.seqs, seq)
		st.offs = append(st.offs, st.offs[len(st.offs)-1])
	}
	st.roles = append(st.roles, occ...)
	st.offs[len(st.offs)-1]++
}

// SeekRun advances *run to the run of seq and returns its occurrence index
// range, or an empty range when seq holds no occurrences. Successive calls
// must pass non-decreasing seq values: the cursor moves only forward, so a
// full verification sweep over ascending sequence indexes costs O(runs)
// total rather than O(runs · log runs) of repeated binary searches.
func (st *OccStore) SeekRun(run *int, seq int32) (lo, hi int32) {
	r := *run
	for r < len(st.seqs) && st.seqs[r] < seq {
		r++
	}
	*run = r
	if r >= len(st.seqs) || st.seqs[r] != seq {
		return 0, 0
	}
	return st.offs[r], st.offs[r+1]
}

// MergeOccsInto merges a and b (same k, possibly nil or empty) into dst,
// which is Reset first: runs union by sequence, a's occurrences before b's
// within a shared sequence. This reproduces exactly the former map-based
// merge — append b's per-sequence list after a's — used when distinct
// extension composites canonicalize to the same pattern and when disjoint
// per-shard partials combine.
func MergeOccsInto(dst, a, b *OccStore, k int) {
	dst.Reset(k)
	if a == nil {
		a = &OccStore{k: k}
	}
	if b == nil {
		b = &OccStore{k: k}
	}
	ra, rb := 0, 0
	appendRun := func(src *OccStore, r int) {
		lo, hi := src.Run(r)
		dst.roles = append(dst.roles, src.roles[lo*int32(src.k):hi*int32(src.k)]...)
		dst.offs[len(dst.offs)-1] += hi - lo
	}
	for ra < len(a.seqs) || rb < len(b.seqs) {
		var seq int32
		takeA, takeB := false, false
		switch {
		case ra >= len(a.seqs):
			seq, takeB = b.seqs[rb], true
		case rb >= len(b.seqs):
			seq, takeA = a.seqs[ra], true
		case a.seqs[ra] < b.seqs[rb]:
			seq, takeA = a.seqs[ra], true
		case b.seqs[rb] < a.seqs[ra]:
			seq, takeB = b.seqs[rb], true
		default:
			seq, takeA, takeB = a.seqs[ra], true, true
		}
		if len(dst.offs) == 0 {
			dst.offs = append(dst.offs, 0, 0)
		} else {
			dst.offs = append(dst.offs, dst.offs[len(dst.offs)-1])
		}
		dst.seqs = append(dst.seqs, seq)
		if takeA {
			appendRun(a, ra)
			ra++
		}
		if takeB {
			appendRun(b, rb)
			rb++
		}
	}
}
