package hpg

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refStore is a reference implementation of the occurrence storage with
// the exact semantics of the seed's map-based store
// (map[int][]Occurrence): merges append b's per-sequence list after a's.
// The columnar OccStore must be observationally identical to it.
type refStore struct {
	k    int
	occs map[int][]Occurrence
}

func newRefStore(k int) *refStore { return &refStore{k: k, occs: make(map[int][]Occurrence)} }

func (r *refStore) append(seq int, occ []int32) {
	r.occs[seq] = append(r.occs[seq], append(Occurrence(nil), occ...))
}

func mergeRef(a, b *refStore) *refStore {
	out := newRefStore(a.k)
	for seq, occs := range a.occs {
		out.occs[seq] = append(out.occs[seq], occs...)
	}
	for seq, occs := range b.occs {
		out.occs[seq] = append(out.occs[seq], occs...)
	}
	return out
}

// flatten renders a store as (seq, tuples...) runs in ascending sequence
// order for comparison.
func (r *refStore) flatten() map[int][]Occurrence { return r.occs }

func flattenOccStore(st *OccStore) map[int][]Occurrence {
	out := make(map[int][]Occurrence)
	for run := 0; run < st.NumSeqs(); run++ {
		seq := int(st.SeqAt(run))
		lo, hi := st.Run(run)
		for i := lo; i < hi; i++ {
			out[seq] = append(out[seq], append(Occurrence(nil), st.Occ(i)...))
		}
	}
	return out
}

func randTuple(rng *rand.Rand, k int) []int32 {
	t := make([]int32, k)
	for i := range t {
		t[i] = int32(rng.Intn(1000))
	}
	return t
}

// buildRandom drives an OccStore and the reference with one random
// ascending append stream.
func buildRandom(rng *rand.Rand, k int) (*OccStore, *refStore) {
	st := &OccStore{}
	st.Reset(k)
	ref := newRefStore(k)
	seq := int32(0)
	for n := rng.Intn(200); n > 0; n-- {
		if rng.Intn(3) == 0 {
			seq += int32(1 + rng.Intn(5)) // move to a later sequence
		}
		occ := randTuple(rng, k)
		st.Append(seq, occ)
		ref.append(int(seq), occ)
	}
	return st, ref
}

// TestOccStoreMatchesReference is the store-level property test: random
// ascending append streams must leave the columnar store observationally
// identical to the seed's map-based semantics.
func TestOccStoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(4)
		st, ref := buildRandom(rng, k)
		got, want := flattenOccStore(st), ref.flatten()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (k=%d): store %v != reference %v", trial, k, got, want)
		}
		nOcc := 0
		for _, occs := range want {
			nOcc += len(occs)
		}
		if st.NumOccs() != nOcc || st.NumSeqs() != len(want) {
			t.Fatalf("trial %d: counts NumOccs=%d NumSeqs=%d, want %d/%d", trial, st.NumOccs(), st.NumSeqs(), nOcc, len(want))
		}
	}
}

// TestMergeOccsMatchesReference checks the merge against the reference
// append semantics, including disjoint (sharded) and heavily
// overlapping inputs.
func TestMergeOccsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(3)
		a, refA := buildRandom(rng, k)
		b, refB := buildRandom(rng, k)
		dst := &OccStore{}
		MergeOccsInto(dst, a, b, k)
		got, want := flattenOccStore(dst), mergeRef(refA, refB).flatten()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (k=%d): merged %v != reference %v", trial, k, got, want)
		}
	}
	// Nil operands behave as empty stores.
	st, _ := buildRandom(rng, 2)
	dst := &OccStore{}
	MergeOccsInto(dst, nil, st, 2)
	if !reflect.DeepEqual(flattenOccStore(dst), flattenOccStore(st)) {
		t.Fatal("merge with nil a must equal b")
	}
	MergeOccsInto(dst, st, nil, 2)
	if !reflect.DeepEqual(flattenOccStore(dst), flattenOccStore(st)) {
		t.Fatal("merge with nil b must equal a")
	}
}

// TestSeekRunCursor checks the monotone cursor against direct run access.
func TestSeekRunCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st, ref := buildRandom(rng, 3)
	var seqs []int
	for s := range ref.flatten() {
		seqs = append(seqs, s)
	}
	sort.Ints(seqs)
	maxSeq := 0
	if len(seqs) > 0 {
		maxSeq = seqs[len(seqs)-1]
	}
	run := 0
	for seq := 0; seq <= maxSeq+2; seq++ { // include absent sequences
		lo, hi := st.SeekRun(&run, int32(seq))
		want := ref.flatten()[seq]
		if int(hi-lo) != len(want) {
			t.Fatalf("seq %d: run length %d, want %d", seq, hi-lo, len(want))
		}
		for i := lo; i < hi; i++ {
			if !reflect.DeepEqual(Occurrence(st.Occ(i)), want[i-lo]) {
				t.Fatalf("seq %d occ %d mismatch", seq, i-lo)
			}
		}
	}
}

// TestOccStoreAppendPanics pins the contract violations.
func TestOccStoreAppendPanics(t *testing.T) {
	st := &OccStore{}
	st.Reset(2)
	st.Append(5, []int32{1, 2})
	for name, fn := range map[string]func(){
		"out-of-order seq": func() { st.Append(4, []int32{1, 2}) },
		"wrong width":      func() { st.Append(5, []int32{1, 2, 3}) },
		"zero width reset": func() { st.Reset(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}
