package events

import (
	"fmt"
	"sync"

	"ftpm/internal/temporal"
	"ftpm/internal/timeseries"
)

// This file implements incremental DSYB -> DSEQ conversion for datasets
// that grow by appending samples. The overlapping splitting strategy cuts
// windows from maximal symbol runs; appending data can only affect runs
// at or after the previous observation end, so every window that ends at
// or before it cuts byte-identically from the extended database:
//
//   - A run wholly before the old end is untouched by the append.
//   - The last run of a series may extend past the old end (the appended
//     samples continue its symbol), but clipping it against a window
//     whose End <= oldEnd yields the same interval either way.
//   - Runs introduced by the append start at or after the old end and
//     cannot intersect such a window.
//
// Window starts depend only on Start, the window length and the overlap,
// so under a fixed WindowLength geometry the first windows of the new
// split coincide with the old split's windows exactly; only the windows
// that reach past the old end (at most ceil(w/stride) of them, plus the
// appended tail) must be re-cut. A NumWindows geometry re-derives the
// window length from the new observation span, which moves every window
// boundary — there is nothing to reuse and the conversion falls back to
// a full cut.
//
// The one hazard is vocabulary stability: event ids are interned in
// (series order, first-run order), so a symbol first appearing in the
// appended samples of a non-last series would shift every later series'
// ids and silently corrupt reused sequences, which store bare ids. The
// delta entry points therefore verify that the previous vocabulary is a
// strict prefix of the new one and fall back to a full conversion when
// it is not.

// vocabExtends reports whether prev's definitions are a prefix of next's,
// i.e. every previously interned event keeps its id.
func vocabExtends(prev, next *Vocab) bool {
	if prev == nil || prev.Size() > next.Size() {
		return false
	}
	for i := 0; i < prev.Size(); i++ {
		if prev.defs[i] != next.defs[i] {
			return false
		}
	}
	return true
}

// convertDelta is the one sharded cut loop, behind both ConvertShards
// and ConvertShardsDelta: it cuts db into k round-robin shards, one
// goroutine per shard, reusing the sequence of window i from prevSeq(i)
// for every window in the stable prefix. prevCount is the number of
// windows the previous conversion produced (0 for none, when prevSeq is
// never called) and prevEnd its observation end; prevVocab guards id
// stability. It returns the shards and the stable-prefix length in
// windows (== global sequences, since the round-robin merge order equals
// window order).
func convertDelta(src timeseries.SymbolSource, opt SplitOptions, k int,
	prevSeq func(int) *Sequence, prevCount int, prevVocab *Vocab, prevEnd temporal.Time) ([]*DB, int, error) {
	if k <= 0 {
		return nil, 0, fmt.Errorf("events: shard count must be positive, got %d", k)
	}
	w, err := opt.resolve(src)
	if err != nil {
		return nil, 0, err
	}

	vocab, all := buildRuns(src)
	windows := windowsOf(src, w, opt.Overlap)

	stable := 0
	if opt.WindowLength > 0 && vocabExtends(prevVocab, vocab) {
		// A window is stable when it existed in the previous split (same
		// index, same start under the fixed stride) and ends at or before
		// the previous observation end — such a window was not clipped
		// there and cuts identically from the extended runs.
		for stable < prevCount && stable < len(windows) && windows[stable].End <= prevEnd {
			stable++
		}
	}

	shards := make([]*DB, k)
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		sh := &DB{Vocab: vocab}
		shards[s] = sh
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(windows); i += k {
				if i < stable {
					// The reused sequence already carries the positional
					// local id i/k of this shard slot.
					sh.Sequences = append(sh.Sequences, prevSeq(i))
					continue
				}
				sh.Sequences = append(sh.Sequences, cutWindow(len(sh.Sequences), windows[i], all))
			}
		}(s)
	}
	wg.Wait()
	return shards, stable, nil
}

// ConvertShardsDelta converts db into K round-robin shards like
// ConvertShards, reusing the stable window prefix of a previous sharded
// conversion (ConvertShards with the same geometry and shard count) of a
// database that db extends in time. Reused sequences are shared by
// pointer — sequences are immutable after construction — so the previous
// shard set stays valid for readers still mining it. The returned stable
// count is in windows, which equals global (merged) sequence indexes:
// window i lives in shard i%K at local position i/K on both sides.
func ConvertShardsDelta(src timeseries.SymbolSource, opt SplitOptions, k int, prev []*DB, prevEnd temporal.Time) ([]*DB, int, error) {
	if len(prev) == 0 {
		out, err := ConvertShards(src, opt, k)
		return out, 0, err
	}
	if len(prev) != k {
		return nil, 0, fmt.Errorf("events: previous conversion has %d shards, want %d", len(prev), k)
	}
	prevCount := 0
	for _, sh := range prev {
		if sh == nil {
			return nil, 0, fmt.Errorf("events: nil shard in previous conversion")
		}
		prevCount += sh.Size()
	}
	return convertDelta(src, opt, k,
		func(i int) *Sequence { return prev[i%k].Sequences[i/k] }, prevCount, prev[0].Vocab, prevEnd)
}
