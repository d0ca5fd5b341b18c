package server

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"

	"ftpm"
)

// Dataset content views. Every dataset generation is a chain of sealed
// segments (internal/server/store's "FTPMSEG1" format), in files when the
// server is durable and in the heap otherwise: the upload seals one base
// segment, and every append seals a delta segment holding only the
// appended samples. chainSource stitches the base and its deltas into one
// ftpm.SymbolSource, which is what the mining pipeline consumes — so both
// storage modes run the exact same conversion and NMI code.

// chainSource is the SymbolSource of a dataset generation built by
// appends: the base segment followed by one delta per append, held flat
// as one part list with the cumulative sample count after each part, so
// a generation after g appends is one chain of g+1 parts. The last part
// carries the full post-append alphabets (appends extend alphabets, never
// renumber them, so earlier parts' symbol ids stay valid under the last
// part's alphabet); a run crossing a seam — a part's last run continued
// by the next part's first, across any number of parts — is merged, so
// AppendRuns yields the same maximal runs an in-memory extension would.
type chainSource struct {
	parts []ftpm.SymbolSource
	ends  []int // ends[k] is the sample count of parts[0..k]
}

var _ ftpm.SymbolSource = (*chainSource)(nil)

// chainParts returns the view of parts in order: the single part itself,
// or a chain over all of them.
func chainParts(parts []ftpm.SymbolSource) ftpm.SymbolSource {
	if len(parts) == 1 {
		return parts[0]
	}
	c := &chainSource{parts: parts, ends: make([]int, len(parts))}
	n := 0
	for k, p := range parts {
		n += p.Len()
		c.ends[k] = n
	}
	return c
}

// chain returns the view of base followed by tail. A chain base lends its
// parts, copied so that base stays valid, and tail becomes one more part.
func chain(base, tail ftpm.SymbolSource) ftpm.SymbolSource {
	parts := []ftpm.SymbolSource{base}
	if b, ok := base.(*chainSource); ok {
		parts = slices.Clip(b.parts) // the append below copies
	}
	return chainParts(append(parts, tail))
}

func (c *chainSource) last() ftpm.SymbolSource       { return c.parts[len(c.parts)-1] }
func (c *chainSource) NumSeries() int                { return c.last().NumSeries() }
func (c *chainSource) SeriesName(i int) string       { return c.last().SeriesName(i) }
func (c *chainSource) SeriesAlphabet(i int) []string { return c.last().SeriesAlphabet(i) }
func (c *chainSource) Len() int                      { return c.ends[len(c.ends)-1] }
func (c *chainSource) Start() ftpm.Time              { return c.parts[0].Start() }
func (c *chainSource) Step() ftpm.Duration           { return c.parts[0].Step() }
func (c *chainSource) End() ftpm.Time {
	return c.Start() + ftpm.Time(c.Len())*c.Step()
}

// AppendRuns concatenates every part's runs in one pass, rebasing each
// part's positions past the parts before it and merging a part's first
// run into the run before it when both carry the same symbol — the
// converters require maximal runs (a split run would double-count pattern
// instances). A run spanning several parts is merged at each seam in
// turn.
func (c *chainSource) AppendRuns(i int, dst []ftpm.Run) []ftpm.Run {
	first := len(dst) // runs before it belong to the caller, not to series i
	off := 0
	for k, p := range c.parts {
		mark := len(dst)
		dst = p.AppendRuns(i, dst)
		w := mark
		for _, r := range dst[mark:] {
			if w > first && dst[w-1].Symbol == r.Symbol {
				dst[w-1].Last = r.Last + off
				continue
			}
			r.First += off
			r.Last += off
			dst[w] = r
			w++
		}
		dst = dst[:w]
		off = c.ends[k]
	}
	return dst
}

// contentDigest is the resumable state behind a generation's content
// fingerprint ("v2"): one SHA-256 per series over its maximal runs, each
// written as (symbol id, length) in two little-endian 64-bit words. A
// series' last run is held back as its carry, because the next append may
// extend it; so a database digests the same however appends split it, and
// an append hashes only its own runs (extend). The fingerprint hashes a
// final record of the names, grid, alphabets and length with each series'
// digest, carry folded in. It replaces the v1 digest, which hashed every
// sample of the whole history and so could not resume: v1 fingerprints
// still found in WAL records, segment footers and job records stay opaque
// cache keys, never recomputed, and never equal a v2 one.
type contentDigest []seriesDigest

// seriesDigest is one series' digest state: the marshaled SHA-256 of its
// committed runs (nil before any) and the carried run.
type seriesDigest struct {
	state []byte
	sym   int
	n     int // samples in the carried run; 0 before any
}

// digestSource digests src from an empty state.
func digestSource(src ftpm.SymbolSource) contentDigest {
	return make(contentDigest, src.NumSeries()).extend(src)
}

// extend returns the digest of d's content followed by delta's samples,
// leaving d as it was. delta must have d's series in order.
func (d contentDigest) extend(delta ftpm.SymbolSource) contentDigest {
	next := slices.Clone(d)
	var runs []ftpm.Run
	var buf []byte
	for i := range next {
		runs = delta.AppendRuns(i, runs[:0])
		buf = next[i].add(runs, buf[:0])
	}
	return next
}

// add folds runs, the series' next samples, into its digest. The words of
// the runs it commits are batched in buf, which is returned for reuse.
func (s *seriesDigest) add(runs []ftpm.Run, buf []byte) []byte {
	var h hash.Hash
	flush := func() {
		if h == nil {
			h = s.hash()
		}
		h.Write(buf)
		buf = buf[:0]
	}
	for _, r := range runs {
		n := r.Last - r.First + 1
		if s.n > 0 && r.Symbol == s.sym {
			s.n += n
			continue
		}
		if s.n > 0 {
			if buf = appendRun(buf, s.sym, s.n); len(buf) >= 32<<10 {
				flush()
			}
		}
		s.sym, s.n = r.Symbol, n
	}
	if len(buf) > 0 {
		flush()
	}
	if h != nil {
		s.state, _ = h.(encoding.BinaryMarshaler).MarshalBinary() // cannot fail
	}
	return buf
}

// hash returns a SHA-256 resumed from the series' committed runs.
func (s seriesDigest) hash() hash.Hash {
	h := sha256.New()
	if s.state != nil {
		h.(encoding.BinaryUnmarshaler).UnmarshalBinary(s.state) // a state MarshalBinary wrote
	}
	return h
}

// sum returns the series' digest with its carried run folded in.
func (s seriesDigest) sum(dst []byte) []byte {
	h := s.hash()
	if s.n > 0 {
		h.Write(appendRun(nil, s.sym, s.n))
	}
	return h.Sum(dst)
}

// appendRun appends the two words of a run of n samples of symbol sym.
func appendRun(buf []byte, sym, n int) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(sym))
	return binary.LittleEndian.AppendUint64(buf, uint64(n))
}

// fingerprint returns the content key of src, whose samples d digests:
// "v2:" and the first 61 hex digits of the SHA-256 of a final record —
// the series count, then per series its name, start, step, alphabet,
// length and run digest. Every string and collection is length-prefixed,
// so the record is unambiguous. The key is cut to v1's 64 bytes, so
// sealed segment footers keep their size; 244 bits of SHA-256 still make
// a collision out of reach. It is recorded in WAL records and segment
// footers and keys the result cache across restarts, so the encoding
// must never change.
func (d contentDigest) fingerprint(src ftpm.SymbolSource) string {
	var rec []byte
	putInt := func(v int64) { rec = binary.LittleEndian.AppendUint64(rec, uint64(v)) }
	putStr := func(s string) {
		putInt(int64(len(s)))
		rec = append(rec, s...)
	}
	putInt(int64(len(d)))
	for i, s := range d {
		putStr(src.SeriesName(i))
		putInt(int64(src.Start()))
		putInt(int64(src.Step()))
		alpha := src.SeriesAlphabet(i)
		putInt(int64(len(alpha)))
		for _, a := range alpha {
			putStr(a)
		}
		putInt(int64(src.Len()))
		rec = s.sum(rec)
	}
	sum := sha256.Sum256(rec)
	return "v2:" + hex.EncodeToString(sum[:])[:61]
}
