package server

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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

// fingerprintSource hashes a source's full content — series names,
// timing, alphabets, and every sample's symbol id in order — into the
// content key the result cache serves documents by. It is recorded in
// WAL records and segment footers and keys the cache across restarts, so
// the digest must never change; a chained view hashes exactly like the
// same content sealed in one segment. Every string and collection is
// length-prefixed, so the encoding is unambiguous.
func fingerprintSource(src ftpm.SymbolSource) string {
	h := sha256.New()
	// Writes are batched in buf and reach the hash 32 KiB at a time; a
	// hash digests the concatenation of its writes, so the batching leaves
	// the digest unchanged.
	buf := make([]byte, 0, 32<<10)
	writeInt := func(v int64) {
		if len(buf)+8 > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	writeStr := func(s string) {
		writeInt(int64(len(s)))
		buf = append(buf, s...)
	}
	// writeRun writes v once per sample of a run: the first 8-byte word,
	// then doubling copies of what is already written, up to the free
	// whole words of buf.
	writeRun := func(v int64, samples int) {
		for n := 8 * samples; n > 0; {
			room := (cap(buf) - len(buf)) &^ 7
			if room == 0 {
				h.Write(buf)
				buf = buf[:0]
				room = cap(buf) &^ 7
			}
			k := min(n, room)
			at := len(buf)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			buf = buf[:at+k]
			for w := at + 8; w < len(buf); {
				w += copy(buf[w:], buf[at:w])
			}
			n -= k
		}
	}
	n := src.NumSeries()
	writeInt(int64(n))
	var runs []ftpm.Run
	for i := 0; i < n; i++ {
		writeStr(src.SeriesName(i))
		writeInt(int64(src.Start()))
		writeInt(int64(src.Step()))
		alpha := src.SeriesAlphabet(i)
		writeInt(int64(len(alpha)))
		for _, a := range alpha {
			writeStr(a)
		}
		writeInt(int64(src.Len()))
		runs = src.AppendRuns(i, runs[:0])
		for _, r := range runs {
			writeRun(int64(r.Symbol), r.Last-r.First+1)
		}
	}
	h.Write(buf)
	return fmt.Sprintf("%x", h.Sum(nil))
}
