package server

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"ftpm"
)

// Dataset content views. Every dataset generation is a chain of sealed
// segments (internal/server/store's "FTPMSEG1" format), in files when the
// server is durable and in the heap otherwise: the upload seals one base
// segment, and every append seals a delta segment holding only the
// appended samples. chainSource stitches a base view and a delta into one
// ftpm.SymbolSource, which is what the mining pipeline consumes — so both
// storage modes run the exact same conversion and NMI code.

// chainSource is the SymbolSource of a dataset generation built by an
// append: the previous generation's view followed by a delta segment of
// the appended samples. The tail carries the full post-append alphabets
// (appends extend alphabets, never renumber them, so base symbol ids stay
// valid under the tail's alphabet); a run crossing the seam — the base's
// last run continued by the delta's first — is merged, so AppendRuns
// yields the same maximal runs an in-memory extension would. Chains nest:
// generation g after g appends is a chain of depth g over the base
// segment.
type chainSource struct {
	base ftpm.SymbolSource
	tail ftpm.SymbolSource
}

var _ ftpm.SymbolSource = (*chainSource)(nil)

func (c *chainSource) NumSeries() int                { return c.tail.NumSeries() }
func (c *chainSource) SeriesName(i int) string       { return c.tail.SeriesName(i) }
func (c *chainSource) SeriesAlphabet(i int) []string { return c.tail.SeriesAlphabet(i) }
func (c *chainSource) Len() int                      { return c.base.Len() + c.tail.Len() }
func (c *chainSource) Start() ftpm.Time              { return c.base.Start() }
func (c *chainSource) Step() ftpm.Duration           { return c.base.Step() }
func (c *chainSource) End() ftpm.Time {
	return c.Start() + ftpm.Time(c.Len())*c.Step()
}

// AppendRuns concatenates the base's and the tail's runs, rebasing the
// tail's positions past the base and merging the seam run when both sides
// carry the same symbol — the converters require maximal runs (a split
// run would double-count pattern instances).
func (c *chainSource) AppendRuns(i int, dst []ftpm.Run) []ftpm.Run {
	dst = c.base.AppendRuns(i, dst)
	mark := len(dst)
	dst = c.tail.AppendRuns(i, dst)
	off := c.base.Len()
	for j := mark; j < len(dst); j++ {
		dst[j].First += off
		dst[j].Last += off
	}
	if mark > 0 && len(dst) > mark && dst[mark-1].Symbol == dst[mark].Symbol {
		dst[mark-1].Last = dst[mark].Last
		dst = append(dst[:mark], dst[mark+1:]...)
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
	// Writes are batched in buf and reach the hash 32 KiB at a time, not
	// 8 bytes per sample; a hash digests the concatenation of its writes,
	// so the batching leaves the digest unchanged.
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
			for k := r.First; k <= r.Last; k++ {
				writeInt(int64(r.Symbol))
			}
		}
	}
	h.Write(buf)
	return fmt.Sprintf("%x", h.Sum(nil))
}
