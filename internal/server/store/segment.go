// Columnar segment files: the out-of-core representation of a symbolized
// dataset generation. A segment stores each series as a run-length-encoded
// symbol column — the exact maximal runs the converter and the NMI tables
// consume — so serving a dataset from a segment decodes runs straight out
// of a read-only memory map instead of materializing per-sample symbol
// slices. The WAL then records only metadata plus segment references,
// which shrinks dataset records from O(samples) to O(1) and makes restart
// a footer read per segment instead of a payload replay. A non-durable
// server keeps the same encoded image in the heap instead of a file
// (EncodeSegment + ParseSegment), so every dataset generation is a
// sealed segment either way.
//
// On-disk layout ("FTPMSEG1"):
//
//	[8]  magic "FTPMSEG1"
//	[..] per-series run blocks, in series order:
//	       uvarint runCount, then runCount × (uvarint symbol, uvarint runLen)
//	[..] footer:
//	       uvarint numSeries
//	       per series: name (uvarint len + bytes),
//	                   uvarint alphabetLen + alphabetLen × (uvarint len + bytes),
//	                   uvarint blockOffset (absolute file offset),
//	                   uvarint runCount
//	       uvarint sampleCount
//	       zigzag-varint start, uvarint step
//	       fingerprint (uvarint len + bytes)
//	[16] trailer: u32 LE footerLen, u32 LE crc32-IEEE(footer), magic "FTPMSEGF"
//
// The fixed-size trailer lets ParseSegment find the footer without
// scanning; the footer CRC plus a full O(runs) decode walk reject torn or
// bit-flipped files before anything is served from them (the walk touches
// only the RLE bytes, which are proportional to runs, not samples — a
// constant column of a billion samples is one run). Segments are immutable
// after the tmp+fsync+rename that creates them; appends seal new delta
// segments rather than rewriting existing ones.

package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"slices"

	"ftpm/internal/temporal"
	"ftpm/internal/timeseries"
)

const (
	segMagic     = "FTPMSEG1"
	segEndMagic  = "FTPMSEGF"
	segTrailer   = 4 + 4 + 8 // footerLen u32 + footer crc u32 + end magic
	maxSegFooter = 1 << 28   // sanity cap on footer length claims
)

// segSeries is the decoded footer entry of one series column.
type segSeries struct {
	name     string
	alphabet []string
	offset   int // absolute file offset of the run block
	runs     int
}

// Segment is an open, validated segment image: a file served through a
// read-only memory map (a heap copy on platforms without mmap), or an
// encoded image held in the heap (ParseSegment). It implements
// timeseries.SymbolSource, so mining consumes it exactly like an
// in-memory SymbolicDB; AppendRuns decodes the RLE column on the fly and
// allocates only the caller's destination slice. Safe for concurrent use:
// all state is immutable after Open or Parse.
type Segment struct {
	fs          FS
	data        []byte // full segment image: mmap'd, read, or encoded in memory
	mapped      bool   // data came from mmap (must munmap on Close)
	series      []segSeries
	samples     int
	start       temporal.Time
	step        temporal.Duration
	fingerprint string
}

var _ timeseries.SymbolSource = (*Segment)(nil)

// WriteSegment seals src into a segment file on the real filesystem.
// See WriteSegmentFS.
func WriteSegment(path string, src timeseries.SymbolSource, fingerprint string) (int64, error) {
	return WriteSegmentFS(OS(), path, src, fingerprint)
}

// EncodeSegment encodes src as a segment image: the exact bytes
// WriteSegmentFS seals into a file. Adjacent equal-symbol runs are merged
// on encode, so the stored column is always in canonical maximal-run
// form even when src is a chained view whose seam duplicates a symbol.
func EncodeSegment(src timeseries.SymbolSource, fingerprint string) ([]byte, error) {
	buf := append(make([]byte, 0, 4096), segMagic...)
	n := src.NumSeries()
	offsets := make([]int, n)
	runCounts := make([]int, n)
	var runBuf []timeseries.Run
	for i := 0; i < n; i++ {
		runBuf = src.AppendRuns(i, runBuf[:0])
		runs := canonicalRuns(runBuf)
		offsets[i] = len(buf)
		runCounts[i] = len(runs)
		buf = binary.AppendUvarint(buf, uint64(len(runs)))
		for _, r := range runs {
			if r.Symbol < 0 || r.Last < r.First {
				return nil, fmt.Errorf("store: series %d has malformed run %+v", i, r)
			}
			buf = binary.AppendUvarint(buf, uint64(r.Symbol))
			buf = binary.AppendUvarint(buf, uint64(r.Last-r.First+1))
		}
	}
	footerOff := len(buf)
	buf = binary.AppendUvarint(buf, uint64(n))
	for i := 0; i < n; i++ {
		buf = appendSegString(buf, src.SeriesName(i))
		alpha := src.SeriesAlphabet(i)
		buf = binary.AppendUvarint(buf, uint64(len(alpha)))
		for _, a := range alpha {
			buf = appendSegString(buf, a)
		}
		buf = binary.AppendUvarint(buf, uint64(offsets[i]))
		buf = binary.AppendUvarint(buf, uint64(runCounts[i]))
	}
	buf = binary.AppendUvarint(buf, uint64(src.Len()))
	buf = binary.AppendVarint(buf, int64(src.Start()))
	buf = binary.AppendUvarint(buf, uint64(src.Step()))
	buf = appendSegString(buf, fingerprint)
	footer := buf[footerOff:]
	var tr [segTrailer]byte
	binary.LittleEndian.PutUint32(tr[0:], uint32(len(footer)))
	binary.LittleEndian.PutUint32(tr[4:], crc32.ChecksumIEEE(footer))
	copy(tr[8:], segEndMagic)
	return append(buf, tr[:]...), nil
}

// WriteSegmentFS seals src into a segment file at path on fsys,
// atomically (tmp + fsync + rename + dir sync), and returns its size in
// bytes. The file holds EncodeSegment's image.
func WriteSegmentFS(fsys FS, path string, src timeseries.SymbolSource, fingerprint string) (int64, error) {
	if fsys == nil {
		fsys = OS()
	}
	buf, err := EncodeSegment(src, fingerprint)
	if err != nil {
		return 0, err
	}

	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	_, werr := f.Write(buf)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fsys.Remove(tmp)
		return 0, fmt.Errorf("store: %w", werr)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return 0, fmt.Errorf("store: %w", err)
	}
	// Until the directory entry is durable the segment can vanish in a
	// crash while the WAL already references it; the caller must not
	// acknowledge the seal, so surface the failure.
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return int64(len(buf)), nil
}

// canonicalRuns merges adjacent runs with equal symbols in place.
func canonicalRuns(runs []timeseries.Run) []timeseries.Run {
	out := runs[:0]
	for _, r := range runs {
		if n := len(out); n > 0 && out[n-1].Symbol == r.Symbol && out[n-1].Last+1 == r.First {
			out[n-1].Last = r.Last
			continue
		}
		out = append(out, r)
	}
	return out
}

func appendSegString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// segReader decodes varints from a byte image with bounds checking.
type segReader struct {
	data []byte
	off  int
	err  error
}

func (r *segReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("store: truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *segReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("store: truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *segReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)-r.off) {
		r.err = fmt.Errorf("store: string of %d bytes overruns footer at offset %d", n, r.off)
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// OpenSegment maps a segment file read-only and validates it with
// ParseSegment. A torn tail — the file cut anywhere — loses the trailer
// or breaks its CRC and is rejected here, never half-served.
func OpenSegment(path string) (*Segment, error) {
	return OpenSegmentFS(OS(), path)
}

// OpenSegmentFS is OpenSegment on an explicit filesystem.
func OpenSegmentFS(fsys FS, path string) (*Segment, error) {
	if fsys == nil {
		fsys = OS()
	}
	data, mapped, err := fsys.MapFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s, err := ParseSegment(data)
	if err != nil {
		if mapped {
			fsys.UnmapFile(data)
		}
		return nil, fmt.Errorf("%w (%s)", err, filepath.Base(path))
	}
	s.fs, s.mapped = fsys, mapped
	return s, nil
}

// ParseSegment serves a segment image held in memory (EncodeSegment's
// output, or a mapped file) after validating it fully: magics, footer
// CRC, and an O(runs) decode walk of every run block (well-formed
// varints, symbols inside the alphabet, run lengths >= 1 summing to the
// sample count). The Segment aliases data, which must not change.
func ParseSegment(data []byte) (*Segment, error) {
	s := &Segment{data: data}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("store: segment: %w", err)
	}
	return s, nil
}

func (s *Segment) validate() error {
	if len(s.data) < len(segMagic)+segTrailer || string(s.data[:len(segMagic)]) != segMagic {
		return fmt.Errorf("missing or foreign header")
	}
	tr := s.data[len(s.data)-segTrailer:]
	if string(tr[8:]) != segEndMagic {
		return fmt.Errorf("missing trailer (torn tail?)")
	}
	footerLen := int(binary.LittleEndian.Uint32(tr[0:]))
	if footerLen <= 0 || footerLen > maxSegFooter || footerLen > len(s.data)-len(segMagic)-segTrailer {
		return fmt.Errorf("implausible footer length %d", footerLen)
	}
	footer := s.data[len(s.data)-segTrailer-footerLen : len(s.data)-segTrailer]
	if crc32.ChecksumIEEE(footer) != binary.LittleEndian.Uint32(tr[4:]) {
		return fmt.Errorf("footer checksum mismatch")
	}

	r := &segReader{data: footer}
	n := r.uvarint()
	if r.err == nil && n > uint64(len(footer)) {
		return fmt.Errorf("implausible series count %d", n)
	}
	s.series = make([]segSeries, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		var e segSeries
		e.name = r.str()
		alphaLen := r.uvarint()
		if r.err == nil && alphaLen > uint64(len(footer)) {
			return fmt.Errorf("implausible alphabet size %d", alphaLen)
		}
		e.alphabet = make([]string, 0, alphaLen)
		for j := uint64(0); j < alphaLen && r.err == nil; j++ {
			e.alphabet = append(e.alphabet, r.str())
		}
		offset, runs := r.uvarint(), r.uvarint()
		if r.err == nil && (offset > uint64(len(s.data)) || runs > uint64(len(s.data))) {
			return fmt.Errorf("series %d block offset %d or run count %d overruns the image", i, offset, runs)
		}
		e.offset, e.runs = int(offset), int(runs)
		s.series = append(s.series, e)
	}
	samples := r.uvarint()
	if r.err == nil && samples > math.MaxInt {
		return fmt.Errorf("implausible sample count %d", samples)
	}
	s.samples = int(samples)
	s.start = temporal.Time(r.varint())
	s.step = temporal.Duration(r.uvarint())
	s.fingerprint = r.str()
	if r.err != nil {
		return r.err
	}
	if r.off != len(footer) {
		return fmt.Errorf("%d trailing bytes after footer fields", len(footer)-r.off)
	}

	// Walk every run block: each must decode cleanly, stay inside the
	// column area, and sum to exactly the sample count.
	blockEnd := len(s.data) - segTrailer - footerLen
	for i, e := range s.series {
		if e.offset < len(segMagic) || e.offset >= blockEnd {
			return fmt.Errorf("series %d block offset %d out of range", i, e.offset)
		}
		br := &segReader{data: s.data[:blockEnd], off: e.offset}
		cnt := br.uvarint()
		if br.err == nil && cnt != uint64(e.runs) {
			return fmt.Errorf("series %d run count %d disagrees with footer %d", i, cnt, e.runs)
		}
		total := 0
		for j := 0; j < e.runs && br.err == nil; j++ {
			sym := br.uvarint()
			length := br.uvarint()
			if br.err != nil {
				break
			}
			if sym >= uint64(len(e.alphabet)) {
				return fmt.Errorf("series %d run %d symbol %d outside alphabet of %d", i, j, sym, len(e.alphabet))
			}
			if length < 1 || length > uint64(s.samples-total) {
				return fmt.Errorf("series %d run %d length %d overruns %d samples", i, j, length, s.samples)
			}
			total += int(length)
		}
		if br.err != nil {
			return fmt.Errorf("series %d: %w", i, br.err)
		}
		if total != s.samples {
			return fmt.Errorf("series %d runs cover %d of %d samples", i, total, s.samples)
		}
	}
	return nil
}

// Close releases the mapping, if any. The Segment must not be used
// afterwards.
func (s *Segment) Close() error {
	data, mapped := s.data, s.mapped
	s.data, s.mapped = nil, false
	if mapped {
		return s.fs.UnmapFile(data)
	}
	return nil
}

// Size returns the size of the segment image in bytes.
func (s *Segment) Size() int64 { return int64(len(s.data)) }

// Fingerprint returns the content fingerprint recorded at seal time.
func (s *Segment) Fingerprint() string { return s.fingerprint }

// NumSeries implements timeseries.SymbolSource.
func (s *Segment) NumSeries() int { return len(s.series) }

// SeriesName implements timeseries.SymbolSource.
func (s *Segment) SeriesName(i int) string { return s.series[i].name }

// SeriesAlphabet implements timeseries.SymbolSource.
func (s *Segment) SeriesAlphabet(i int) []string { return s.series[i].alphabet }

// Len implements timeseries.SymbolSource.
func (s *Segment) Len() int { return s.samples }

// Start implements timeseries.SymbolSource.
func (s *Segment) Start() temporal.Time { return s.start }

// Step implements timeseries.SymbolSource.
func (s *Segment) Step() temporal.Duration { return s.step }

// End implements timeseries.SymbolSource.
func (s *Segment) End() temporal.Time {
	return s.start + temporal.Time(s.samples)*s.step
}

// AppendRuns implements timeseries.SymbolSource: it decodes series i's
// RLE column out of the mapping into dst. Decoding is pure reads on
// immutable bytes, so concurrent calls are safe. Validation already
// proved the block well-formed, so the decode loop runs unchecked.
func (s *Segment) AppendRuns(i int, dst []timeseries.Run) []timeseries.Run {
	e := s.series[i]
	dst = slices.Grow(dst, e.runs)
	data := s.data
	off := e.offset
	_, n := binary.Uvarint(data[off:])
	off += n
	pos := 0
	for j := 0; j < e.runs; j++ {
		sym, n := binary.Uvarint(data[off:])
		off += n
		length, n := binary.Uvarint(data[off:])
		off += n
		dst = append(dst, timeseries.Run{Symbol: int(sym), First: pos, Last: pos + int(length) - 1})
		pos += int(length)
	}
	return dst
}
