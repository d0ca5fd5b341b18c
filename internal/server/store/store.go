// The write-ahead log and snapshot files; see doc.go for the format.

package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	// fileMagic identifies both the WAL and the snapshot file and bakes
	// in the format version; bump the trailing digit on incompatible
	// changes.
	fileMagic = "FTPMLOG1"

	// recHeader is the fixed per-record header size:
	// crc u32 + len u32 + kind u8 + lsn u64.
	recHeader = 4 + 4 + 1 + 8

	// maxRecord bounds one payload; longer length fields are treated as
	// corruption rather than attempted allocations.
	maxRecord = 1 << 30

	walName  = "wal"
	snapName = "snapshot"
)

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("store: log is closed")

// Kind tags a record with its caller-defined event type.
type Kind uint8

// Record is one recovered WAL entry.
type Record struct {
	Kind Kind
	LSN  uint64
	Data []byte
}

// Recovery is what Open found on disk.
type Recovery struct {
	// Snapshot is the payload of the snapshot file, nil when none exists.
	Snapshot []byte
	// SnapshotLSN is the LSN the snapshot covers (0 without a snapshot).
	SnapshotLSN uint64
	// SnapshotDamaged reports that a snapshot file existed but failed
	// verification and was ignored.
	SnapshotDamaged bool
	// Records are the WAL records newer than the snapshot, in log order.
	Records []Record
	// TruncatedBytes is how many bytes of torn or corrupt WAL tail were
	// discarded (0 for a clean open).
	TruncatedBytes int64
}

// Log is an open WAL + snapshot pair rooted in one directory. All
// methods are safe for concurrent use. A directory must be owned by one
// Log (one server process) at a time; the format has no inter-process
// locking.
type Log struct {
	mu         sync.Mutex
	fs         FS
	dir        string
	wal        File
	poisoned   bool   // a failed rollback left memory and disk diverged
	off        int64  // current end of the valid WAL prefix
	lsn        uint64 // last assigned LSN
	walRecords int    // records appended since the last snapshot
	snapTime   time.Time
	buf        []byte // append scratch, reused between records
}

// appendRecord encodes one record onto buf.
func appendRecord(buf []byte, kind Kind, lsn uint64, data []byte) []byte {
	off := len(buf)
	var hdr [recHeader]byte
	buf = append(buf, hdr[:]...)
	binary.LittleEndian.PutUint32(buf[off+4:], uint32(len(data)))
	buf[off+8] = byte(kind)
	binary.LittleEndian.PutUint64(buf[off+9:], lsn)
	buf = append(buf, data...)
	crc := crc32.ChecksumIEEE(buf[off+4:])
	binary.LittleEndian.PutUint32(buf[off:], crc)
	return buf
}

// parseRecords scans a record stream (file content after the magic) and
// returns the records of the longest valid prefix plus that prefix's
// byte length. Anything after the first short, oversized or
// CRC-mismatched record is untrusted: record boundaries downstream of a
// corrupt length cannot be re-synchronized.
func parseRecords(data []byte) (recs []Record, valid int) {
	off := 0
	for {
		if len(data)-off < recHeader {
			return recs, off
		}
		crc := binary.LittleEndian.Uint32(data[off:])
		n := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecord || len(data)-off-recHeader < int(n) {
			return recs, off
		}
		end := off + recHeader + int(n)
		if crc32.ChecksumIEEE(data[off+4:end]) != crc {
			return recs, off
		}
		recs = append(recs, Record{
			Kind: Kind(data[off+8]),
			LSN:  binary.LittleEndian.Uint64(data[off+9:]),
			Data: append([]byte(nil), data[off+recHeader:end]...),
		})
		off = end
	}
}

// sameLSN reports whether every record carries the same LSN — the shape
// of a valid (possibly chunked) snapshot file.
func sameLSN(recs []Record) bool {
	for _, r := range recs[1:] {
		if r.LSN != recs[0].LSN {
			return false
		}
	}
	return true
}

// checkMagic splits a file image into its record stream, reporting
// whether the magic matched.
func checkMagic(data []byte) (body []byte, ok bool) {
	if len(data) < len(fileMagic) || string(data[:len(fileMagic)]) != fileMagic {
		return nil, false
	}
	return data[len(fileMagic):], true
}

// Open opens the log directory on the real filesystem. See OpenFS.
func Open(dir string) (*Log, Recovery, error) {
	return OpenFS(OS(), dir)
}

// OpenFS opens (or initializes) the log directory on fsys, verifies the
// snapshot and WAL, truncates any torn WAL tail in place, removes
// leftover temp files from an interrupted snapshot or WAL rewrite, and
// returns the recovered state. The returned Log is ready for Append.
func OpenFS(fsys FS, dir string) (*Log, Recovery, error) {
	if fsys == nil {
		fsys = OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("store: %w", err)
	}
	l := &Log{fs: fsys, dir: dir}
	var rec Recovery

	// A crash mid-snapshot or mid-rewrite leaves a temp file that no
	// code path will ever rename; clear it so it cannot be mistaken for
	// live state (and so disk is not leaked). Best-effort: a failure
	// here only postpones the cleanup to the next open.
	for _, tmp := range []string{snapName + ".tmp", walName + ".tmp"} {
		if err := fsys.Remove(filepath.Join(dir, tmp)); err != nil && !os.IsNotExist(err) {
			_ = err // the file stays; the next open retries
		}
	}

	// Snapshot: a damaged one is ignored, not fatal — it is replaced
	// atomically, so damage means external corruption, and the WAL may
	// still hold usable history.
	snapPath := filepath.Join(dir, snapName)
	if data, err := fsys.ReadFile(snapPath); err == nil {
		if body, ok := checkMagic(data); ok {
			// A snapshot is one or more records all stamped with the same
			// LSN, one per chunk a SnapshotWriter wrote. Their payloads
			// concatenate into the snapshot image.
			if recs, valid := parseRecords(body); len(recs) >= 1 && valid == len(body) && sameLSN(recs) {
				if len(recs) == 1 {
					rec.Snapshot = recs[0].Data
				} else {
					total := 0
					for _, r := range recs {
						total += len(r.Data)
					}
					rec.Snapshot = make([]byte, 0, total)
					for _, r := range recs {
						rec.Snapshot = append(rec.Snapshot, r.Data...)
					}
				}
				rec.SnapshotLSN = recs[0].LSN
				l.lsn = recs[0].LSN
				if st, err := fsys.Stat(snapPath); err == nil {
					l.snapTime = st.ModTime()
				}
			} else {
				rec.SnapshotDamaged = true
			}
		} else {
			rec.SnapshotDamaged = true
		}
	} else if !os.IsNotExist(err) {
		return nil, Recovery{}, fmt.Errorf("store: %w", err)
	}

	// WAL: parse the longest valid prefix, keep records newer than the
	// snapshot, and truncate the file to the valid prefix so the next
	// append extends a clean log.
	walPath := filepath.Join(dir, walName)
	data, err := fsys.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, Recovery{}, fmt.Errorf("store: %w", err)
	}
	validLen := int64(len(fileMagic)) // rewritten below when the file is usable
	if err == nil {
		if body, ok := checkMagic(data); ok {
			recs, valid := parseRecords(body)
			validLen = int64(len(fileMagic) + valid)
			rec.TruncatedBytes = int64(len(body) - valid)
			for _, r := range recs {
				if r.LSN > l.lsn {
					l.lsn = r.LSN
				}
				if r.LSN > rec.SnapshotLSN {
					rec.Records = append(rec.Records, r)
					l.walRecords++
				}
			}
		} else {
			// Foreign or headerless file: nothing in it can be trusted.
			rec.TruncatedBytes = int64(len(data))
		}
	}

	wal, err := fsys.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("store: %w", err)
	}
	if err := initWAL(wal, validLen, rec.TruncatedBytes > 0 || len(data) < len(fileMagic)); err != nil {
		wal.Close()
		return nil, Recovery{}, err
	}
	l.wal = wal
	l.off = validLen
	if l.snapTime.IsZero() {
		l.snapTime = time.Now()
	}
	return l, rec, nil
}

// initWAL makes the WAL file a clean, positioned log: the magic is
// (re)written when the file is new or its header was untrusted, a torn
// tail is cut off, and the write offset is left at the end.
func initWAL(wal File, validLen int64, rewrite bool) error {
	st, err := wal.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if st.Size() < int64(len(fileMagic)) || rewrite && validLen == int64(len(fileMagic)) {
		if err := wal.Truncate(0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := wal.WriteAt([]byte(fileMagic), 0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		validLen = int64(len(fileMagic))
	} else if st.Size() > validLen {
		if err := wal.Truncate(validLen); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := wal.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := wal.Seek(validLen, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// unusableLocked reports why the log cannot accept operations (nil when
// it can). Caller holds l.mu.
func (l *Log) unusableLocked() error {
	if l.wal != nil {
		return nil
	}
	if l.poisoned {
		return ErrPoisoned
	}
	return ErrClosed
}

// rollbackLocked restores the WAL to the last known-good prefix after a
// failed append, so torn bytes never sit in front of later successful
// records (replay truncates at the first bad record — everything after
// it would be silently lost). If the rollback itself fails the log is
// poisoned: in-memory offsets and the file no longer agree, so further
// operations return ErrPoisoned (a corrupting fault — only a reopen,
// which re-derives state from disk, is safe). Caller holds l.mu.
func (l *Log) rollbackLocked() {
	if l.wal.Truncate(l.off) == nil {
		if _, err := l.wal.Seek(l.off, io.SeekStart); err == nil {
			return
		}
	}
	l.wal.Close()
	l.wal = nil
	l.poisoned = true
}

// Append durably writes one record (fsync before returning) and assigns
// it the next LSN. A failed write is rolled back, leaving the log as it
// was before the call.
func (l *Log) Append(kind Kind, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.unusableLocked(); err != nil {
		return err
	}
	if len(data) > maxRecord {
		return fmt.Errorf("store: record of %d bytes exceeds the %d-byte cap", len(data), maxRecord)
	}
	l.buf = appendRecord(l.buf[:0], kind, l.lsn+1, data)
	n := int64(len(l.buf))
	_, werr := l.wal.Write(l.buf)
	// The scratch buffer amortizes header allocations across typical
	// small records; one huge record (a large dataset ingestion) must not
	// pin its size for the life of the log.
	if cap(l.buf) > 1<<20 {
		l.buf = nil
	}
	if werr == nil {
		werr = l.wal.Sync()
	}
	if werr != nil {
		l.rollbackLocked()
		return fmt.Errorf("store: %w", werr)
	}
	l.off += n
	l.lsn++
	l.walRecords++
	return nil
}

// SnapshotWriter streams one compacting snapshot in bounded chunks at a
// captured LSN. BeginSnapshot captures the log position; WriteChunk calls
// append CRC-framed records (all stamped with the captured LSN) to a temp
// file without holding the log lock, so appends keep flowing while the
// snapshot is gathered and written; Commit atomically installs the
// snapshot and then rewrites the WAL keeping only the records appended
// after the capture — partial WAL retention, so nothing logged during the
// snapshot is lost and nothing covered by it is replayed.
//
// One snapshot may be in flight at a time (the persister's compacting
// guard enforces this); a second writer would race the WAL rewrite.
type SnapshotWriter struct {
	l    *Log
	lsn  uint64 // LSN the snapshot covers
	off  int64  // WAL byte offset at capture; bytes after it are retained
	recs int    // walRecords at capture
	tmp  string
	f    File
	buf  []byte
	err  error
}

// BeginSnapshot captures the current LSN and opens the snapshot temp
// file. The caller gathers state after this call: anything that changes
// later is re-logged in the WAL past the captured offset and survives the
// rewrite, so a record doubly present (in the snapshot and the retained
// WAL) must replay idempotently — which service replay guarantees.
func (l *Log) BeginSnapshot() (*SnapshotWriter, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.unusableLocked(); err != nil {
		return nil, err
	}
	tmp := filepath.Join(l.dir, snapName+".tmp")
	f, err := l.fs.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write([]byte(fileMagic)); err != nil {
		f.Close()
		l.fs.Remove(tmp)
		return nil, fmt.Errorf("store: %w", err)
	}
	return &SnapshotWriter{l: l, lsn: l.lsn, off: l.off, recs: l.walRecords, tmp: tmp, f: f}, nil
}

// WriteChunk appends one chunk of the snapshot image. Chunks concatenate
// on recovery; boundaries are free, so callers size them to bound memory
// (the service streams ~4 MiB at a time). A failed write poisons the
// writer: later calls and Commit return the first error.
func (w *SnapshotWriter) WriteChunk(data []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return ErrClosed
	}
	if len(data) > maxRecord {
		w.fail(fmt.Errorf("store: snapshot chunk of %d bytes exceeds the %d-byte cap", len(data), maxRecord))
		return w.err
	}
	w.buf = appendRecord(w.buf[:0], 0, w.lsn, data)
	if _, err := w.f.Write(w.buf); err != nil {
		w.fail(fmt.Errorf("store: %w", err))
		return w.err
	}
	return nil
}

// fail poisons the writer and removes the temp file.
func (w *SnapshotWriter) fail(err error) {
	w.err = err
	if w.f != nil {
		w.f.Close()
		w.l.fs.Remove(w.tmp)
		w.f = nil
	}
}

// Abort discards the snapshot, leaving the log untouched.
func (w *SnapshotWriter) Abort() {
	if w.f != nil {
		w.fail(ErrClosed)
	}
}

// Commit durably installs the snapshot (fsync, atomic rename), then
// truncates the covered prefix out of the WAL by rewriting it with only
// the records appended since the capture. The rewrite goes through a temp
// file whose descriptor becomes the live WAL handle after the rename, so
// every crash window is safe: before the snapshot rename nothing changed;
// between rename and rewrite the WAL still holds covered records, which
// the next Open skips by LSN; a torn rewrite temp file is invisible until
// its own rename. If the rewrite fails the snapshot is still committed —
// the WAL just stays fat until the next compaction — and the error is
// reported for the failure gauges.
func (w *SnapshotWriter) Commit() error {
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return ErrClosed
	}
	werr := w.f.Sync()
	if cerr := w.f.Close(); werr == nil {
		werr = cerr
	}
	w.f = nil
	if werr != nil {
		w.l.fs.Remove(w.tmp)
		w.err = fmt.Errorf("store: %w", werr)
		return w.err
	}
	l := w.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.unusableLocked(); err != nil {
		l.fs.Remove(w.tmp)
		w.err = err
		return w.err
	}
	if err := l.fs.Rename(w.tmp, filepath.Join(l.dir, snapName)); err != nil {
		l.fs.Remove(w.tmp)
		w.err = fmt.Errorf("store: %w", err)
		return w.err
	}
	// A crash before the directory entry is durable resurrects the old
	// snapshot; the WAL (still holding the covered records) makes that
	// safe, but the commit cannot be acknowledged: leave the WAL fat and
	// surface the failure.
	if err := l.fs.SyncDir(l.dir); err != nil {
		w.err = fmt.Errorf("store: %w", err)
		return w.err
	}
	l.snapTime = time.Now()

	// Rewrite the WAL with the retained suffix: records appended after
	// the capture, i.e. LSNs above the snapshot's.
	retained := make([]byte, l.off-w.off)
	if _, err := l.wal.ReadAt(retained, w.off); err != nil {
		w.err = fmt.Errorf("store: %w", err)
		return w.err
	}
	tmpPath := filepath.Join(l.dir, walName+".tmp")
	nf, err := l.fs.Create(tmpPath)
	if err != nil {
		w.err = fmt.Errorf("store: %w", err)
		return w.err
	}
	_, werr = nf.Write([]byte(fileMagic))
	if werr == nil {
		_, werr = nf.Write(retained)
	}
	if serr := nf.Sync(); werr == nil {
		werr = serr
	}
	if werr != nil {
		nf.Close()
		l.fs.Remove(tmpPath)
		w.err = fmt.Errorf("store: %w", werr)
		return w.err
	}
	if err := l.fs.Rename(tmpPath, filepath.Join(l.dir, walName)); err != nil {
		nf.Close()
		l.fs.Remove(tmpPath)
		w.err = fmt.Errorf("store: %w", err)
		return w.err
	}
	serr := l.fs.SyncDir(l.dir)
	// nf's descriptor now refers to the file named "wal"; its write
	// position sits at the end of what was just written. Swap it in even
	// when the directory sync failed: in this process the rename already
	// happened, and if a crash resurrects the fat WAL its covered LSNs
	// are skipped on replay — so the swap is correct either way, but a
	// failed sync is still reported for the failure gauges.
	l.wal.Close()
	l.wal = nf
	l.off = int64(len(fileMagic)) + int64(len(retained))
	l.walRecords -= w.recs
	if serr != nil {
		w.err = fmt.Errorf("store: %w", serr)
		return w.err
	}
	return nil
}

// WALRecords returns how many records the WAL holds beyond the last
// snapshot — the compaction trigger and the wal_records gauge.
func (l *Log) WALRecords() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.walRecords
}

// WALBytes returns the WAL's current payload size — the byte-based
// compaction trigger (record counts alone let a WAL of large dataset
// payloads grow to gigabytes before the count trips).
func (l *Log) WALBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.off - int64(len(fileMagic))
}

// SnapshotTime returns when the current snapshot was written (for a
// freshly initialized directory, when the log was opened) — the
// snapshot_age gauge's anchor.
func (l *Log) SnapshotTime() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapTime
}

// LSN returns the last assigned log sequence number.
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Close closes the WAL file. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return nil
	}
	err := l.wal.Close()
	l.wal = nil
	l.poisoned = false
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
