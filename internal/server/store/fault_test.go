package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// Fault-injection tests of the log itself: every mutating filesystem
// operation of a scripted workload is failed in turn (sticky, as a
// yanked disk behaves) and the surviving files must replay to exactly
// the state the log acknowledged — never more, never less, never torn.

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want FaultClass
	}{
		{syscall.EINTR, FaultTransient},
		{syscall.EAGAIN, FaultTransient},
		{syscall.EBUSY, FaultTransient},
		{syscall.ETIMEDOUT, FaultTransient},
		{syscall.ENOSPC, FaultFatal},
		{syscall.EIO, FaultFatal},
		{errors.New("mystery"), FaultFatal},
		{ErrPoisoned, FaultCorrupting},
		{fmt.Errorf("store: %w", ErrPoisoned), FaultCorrupting},
		{&os.PathError{Op: "write", Path: "wal", Err: syscall.EINTR}, FaultTransient},
		{&os.PathError{Op: "write", Path: "wal", Err: syscall.ENOSPC}, FaultFatal},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	for class, name := range map[FaultClass]string{
		FaultTransient: "transient", FaultFatal: "fatal", FaultCorrupting: "corrupting",
	} {
		if class.String() != name {
			t.Errorf("FaultClass(%d).String() = %q, want %q", class, class.String(), name)
		}
	}
}

// faultWorkload drives one log through the full durable surface —
// appends, a one-chunk snapshot, more appends, a two-chunk snapshot, a
// final append — and returns the payloads the log ACKNOWLEDGED plus the
// first append it REJECTED. Errors are tolerated (the injected fault is
// sticky, so everything after it fails too); only acknowledged payloads
// join the expected state, but the first rejected append is the usual
// in-flight-at-crash ambiguity: if its bytes fully reached the WAL
// before the fsync failed and the rollback truncate failed too, replay
// legitimately surfaces it — exactly like a transaction whose commit
// timed out. Anything beyond that single maybe-record must never
// appear.
func faultWorkload(l *Log) (acked []string, maybe string) {
	doAppend := func(s string) {
		if err := l.Append(1, []byte(s)); err == nil {
			acked = append(acked, s)
		} else if maybe == "" && !errors.Is(err, ErrPoisoned) && !errors.Is(err, ErrClosed) {
			maybe = s
		}
	}
	for i := 0; i < 4; i++ {
		doAppend(fmt.Sprintf("a%d", i))
	}
	// State-neutral: success covers the records so far, failure leaves
	// the WAL as the restore source — recovered state is the same either
	// way, which is exactly what the sweep asserts.
	_ = writeSnapshot(l, []byte(strings.Join(acked, "\n")))
	for i := 0; i < 3; i++ {
		doAppend(fmt.Sprintf("b%d", i))
	}
	if w, err := l.BeginSnapshot(); err == nil {
		img := strings.Join(acked, "\n")
		half := len(img) / 2
		if w.WriteChunk([]byte(img[:half])) == nil && w.WriteChunk([]byte(img[half:])) == nil {
			_ = w.Commit()
		} else {
			w.Abort()
		}
	}
	for i := 0; i < 2; i++ {
		doAppend(fmt.Sprintf("c%d", i))
	}
	return acked, maybe
}

// recoveredStrings reconstructs the workload's state from a Recovery:
// the snapshot image is newline-joined payloads, each WAL record is one
// payload.
func recoveredStrings(rec Recovery) []string {
	var out []string
	if len(rec.Snapshot) > 0 {
		out = strings.Split(string(rec.Snapshot), "\n")
	}
	for _, r := range rec.Records {
		out = append(out, string(r.Data))
	}
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStoreFailNthSweep is the log-level crash-consistency sweep: run
// the workload once to count its mutating filesystem operations, then
// re-run it once per operation with that operation (and, sticky, every
// later one) failing, simulate the crash, and reopen from the surviving
// files. Whatever the log acknowledged must replay exactly.
func TestStoreFailNthSweep(t *testing.T) {
	count := NewErrFS(OS())
	l, _, err := OpenFS(count, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faultWorkload(l)
	l.Close()
	okSets := func(acked []string, maybe string) [][]string {
		sets := [][]string{acked}
		if maybe != "" {
			sets = append(sets, append(append([]string{}, acked...), maybe))
		}
		return sets
	}
	matchesAny := func(got []string, sets [][]string) bool {
		for _, s := range sets {
			if sameStrings(got, s) {
				return true
			}
		}
		return false
	}
	total := count.Ops()
	if total < 20 {
		t.Fatalf("workload performed only %d mutating ops; the sweep would be vacuous", total)
	}

	for _, tear := range []int{0, 7} {
		for i := int64(1); i <= total; i++ {
			name := fmt.Sprintf("failAt=%d,tear=%d", i, tear)
			dir := t.TempDir()
			efs := NewErrFS(OS())
			efs.SetTearBytes(tear)
			efs.SetFailAt(i, syscall.ENOSPC)

			l, _, err := OpenFS(efs, dir)
			if err != nil {
				// The fault hit Open itself; nothing was acknowledged, so any
				// surviving files must simply replay to empty state.
				l2, rec, err := Open(dir)
				if err != nil {
					t.Fatalf("%s: reopen after failed open: %v", name, err)
				}
				if got := recoveredStrings(rec); len(got) != 0 {
					t.Fatalf("%s: failed open acknowledged nothing but replayed %q", name, got)
				}
				l2.Close()
				continue
			}
			acked, maybe := faultWorkload(l)
			l.Close() // the crash: no flushes, no cleanup beyond what already ran

			valid := okSets(acked, maybe)
			l2, rec, err := Open(dir)
			if err != nil {
				t.Fatalf("%s: reopen: %v", name, err)
			}
			got := recoveredStrings(rec)
			if !matchesAny(got, valid) {
				t.Fatalf("%s: recovered %q, acknowledged %q (in-flight %q)", name, got, acked, maybe)
			}
			// Leftover temp files must not survive the reopen.
			for _, tmp := range []string{snapName + ".tmp", walName + ".tmp"} {
				if _, err := os.Stat(filepath.Join(dir, tmp)); !os.IsNotExist(err) {
					t.Fatalf("%s: %s survived reopen (stat err %v)", name, tmp, err)
				}
			}
			// Stability: a second clean reopen replays identically.
			l3, rec2 := reopen(t, l2)
			if got2 := recoveredStrings(rec2); !sameStrings(got2, got) {
				t.Fatalf("%s: second reopen recovered %q, first recovered %q", name, got2, got)
			}
			l3.Close()
		}
	}
}

// TestSnapshotENOSPCKeepsPreviousSnapshot fails each phase of a
// streaming snapshot with ENOSPC: the previous snapshot must remain the
// restore source, the acknowledged records must survive, and the
// partial temp file must be cleaned up on restart.
func TestSnapshotENOSPCKeepsPreviousSnapshot(t *testing.T) {
	for _, phase := range []string{"begin", "chunk", "commit"} {
		t.Run(phase, func(t *testing.T) {
			dir := t.TempDir()
			efs := NewErrFS(OS())
			l, _, err := OpenFS(efs, dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(1, []byte("one")); err != nil {
				t.Fatal(err)
			}
			if err := writeSnapshot(l, []byte("snap-v1")); err != nil {
				t.Fatal(err)
			}
			prevLSN := l.LSN()
			if err := l.Append(1, []byte("two")); err != nil {
				t.Fatal(err)
			}

			// Arm a one-shot ENOSPC on the phase under test.
			arm := func() { efs.SetFailAt(efs.Ops()+1, syscall.ENOSPC); efs.SetFailCount(1) }
			var serr error
			switch phase {
			case "begin":
				arm()
				_, serr = l.BeginSnapshot()
			case "chunk":
				w, err := l.BeginSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				arm()
				serr = w.WriteChunk([]byte("snap-v2"))
				w.Abort()
			case "commit":
				w, err := l.BeginSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := w.WriteChunk([]byte("snap-v2")); err != nil {
					t.Fatal(err)
				}
				arm()
				serr = w.Commit()
			}
			if serr == nil {
				t.Fatalf("phase %s did not surface the injected ENOSPC", phase)
			}
			if !errors.Is(serr, syscall.ENOSPC) {
				t.Fatalf("phase %s error = %v, want ENOSPC", phase, serr)
			}
			l.Close()

			l2, rec, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if !bytes.Equal(rec.Snapshot, []byte("snap-v1")) {
				t.Fatalf("restore source = %q, want the previous snapshot", rec.Snapshot)
			}
			if rec.SnapshotLSN != prevLSN {
				t.Fatalf("snapshot lsn = %d, want %d", rec.SnapshotLSN, prevLSN)
			}
			if len(rec.Records) != 1 || string(rec.Records[0].Data) != "two" {
				t.Fatalf("records = %+v, want the one post-snapshot append", rec.Records)
			}
			if _, err := os.Stat(filepath.Join(dir, snapName+".tmp")); !os.IsNotExist(err) {
				t.Fatalf("snapshot temp file survived restart (stat err %v)", err)
			}
		})
	}
}

// TestTornAppendTruncatedOnReplay tears a WAL append mid-record and
// breaks the rollback too: the log poisons itself, and replay cuts the
// torn bytes, keeping every acknowledged record.
func TestTornAppendTruncatedOnReplay(t *testing.T) {
	dir := t.TempDir()
	efs := NewErrFS(OS())
	l, _, err := OpenFS(efs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	efs.SetTearBytes(9) // half the record header lands on disk
	efs.SetFailAt(efs.Ops()+1, syscall.EIO)
	if err := l.Append(1, []byte("torn")); err == nil {
		t.Fatal("torn append reported success")
	}
	// The sticky fault also broke the rollback truncate: the log must
	// refuse further writes as poisoned, loudly.
	if err := l.Append(1, []byte("after")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append on poisoned log = %v, want ErrPoisoned", err)
	}
	if Classify(ErrPoisoned) != FaultCorrupting {
		t.Fatal("ErrPoisoned must classify as corrupting")
	}
	l.Close()

	l2, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "good" {
		t.Fatalf("records = %+v, want only the acknowledged one", rec.Records)
	}
	if rec.TruncatedBytes != 9 {
		t.Fatalf("truncated %d torn bytes, want 9", rec.TruncatedBytes)
	}
	// The clean reopen healed the file in place: appends work again.
	if err := l2.Append(1, []byte("resumed")); err != nil {
		t.Fatal(err)
	}
}

// TestDropSyncsCounted: with sync dropping on, operations succeed but
// the dropped-sync counter exposes that nothing was made durable — the
// lying-disk model the DropSyncs knob exists for.
func TestDropSyncsCounted(t *testing.T) {
	efs := NewErrFS(OS())
	efs.SetDropSyncs(true)
	l, _, err := OpenFS(efs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(l, []byte("s")); err != nil {
		t.Fatal(err)
	}
	if n := efs.DroppedSyncs(); n < 3 { // open's init sync, append's, snapshot's (files + dir)
		t.Fatalf("dropped %d syncs, want >= 3", n)
	}
}

// TestTransientFailCount: a bounded fault injects exactly n failures
// and then the disk "recovers" — the shape the append retry loop needs.
func TestTransientFailCount(t *testing.T) {
	efs := NewErrFS(OS())
	l, _, err := OpenFS(efs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	efs.SetFailAt(efs.Ops()+1, syscall.EINTR)
	efs.SetFailCount(1)
	if err := l.Append(1, []byte("x")); err == nil || !errors.Is(err, syscall.EINTR) {
		t.Fatalf("first append = %v, want EINTR", err)
	}
	if err := l.Append(1, []byte("x")); err != nil {
		t.Fatalf("append after recovery = %v", err)
	}
	if got := efs.Failures(); got != 1 {
		t.Fatalf("injected %d failures, want exactly 1", got)
	}
}

// TestSegmentSealFaults sweeps a fault over every mutating operation of
// a segment seal: the seal must report the failure, and whatever lands
// at the target path must be either absent or a complete, validating
// segment (the rename is the commit point; only a fully written temp
// file ever reaches it). A torn or partial file must never open.
func TestSegmentSealFaults(t *testing.T) {
	src := randomSDB(t, 1, 3, 200, 0, 2)
	count := NewErrFS(OS())
	if _, err := WriteSegmentFS(count, filepath.Join(t.TempDir(), "count.seg"), src, "fp"); err != nil {
		t.Fatal(err)
	}
	total := count.Ops()
	for i := int64(1); i <= total; i++ {
		sub := t.TempDir()
		efs := NewErrFS(OS())
		efs.SetTearBytes(16)
		efs.SetFailAt(i, syscall.ENOSPC)
		path := filepath.Join(sub, "ds.seg")
		if _, err := WriteSegmentFS(efs, path, src, "fp"); err == nil {
			t.Fatalf("failAt=%d: seal reported success", i)
		}
		seg, err := OpenSegment(path)
		if err == nil {
			// Only a post-rename fault (the trailing dir sync) can leave a
			// live file, and then it must be the complete segment.
			sameSource(t, src, seg)
			seg.Close()
		}
		// Either way the temp file must not linger as a live .seg sibling
		// that a directory scan would mistake for a sealed segment.
		entries, err := os.ReadDir(sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if name := e.Name(); name != "ds.seg" && !strings.HasSuffix(name, ".tmp") {
				t.Fatalf("failAt=%d: unexpected file %q after failed seal", i, name)
			}
		}
	}
}
