package main

import (
	"math"
	"os"
	"runtime/debug"
	"testing"
	"time"
)

// TestCorrection: a round's times are scaled by the nominal reference time
// over the mean of the samples on either side of it.
func TestCorrection(t *testing.T) {
	if got := scale(refNominalMs, refNominalMs); got != 1 {
		t.Errorf("scale at nominal speed = %v, want 1", got)
	}
	// A host at half speed doubles the reference time; the correction halves.
	if got := scale(2*refNominalMs, 2*refNominalMs); got != 0.5 {
		t.Errorf("scale at half speed = %v, want 0.5", got)
	}
	var tm timing
	tm.add(100, 1)
	tm.add(300, 0.5)
	if tm.raw != 400 || tm.corrected != 250 || tm.value(true) != 250 || tm.value(false) != 400 {
		t.Errorf("timing %+v", tm)
	}
}

// TestHostRefSample: a sample is a positive time, recorded, and leaves the
// harness's collector setting as it found it.
func TestHostRefSample(t *testing.T) {
	h := newHostRef(2)
	prev := debug.SetGCPercent(250)
	defer debug.SetGCPercent(prev)
	s := h.sample()
	if !(s > 0) || math.IsInf(s, 0) || len(h.samples) != 1 || h.samples[0] != s {
		t.Errorf("sample %v, samples %v", s, h.samples)
	}
	if got := debug.SetGCPercent(250); got != 250 {
		t.Errorf("GC percent after a sample %d, want 250", got)
	}
}

// TestCPUMillis reads this process's own threads: a busy loop of 30 ms of
// wall time must show as at least 20 ms of CPU time.
func TestCPUMillis(t *testing.T) {
	before, err := cpuMillis(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 30*time.Millisecond; {
		for i := 0; i < 10000; i++ {
			x = xorshift(x)
		}
	}
	after, err := cpuMillis(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := after - before; d < 20 || x == 0 {
		t.Errorf("CPU time grew by %.2f ms over a 30 ms busy loop", d)
	}
}
