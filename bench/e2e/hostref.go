package main

import (
	"math/bits"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// The speed of a shared host is not constant. On the two-vCPU reference
// host a fixed computation takes up to 1.7 times longer when the machine's
// other tenants are busy, in spells that last from seconds to minutes, and
// its CPU time stretches with its wall time. A time measured there moves
// between runs of identical code by more than any useful bound, however
// long the runs (README.md, "Host speed").
//
// The harness therefore times a reference computation of its own between
// operations, while no operation is in flight and the server is idle, and
// scales every time it gates by refNominalMs over the reference's time
// around it. The reference is fixed code of the harness that calls nothing
// of the program under test: a slow spell of the host stretches both it
// and the operations, a slower program only the operations.

// refNominalMs is the time of one reference unit the corrected times are
// scaled to: about its median on the reference host, where it ranged from
// 1.2 to 1.9 ms with the spell, so that a corrected time there reads close
// to the wall clock.
const refNominalMs = 1.5

// refUnit is one goroutine's working set of the reference computation,
// made once so that its cache-resident part allocates nothing.
type refUnit struct {
	a, b []uint64
	keys []int
}

func newRefUnit() *refUnit {
	u := &refUnit{a: make([]uint64, 2048), b: make([]uint64, 2048), keys: make([]int, 1024)}
	x := uint64(88172645463325252)
	for i := range u.a {
		x = xorshift(x)
		u.a[i] = x
		x = xorshift(x)
		u.b[i] = x
	}
	return u
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// work is one unit of the reference computation, about refNominalMs on
// the reference host. Half of it is cache-resident: a dependent integer chain,
// word-wise intersections and population counts of two bitmaps, and sorts
// of a thousand integers. The other half builds and walks a map of four
// thousand small heap slices, as the miner's candidate and occurrence
// tables do; a busy neighbour slows that part more than the first.
func (u *refUnit) work() uint64 {
	x := uint64(1)
	for i := 0; i < 100_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	acc := x
	for r := uint64(0); r < 40; r++ {
		for i := range u.a {
			acc += uint64(bits.OnesCount64(u.a[i] & (u.b[i] ^ r)))
		}
	}
	y := acc | 1
	for r := 0; r < 4; r++ {
		for i := range u.keys {
			y = xorshift(y)
			u.keys[i] = int(y >> 40)
		}
		sort.Ints(u.keys)
	}
	m := make(map[int][]int)
	for i := 0; i < 4000; i++ {
		m[i*7919%100003] = make([]int, 8+i%16)
	}
	for k, v := range m {
		acc += uint64(k + len(v))
	}
	return acc + uint64(u.keys[len(u.keys)/2])
}

// refReps is how many units each goroutine times per sample.
const refReps = 3

// hostRef times the reference computation.
type hostRef struct {
	units   []*refUnit
	samples []float64 // ms of one unit, per sample
	sink    uint64
}

// newHostRef prepares one working set per processor the server may use.
func newHostRef(procs int) *hostRef {
	h := &hostRef{}
	for i := 0; i < procs; i++ {
		h.units = append(h.units, newRefUnit())
	}
	return h
}

// sample runs refReps units on every working set at once, each on a
// goroutine locked to its own thread, as the server's workers share the
// host's processors, and returns the median time of one unit in ms. The
// harness's collector is off meanwhile, so its own garbage cannot land in
// a sample.
func (h *hostRef) sample() float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var mu sync.Mutex
	var times []float64
	var wg sync.WaitGroup
	for _, u := range h.units {
		wg.Add(1)
		go func(u *refUnit) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			var sink uint64
			for r := 0; r < refReps; r++ {
				t0 := time.Now()
				sink += u.work()
				d := ms(time.Since(t0))
				mu.Lock()
				times = append(times, d)
				mu.Unlock()
			}
			mu.Lock()
			h.sink += sink
			mu.Unlock()
		}(u)
	}
	wg.Wait()
	s := median(times)
	h.samples = append(h.samples, s)
	return s
}

// scale is the factor that corrects a time measured between two reference
// samples to the nominal host speed.
func scale(before, after float64) float64 {
	return refNominalMs / ((before + after) / 2)
}
