// Package par provides the small data-parallel loop shared by the
// ingestion paths (row-block CSV parsing, concurrent symbolization) and
// the pairwise NMI table. The
// miner keeps its own runParallel, which additionally threads per-worker
// scratch and cancellation; this helper is for simple index-parallel work
// with no failure mode beyond what fn records itself.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n), fanning the indexes out over up
// to workers goroutines (work-stealing via an atomic counter, so uneven
// item costs balance). workers <= 1 degenerates to a plain serial loop.
// For returns once every call has completed. fn must record its own
// results and errors at index i; distinct indexes never race.
func For(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var next int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
