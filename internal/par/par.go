// Package par provides the small data-parallel loop shared by the
// ingestion paths (row-block CSV parsing, concurrent symbolization), the
// pairwise NMI table and the miner's level drains. The miner's
// runParallel calls For with one index per worker, and each worker holds
// its own scratch and checks for cancellation between the tasks it pulls.
// fn has no failure mode beyond what it records itself.
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
