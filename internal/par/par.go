// Package par is the tiny work-sharding primitive behind the experiment
// sweeps (internal/experiments), cmd/sweep and the check harness's
// RunParallel. It exists so every fan-out follows the same contract: work
// is identified by index, workers pull indices from a shared counter, and
// callers fold results back in index order — never completion order — so
// parallel output is byte-identical to serial output.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n), on up to workers goroutines.
// workers < 1 selects runtime.NumCPU(); workers == 1 (or n < 2) runs
// inline with no goroutines at all. fn must be safe for concurrent calls
// with distinct i and must communicate only through i-indexed storage;
// under that contract the observable result is independent of the worker
// count. For panics in fn propagate to the caller (the first one observed;
// the pool drains before re-panicking, so no goroutine leaks).
func For(n, workers int, fn func(i int)) {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
