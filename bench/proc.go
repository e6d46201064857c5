package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// procStats is a snapshot of what the process has consumed so far, read from
// getrusage and runtime.MemStats; differences of two snapshots price a round.
type procStats struct {
	userCPU, sysCPU time.Duration
	ctxSwitches     int64
	mallocs         uint64
	allocBytes      uint64
	gcPause         time.Duration
}

func readProc() procStats {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{
		userCPU:     time.Duration(ru.Utime.Nano()),
		sysCPU:      time.Duration(ru.Stime.Nano()),
		ctxSwitches: int64(ru.Nvcsw + ru.Nivcsw),
		mallocs:     ms.Mallocs,
		allocBytes:  ms.TotalAlloc,
		gcPause:     time.Duration(ms.PauseTotalNs),
	}
}

func (a procStats) sub(b procStats) procStats {
	return procStats{
		userCPU:     a.userCPU - b.userCPU,
		sysCPU:      a.sysCPU - b.sysCPU,
		ctxSwitches: a.ctxSwitches - b.ctxSwitches,
		mallocs:     a.mallocs - b.mallocs,
		allocBytes:  a.allocBytes - b.allocBytes,
		gcPause:     a.gcPause - b.gcPause,
	}
}

func (p procStats) cpu() time.Duration { return p.userCPU + p.sysCPU }

// goroutinePeak samples runtime.NumGoroutine every 50 ms until stop is
// called, which waits for the sampler and returns the highest count seen.
// Only traced rounds run it.
func goroutinePeak() (stop func() int) {
	done := make(chan struct{})
	peak := runtime.NumGoroutine()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			}
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return peak
	}
}
