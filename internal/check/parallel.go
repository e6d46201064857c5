package check

import (
	"sort"
	"sync"

	"repro/internal/par"
)

// RunParallel is Run with the cases fanned out by par.For over up to
// workers goroutines (workers < 1 selects runtime.NumCPU(); workers == 1
// is Run itself). Because generation, checking and shrinking are all pure
// functions of (seed, case), sharding the case space changes nothing
// observable: the returned Report — the failures found, their shrunk
// reproducers, their replay tokens, and their order — is byte-identical
// to Run's for every worker count.
//
// The merge is by case index, not completion order. The one subtlety is
// maxFail: the serial runner stops at the case where the maxFail-th
// failure (in case order) occurs and truncates Cases to that index + 1.
// The parallel runner reproduces this exactly: it keeps a shrinking bound
// on the last case that could still matter (the maxFail-th smallest
// failing case seen so far), cases at or beyond the bound are skipped,
// and the merged failure list is cut to the first maxFail in case order.
// Cases below the bound are never skipped, so the final list equals the
// serial one.
func RunParallel(seed uint64, n, maxFail, workers int) *Report {
	if workers == 1 {
		return Run(seed, n, maxFail)
	}
	var (
		mu       sync.Mutex
		bound    = n // cases >= bound cannot affect the report
		failures []Failure
	)
	par.For(n, workers, func(c int) {
		mu.Lock()
		skip := c >= bound
		mu.Unlock()
		if skip {
			return
		}
		f := runCase(seed, c)
		if f == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		failures = append(failures, *f)
		if maxFail > 0 && len(failures) >= maxFail {
			// The maxFail-th smallest failing case so far is an upper
			// bound on where the serial run would stop.
			bound = min(bound, nthSmallestCase(failures, maxFail)+1)
		}
	})

	sort.Slice(failures, func(i, j int) bool { return failures[i].Case < failures[j].Case })
	r := &Report{Seed: seed, Cases: n, Failures: failures}
	if maxFail > 0 && len(failures) >= maxFail {
		r.Failures = failures[:maxFail:maxFail]
		r.Cases = failures[maxFail-1].Case + 1
	}
	if len(r.Failures) == 0 {
		r.Failures = nil
	}
	return r
}

// nthSmallestCase returns the n-th smallest (1-based) Case among the
// failures without disturbing their order.
func nthSmallestCase(failures []Failure, n int) int {
	cases := make([]int, len(failures))
	for i := range failures {
		cases[i] = failures[i].Case
	}
	sort.Ints(cases)
	return cases[n-1]
}
