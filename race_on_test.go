//go:build race

package repro_test

// raceEnabled reports whether the race detector is instrumenting this
// build. Allocation-budget tests skip under -race: shadow-memory
// bookkeeping inflates AllocsPerRun far past any real regression.
const raceEnabled = true
