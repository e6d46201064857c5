//go:build !race

package repro_test

// raceEnabled reports whether the race detector is instrumenting this
// build (see race_on_test.go).
const raceEnabled = false
