// Package psim is the exported door to the packet simulator's windowed
// scheduler: the same lossless session model as package sim (the NI
// disciplines, path reservation and result assembly are sim's, not copies
// of them), driven by a pool of workers instead of sim's serial loop.
// Hosts are partitioned across cfg.Workers workers, each worker processes
// its partition's events through conservative lookahead windows — no
// window ever creates an event inside itself — and every shared-state
// effect is resolved at the window barrier in the order the serial loop
// would have resolved it, so a psim run is byte-identical to
// sim.Concurrent at ANY worker count: same event order, same traces, same
// stats. The construction lives in internal/sim/windowed.go; this package
// keeps the names callers use.
package psim

import (
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stepsim"
)

// Config controls the parallel execution mode: Workers, Parts, Routes and
// Stats.
type Config = sim.WindowConfig

// WindowStats reports how a parallel run synchronized.
type WindowStats = sim.WindowStats

// Concurrent is the parallel counterpart of sim.Concurrent: identical
// results, computed by cfg.Workers workers.
func Concurrent(router routing.Router, sessions []sim.Session, p sim.Params, disc stepsim.Discipline, cfg Config) *sim.ConcurrentResult {
	res, _ := sim.ConcurrentWindowed(router, sessions, p, disc, false, cfg)
	return res
}

// ConcurrentTraced is the parallel counterpart of sim.ConcurrentTraced;
// the trace is byte-identical to the serial loop's.
func ConcurrentTraced(router routing.Router, sessions []sim.Session, p sim.Params, disc stepsim.Discipline, traced bool, cfg Config) (*sim.ConcurrentResult, []sim.TraceEvent) {
	return sim.ConcurrentWindowed(router, sessions, p, disc, traced, cfg)
}
