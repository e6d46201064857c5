// Package experiments defines one registered, reproducible experiment per
// figure of the paper's evaluation, shared by the cmd/figures binary, the
// top-level benchmarks, and EXPERIMENTS.md.
//
// Every experiment is deterministic: workloads derive from
// workload.Sweep's fixed seeds, so two runs of the same experiment produce
// identical tables.
package experiments

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Config scales an experiment run.
type Config struct {
	// Sweep controls the trials-per-topology methodology. The default
	// matches the paper: 30 destination sets x 10 topologies.
	Sweep workload.Sweep
	// Params are the technology constants (defaults per Section 5.2).
	Params sim.Params
}

// Default returns the paper-faithful configuration.
func Default() Config {
	return Config{Sweep: workload.DefaultSweep(), Params: sim.DefaultParams()}
}

// Quick returns a reduced configuration (3 topologies x 5 trials) for
// tests and benchmark iterations; shapes are preserved, error bars widen.
func Quick() Config {
	s := workload.DefaultSweep()
	s.Trials = 5
	s.Topologies = 3
	return Config{Sweep: s, Params: sim.DefaultParams()}
}

// Result is the output of one experiment.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
}

// String renders all tables and notes.
func (r *Result) String() string {
	out := fmt.Sprintf("== %s: %s ==\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Experiment is a registered reproduction of one paper artifact.
type Experiment struct {
	ID    string // "fig12a", "buffer", ...
	Title string
	Run   func(Config) *Result
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// systems builds (and memoizes per call) the sweep's irregular systems.
func systems(cfg Config) []*core.System {
	out := make([]*core.System, cfg.Sweep.Topologies)
	for t := range out {
		out[t] = core.NewIrregularSystem(topology.DefaultIrregular(), cfg.Sweep.TopologySeed(t))
	}
	return out
}

// trials runs fn once per (topology, trial) of the sweep methodology,
// with that trial's RNG, on GOMAXPROCS goroutines, and returns the results
// in (topology, trial) order. fn runs concurrently with itself, so it may
// only read what the trials share; callers fold the results in order, so
// tables are identical for every worker count.
func trials[T any](cfg Config, fn func(t int, rng *workload.RNG) T) []T {
	n := cfg.Sweep.Trials
	out := make([]T, cfg.Sweep.Topologies*n)
	par.For(len(out), runtime.GOMAXPROCS(0), func(j int) {
		out[j] = fn(j/n, cfg.Sweep.TrialRNG(j/n, j%n))
	})
	return out
}

// sweep runs fn over every trial and folds the i-th value of each trial's
// row into the i-th Summary.
func sweep(cfg Config, fn func(t int, rng *workload.RNG) []float64) []stats.Summary {
	var sums []stats.Summary
	for _, row := range trials(cfg, fn) {
		if sums == nil {
			sums = make([]stats.Summary, len(row))
		}
		for i, v := range row {
			sums[i].Add(v)
		}
	}
	return sums
}

// means returns the mean of each summary.
func means(sums []stats.Summary) []float64 {
	out := make([]float64, len(sums))
	for i := range sums {
		out[i] = sums[i].Mean()
	}
	return out
}

// draw draws a source and dests destinations from rng on s and returns the
// m-packet multicast spec for them.
func draw(s *core.System, rng *workload.RNG, dests, m int, policy core.TreePolicy) core.Spec {
	set := workload.DestSet(rng, s.Net.NumHosts(), dests)
	return core.Spec{Source: set[0], Dests: set[1:], Packets: m, Policy: policy}
}

// sweepLatency returns the mean simulated latency of the given policy under
// NI discipline d over the full methodology, for dests destinations and m
// packets.
func sweepLatency(cfg Config, sys []*core.System, dests, m int, policy core.TreePolicy, d stepsim.Discipline) float64 {
	return sweep(cfg, func(t int, rng *workload.RNG) []float64 {
		s := sys[t]
		return []float64{s.Simulate(s.Plan(draw(s, rng, dests, m, policy)), cfg.Params, d).Latency}
	})[0].Mean()
}
