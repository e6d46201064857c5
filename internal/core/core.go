// Package core implements the paper's primary contribution as an
// executable engine: planning and running optimal multicasts of packetized
// messages on systems with smart network-interface support.
//
// A System bundles a topology, a deadlock-free router, and a base node
// ordering. Given a multicast Spec (source, destinations, packet count,
// tree policy, NI discipline), Plan selects the fanout bound k — optimal
// per Theorem 3 unless overridden — cuts the participant chain from the
// ordering, and builds the contention-aware k-binomial tree of Fig. 11.
// The plan can then be evaluated three ways, from fastest to most
// detailed: the closed-form model (analytic), the exact step schedule
// (stepsim), or the contention-modeling event simulation (sim).
package core

import (
	"fmt"
	"math"

	"repro/internal/ktree"
	"repro/internal/ordering"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/tree"
	"repro/internal/workload"
)

// TreePolicy selects how the multicast tree is shaped.
type TreePolicy int

const (
	// OptimalTree picks k per Theorem 3 for the spec's n and m.
	OptimalTree TreePolicy = iota
	// BinomialTree forces k = ceil(log2 n), the conventional baseline.
	BinomialTree
	// LinearTree forces k = 1, the pipeline-friendly chain.
	LinearTree
	// FixedKTree uses the Spec.K fanout bound as given.
	FixedKTree
)

// String names the policy.
func (p TreePolicy) String() string {
	switch p {
	case OptimalTree:
		return "optimal-k-binomial"
	case BinomialTree:
		return "binomial"
	case LinearTree:
		return "linear"
	case FixedKTree:
		return "fixed-k"
	default:
		return fmt.Sprintf("TreePolicy(%d)", int(p))
	}
}

// System is a simulatable machine: a network, its router, and the base
// ordering multicast chains are cut from.
type System struct {
	Net    *topology.Network
	Router routing.Router
	Ord    *ordering.Ordering

	// cube geometry, when the system is a k-ary n-cube (enables the
	// translation-invariant CubeChain; zero for irregular systems).
	arity, dims int
}

// NewIrregularSystem generates the paper's irregular testbed for a seed:
// a random connected switch network per cfg, up*/down* routing, and the
// CCO base ordering.
func NewIrregularSystem(cfg topology.IrregularConfig, seed uint64) *System {
	net := topology.Irregular(cfg, workload.NewRNG(seed))
	router := routing.NewUpDown(net)
	return &System{
		Net:    net,
		Router: router,
		Ord:    ordering.CCO(router),
	}
}

// NewCubeSystem builds a k-ary n-cube with e-cube routing and the
// dimension-ordered base ordering.
func NewCubeSystem(arity, dims int) *System {
	net := topology.Cube(arity, dims)
	return &System{
		Net:    net,
		Router: routing.NewECube(net, arity, dims),
		Ord:    ordering.Dimension(net, arity, dims),
		arity:  arity,
		dims:   dims,
	}
}

// NewMeshSystem builds an arity^dims mesh with dimension-ordered routing
// and the dimension-ordered base ordering. Multicast chains are cut by
// rotation (meshes lack the torus translation symmetry CubeChain uses).
func NewMeshSystem(arity, dims int) *System {
	net := topology.Mesh(arity, dims)
	return &System{
		Net:    net,
		Router: routing.NewMeshDimOrder(net, arity, dims),
		Ord:    ordering.Dimension(net, arity, dims),
	}
}

// WithoutLink returns a new irregular System on the same topology minus
// one switch-switch link: routing tables and the CCO ordering are rebuilt
// for the degraded network. It panics if removing the link partitions the
// switch graph (no routing can recover a partition) or if the system is
// not an up*/down*-routed irregular network.
func (s *System) WithoutLink(linkID int) *System {
	sys, err := s.WithoutLinkChecked(linkID)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	return sys
}

// WithoutLinkChecked is WithoutLink with errors instead of panics: the
// partition case surfaces as a *topology.PartitionError so the reliable
// delivery layer can distinguish "repairable" from "hosts genuinely cut
// off" when a link dies mid-operation.
func (s *System) WithoutLinkChecked(linkID int) (*System, error) {
	if _, ok := s.Router.(*routing.UpDown); !ok {
		return nil, fmt.Errorf("core: WithoutLink supports up*/down* (irregular) systems only")
	}
	net, err := s.Net.WithoutLinkChecked(linkID)
	if err != nil {
		return nil, err
	}
	router := routing.NewUpDown(net)
	return &System{
		Net:    net,
		Router: router,
		Ord:    ordering.CCO(router),
	}, nil
}

// Spec describes one multicast operation.
type Spec struct {
	Source  int
	Dests   []int
	Packets int
	Policy  TreePolicy
	K       int // fanout bound when Policy == FixedKTree
}

// Validate reports the first problem with the spec for this system.
func (s *System) Validate(spec Spec) error {
	if spec.Packets < 1 {
		return fmt.Errorf("core: packet count %d < 1", spec.Packets)
	}
	if len(spec.Dests) < 1 {
		return fmt.Errorf("core: empty destination set")
	}
	if spec.Policy == FixedKTree && spec.K < 1 {
		return fmt.Errorf("core: fixed-k policy with k=%d", spec.K)
	}
	seen := map[int]bool{spec.Source: true}
	if spec.Source < 0 || spec.Source >= s.Net.NumHosts() {
		return fmt.Errorf("core: source %d out of range", spec.Source)
	}
	for _, d := range spec.Dests {
		if d < 0 || d >= s.Net.NumHosts() {
			return fmt.Errorf("core: destination %d out of range", d)
		}
		if seen[d] {
			return fmt.Errorf("core: duplicate participant %d", d)
		}
		seen[d] = true
	}
	return nil
}

// Plan is a ready-to-run multicast: the chain, the tree and the selected
// fanout bound, plus the closed-form step count of the model.
type Plan struct {
	Spec  Spec
	Chain []int
	Tree  *tree.Tree
	K     int
	// ModelSteps is the paper's objective t1(n,k) + (m-1)k for the chosen
	// k — an upper bound on the exact schedule.
	ModelSteps int
}

// Plan selects k, cuts the chain and constructs the multicast tree.
func (s *System) Plan(spec Spec) *Plan {
	if err := s.Validate(spec); err != nil {
		panic(err)
	}
	n := len(spec.Dests) + 1
	var k int
	switch spec.Policy {
	case OptimalTree:
		k = s.OptimalK(n, spec.Packets)
	case BinomialTree:
		k = ktree.CeilLog2(n)
	case LinearTree:
		k = 1
	case FixedKTree:
		k = spec.K
	default:
		panic(fmt.Sprintf("core: unknown tree policy %v", spec.Policy))
	}
	var chain []int
	if s.arity > 0 {
		chain = ordering.CubeChain(s.Net, s.arity, s.dims, spec.Source, spec.Dests)
	} else {
		chain = s.Ord.Chain(spec.Source, spec.Dests)
	}
	return &Plan{
		Spec:       spec,
		Chain:      chain,
		Tree:       tree.KBinomial(chain, k),
		K:          k,
		ModelSteps: ktree.Steps(n, spec.Packets, k),
	}
}

// StepSchedule runs the exact step-granularity schedule of the plan under
// the given NI discipline.
func (p *Plan) StepSchedule(d stepsim.Discipline) *stepsim.Schedule {
	return stepsim.Run(p.Tree, p.Spec.Packets, d)
}

// Steps returns the measured step count of the plan under FPFS — exact,
// unlike ModelSteps which is the closed-form upper bound.
func (p *Plan) Steps() int {
	return stepsim.Steps(p.Tree, p.Spec.Packets, stepsim.FPFS)
}

// Conflicts counts same-step route conflicts of the plan on this system's
// router (see ordering.Conflicts).
func (s *System) Conflicts(p *Plan, d stepsim.Discipline) int {
	return ordering.Conflicts(p.Tree, p.Spec.Packets, d, s.Router)
}

// Simulate executes the plan on the event simulator with the given NI
// discipline and parameters, returning the full result.
func (s *System) Simulate(p *Plan, params sim.Params, d stepsim.Discipline) *sim.Result {
	return sim.Multicast(s.Router, p.Tree, p.Spec.Packets, params, d)
}

// Latency is shorthand for Simulate(...).Latency under FPFS, the paper's
// primary measurement.
func (s *System) Latency(spec Spec, params sim.Params) float64 {
	return s.Simulate(s.Plan(spec), params, stepsim.FPFS).Latency
}

// OptimalK returns Theorem 3's k for n nodes (source included) and m packets.
func (s *System) OptimalK(n, m int) int {
	k, _ := ktree.OptimalK(n, m)
	return k
}

// WithOrdering returns a copy of the system that cuts multicast chains
// from a different base ordering (for ordering ablations). The topology
// and router are shared.
func (s *System) WithOrdering(o *ordering.Ordering) *System {
	c := *s
	c.Ord = o
	return &c
}

// PlanMeasured selects the fanout bound empirically instead of by the
// Theorem 3 model: it simulates every k in [1, ceil(log2 n)] under FPFS
// with the given parameters and returns the plan with the lowest measured
// latency, plus that latency. This repairs the narrow band around the
// model's binomial-to-linear crossover where the step objective ignores
// route lengths (see EXPERIMENTS.md, fig13a); it costs ceil(log2 n)
// simulations per call, so it suits offline tuning, not per-message
// planning.
func (s *System) PlanMeasured(spec Spec, params sim.Params) (*Plan, float64) {
	if err := s.Validate(spec); err != nil {
		panic(err)
	}
	n := len(spec.Dests) + 1
	bestLat := math.Inf(1)
	var best *Plan
	for k := 1; k <= ktree.CeilLog2(n); k++ {
		cand := spec
		cand.Policy = FixedKTree
		cand.K = k
		p := s.Plan(cand)
		lat := s.Simulate(p, params, stepsim.FPFS).Latency
		if lat < bestLat {
			bestLat = lat
			best = p
		}
	}
	return best, bestLat
}
