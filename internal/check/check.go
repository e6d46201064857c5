// Package check is a property-based differential testing harness for the
// multicast engines. It generates randomized instances — topology, node
// ordering, tree shape, message size, NI discipline, fault plan — from a
// single splitmix64 seed, runs every applicable backend (the closed-form
// model in analytic, the step scheduler in stepsim, the continuous-time
// event simulator in sim, the flit-level simulator in flitsim, and the
// reliable delivery machine) on each instance, and asserts cross-engine
// invariants: the engines must agree wherever the paper's theorems say
// they must, and order themselves wherever the theorems give bounds.
//
// On a violation the harness greedily shrinks the instance to a minimal
// reproducer (fewer hosts, fewer packets, simpler fault plan) and emits a
// one-line replay token (`mcastcheck -seed S -case C`); because both
// generation and shrinking are deterministic functions of (seed, case),
// the token alone reproduces the shrunk counterexample. See DESIGN.md §8
// for the invariant catalogue and the triage workflow.
package check

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/ktree"
	"repro/internal/live"
	"repro/internal/ordering"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TopoKind selects the topology family of an instance.
type TopoKind int

const (
	// TopoIrregular is a random switch network (topology.Irregular) with
	// up*/down* routing and the CCO ordering — the paper's testbed family.
	TopoIrregular TopoKind = iota
	// TopoCube is a k-ary n-cube with e-cube routing and the
	// translation-invariant dimension-ordered chain.
	TopoCube
	// TopoMesh is an arity^dims mesh with dimension-ordered routing.
	TopoMesh
)

// String names the topology kind.
func (t TopoKind) String() string {
	switch t {
	case TopoIrregular:
		return "irregular"
	case TopoCube:
		return "cube"
	case TopoMesh:
		return "mesh"
	default:
		return fmt.Sprintf("TopoKind(%d)", int(t))
	}
}

// Instance is one generated test case: everything needed to rebuild the
// system, the multicast plan, and the fault plan deterministically. All
// fields are plain values so the shrinker can mutate them freely.
type Instance struct {
	Topo TopoKind

	// Irregular geometry: Switches switches with Ports ports each,
	// HostsPer hosts attached per switch, generated from TopoSeed.
	Switches, Ports, HostsPer int
	TopoSeed                  uint64

	// Cube / mesh geometry.
	Arity, Dims int

	// IdentityOrd replaces the informed base ordering (CCO / dimension)
	// with the identity permutation — the uninformed baseline. Ignored on
	// cubes, which cut chains by torus translation.
	IdentityOrd bool

	// The multicast operation.
	Source  int
	Dests   []int
	Packets int
	Disc    stepsim.Discipline
	// K is the fanout bound; 0 selects the Theorem-3 optimal k.
	K int

	// Fault plan for the reliable-delivery differential arm.
	DropRate  float64
	FaultSeed uint64

	// PayloadBytes sizes the byte-exact reliable delivery payload (its
	// packet count is derived by message.Packetize, independent of
	// Packets, which drives the timing engines).
	PayloadBytes int

	// Crashes schedules host crash faults for the crash-tolerance arm
	// (at most two, destinations only — the harness never crashes the
	// source, whose failure trivially fails the whole operation).
	Crashes []CrashSpec
}

// CrashSpec schedules one host crash in abstract protocol steps; the
// crash invariants map steps onto the simulator clock with the harness
// calibration constants, so shrunk instances stay readable as integers.
type CrashSpec struct {
	Host   int
	AtStep int // crash instant, in steps >= 1
	// RecoverStep schedules a crash-recovery rejoin; 0 means crash-stop.
	// When set it must exceed AtStep.
	RecoverStep int
}

// Hosts returns the instance's host count.
func (in Instance) Hosts() int {
	if in.Topo == TopoIrregular {
		return in.Switches * in.HostsPer
	}
	n := 1
	for i := 0; i < in.Dims; i++ {
		n *= in.Arity
	}
	return n
}

// Validate reports the first structural problem that would make the
// instance unbuildable. Generated instances are valid by construction;
// this guards the shrinker's mutations.
func (in Instance) Validate() error {
	switch in.Topo {
	case TopoIrregular:
		if in.Switches < 1 || in.HostsPer < 1 || in.Ports < 2 {
			return fmt.Errorf("check: irregular geometry %d switches x %d hosts, %d ports",
				in.Switches, in.HostsPer, in.Ports)
		}
		// Two spare ports per switch guarantee the random spanning tree
		// always completes (one spare suffices for a single switch pair).
		spare := in.Ports - in.HostsPer
		if spare < 2 && !(in.Switches <= 2 && spare >= 1) {
			return fmt.Errorf("check: %d spare ports per switch cannot wire %d switches", spare, in.Switches)
		}
	case TopoCube, TopoMesh:
		if in.Arity < 2 || in.Dims < 1 || in.Hosts() > 256 {
			return fmt.Errorf("check: cube geometry %d-ary %d-dim", in.Arity, in.Dims)
		}
	default:
		return fmt.Errorf("check: unknown topology kind %d", int(in.Topo))
	}
	hosts := in.Hosts()
	if hosts < 2 {
		return fmt.Errorf("check: %d hosts", hosts)
	}
	if in.Source < 0 || in.Source >= hosts {
		return fmt.Errorf("check: source %d out of range [0,%d)", in.Source, hosts)
	}
	if len(in.Dests) < 1 {
		return fmt.Errorf("check: empty destination set")
	}
	seen := map[int]bool{in.Source: true}
	for _, d := range in.Dests {
		if d < 0 || d >= hosts {
			return fmt.Errorf("check: destination %d out of range [0,%d)", d, hosts)
		}
		if seen[d] {
			return fmt.Errorf("check: duplicate participant %d", d)
		}
		seen[d] = true
	}
	if in.Packets < 1 || in.Packets > 64 {
		return fmt.Errorf("check: packet count %d", in.Packets)
	}
	if in.K < 0 || in.K > 16 {
		return fmt.Errorf("check: fanout bound %d", in.K)
	}
	if in.Disc != stepsim.FPFS && in.Disc != stepsim.FCFS && in.Disc != stepsim.Conventional {
		return fmt.Errorf("check: unknown discipline %d", int(in.Disc))
	}
	if in.DropRate < 0 || in.DropRate >= 1 {
		return fmt.Errorf("check: drop rate %f", in.DropRate)
	}
	if in.PayloadBytes < 0 || in.PayloadBytes > 1<<16 {
		return fmt.Errorf("check: payload %d bytes", in.PayloadBytes)
	}
	if len(in.Crashes) > 2 {
		return fmt.Errorf("check: %d crashes, at most 2", len(in.Crashes))
	}
	crashed := map[int]bool{}
	for _, cr := range in.Crashes {
		if cr.Host == in.Source || !seen[cr.Host] {
			return fmt.Errorf("check: crash host %d is not a destination", cr.Host)
		}
		if crashed[cr.Host] {
			return fmt.Errorf("check: duplicate crash host %d", cr.Host)
		}
		crashed[cr.Host] = true
		if cr.AtStep < 1 || cr.AtStep > 256 {
			return fmt.Errorf("check: crash step %d out of range [1,256]", cr.AtStep)
		}
		if cr.RecoverStep != 0 && (cr.RecoverStep <= cr.AtStep || cr.RecoverStep > 512) {
			return fmt.Errorf("check: recovery step %d not after crash step %d", cr.RecoverStep, cr.AtStep)
		}
	}
	return nil
}

// String renders the instance compactly for violation reports.
func (in Instance) String() string {
	var b strings.Builder
	switch in.Topo {
	case TopoIrregular:
		fmt.Fprintf(&b, "irregular[sw=%d hps=%d ports=%d tseed=%#x]",
			in.Switches, in.HostsPer, in.Ports, in.TopoSeed)
	default:
		fmt.Fprintf(&b, "%s[%d^%d]", in.Topo, in.Arity, in.Dims)
	}
	ord := "informed"
	if in.IdentityOrd {
		ord = "identity"
	}
	k := "opt"
	if in.K > 0 {
		k = fmt.Sprintf("%d", in.K)
	}
	fmt.Fprintf(&b, " hosts=%d src=%d dests=%v m=%d disc=%s k=%s ord=%s",
		in.Hosts(), in.Source, in.Dests, in.Packets, in.Disc, k, ord)
	if in.DropRate > 0 {
		fmt.Fprintf(&b, " drop=%.3f fseed=%#x", in.DropRate, in.FaultSeed)
	}
	for _, cr := range in.Crashes {
		if cr.RecoverStep > 0 {
			fmt.Fprintf(&b, " crash=%d@%d..%d", cr.Host, cr.AtStep, cr.RecoverStep)
		} else {
			fmt.Fprintf(&b, " crash=%d@%d", cr.Host, cr.AtStep)
		}
	}
	fmt.Fprintf(&b, " payload=%dB", in.PayloadBytes)
	return b.String()
}

// world is the built form of an instance shared by all invariants: the
// system, the plan, and the sizes the checks keep re-deriving.
type world struct {
	inst Instance
	sys  *core.System
	plan *core.Plan
	n, m int

	// liveRel memoizes the chaos-plane live arm: one run of the shipped
	// runtime in virtual time (milliseconds of wall clock), shared by
	// every live-faulty invariant of the instance.
	liveRelOnce sync.Once
	liveRelRes  *live.ReliableResult
	liveRelErr  error
}

// build constructs the system and plan for an instance. It panics (as the
// underlying packages do) on unbuildable instances; Check wraps it in a
// recover so a construction panic surfaces as a violation, not a crash.
func build(inst Instance) *world {
	var sys *core.System
	switch inst.Topo {
	case TopoIrregular:
		cfg := topology.IrregularConfig{
			Hosts:    inst.Switches * inst.HostsPer,
			Switches: inst.Switches,
			Ports:    inst.Ports,
		}
		sys = core.NewIrregularSystem(cfg, inst.TopoSeed)
	case TopoCube:
		sys = core.NewCubeSystem(inst.Arity, inst.Dims)
	case TopoMesh:
		sys = core.NewMeshSystem(inst.Arity, inst.Dims)
	default:
		panic(fmt.Sprintf("check: unknown topology kind %d", int(inst.Topo)))
	}
	if inst.IdentityOrd && inst.Topo != TopoCube {
		sys = sys.WithOrdering(ordering.Identity(sys.Net.NumHosts()))
	}
	spec := core.Spec{
		Source:  inst.Source,
		Dests:   inst.Dests,
		Packets: inst.Packets,
		Policy:  core.OptimalTree,
	}
	if inst.K > 0 {
		spec.Policy = core.FixedKTree
		spec.K = inst.K
	}
	return &world{
		inst: inst,
		sys:  sys,
		plan: sys.Plan(spec),
		n:    len(inst.Dests) + 1,
		m:    inst.Packets,
	}
}

// kMax returns ceil(log2 n) for the instance's multicast set — the largest
// meaningful fanout bound.
func (w *world) kMax() int { return ktree.CeilLog2(w.n) }

// payload builds the deterministic reliable-delivery payload of the
// instance: PayloadBytes bytes drawn from a splitmix64 stream seeded by
// the fault seed, so payload content replays with the instance.
func (in Instance) payload() []byte {
	rng := workload.NewRNG(in.FaultSeed ^ 0xda7a_b17e)
	b := make([]byte, in.PayloadBytes)
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	return b
}
