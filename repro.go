// Package repro is a Go reproduction of Kesavan & Panda, "Optimal
// Multicast with Packetization and Network Interface Support" (ICPP 1997):
// k-binomial multicast trees for multi-packet messages on systems whose
// network interfaces forward multicast packets First-Packet-First-Served
// (FPFS).
//
// The package is a facade over the implementation packages:
//
//   - internal/ktree:       N(s,k) coverage, t1, and the Theorem 3 optimal-k search
//   - internal/tree:        linear / binomial / k-binomial tree construction
//   - internal/stepsim:     exact step-granularity schedules (Figs. 5 and 8)
//   - internal/topology:    irregular switch networks, k-ary n-cubes, meshes
//   - internal/routing:     up*/down* (single- and multipath), e-cube, mesh XY
//   - internal/ordering:    CCO, POC, and dimension-ordered chains
//   - internal/sim:         contention-modeling discrete-event simulation
//   - internal/flitsim:     cycle-accurate flit-level wormhole validation
//   - internal/collectives: scatter/gather/reduce/barrier on the same trees
//   - internal/message:     packet wire format, fragmentation, reassembly
//   - internal/comm:        rank-addressed groups with byte-level collectives
//   - internal/analytic:    the paper's closed-form latency and buffer models
//   - internal/core:        the planning/execution engine this facade wraps
//
// # Quick start
//
//	sys := repro.NewIrregularSystem(repro.DefaultIrregularConfig(), 1)
//	spec := repro.Spec{Source: 0, Dests: []int{5, 9, 23, 44}, Packets: 8}
//	plan := sys.Plan(spec)                       // optimal k-binomial tree
//	res := sys.Simulate(plan, repro.DefaultParams(), repro.FPFS)
//	fmt.Printf("k=%d latency=%.1fus\n", plan.K, res.Latency)
package repro

import (
	"repro/internal/analytic"
	"repro/internal/collectives"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ktree"
	"repro/internal/live"
	"repro/internal/membership"
	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/topology"
)

// Re-exported core types. See the corresponding internal packages for
// full documentation.
type (
	// System is a simulatable machine: network + routing + base ordering.
	System = core.System
	// Spec describes one multicast operation.
	Spec = core.Spec
	// Plan is a ready-to-run multicast (chain, tree, chosen k).
	Plan = core.Plan
	// TreePolicy selects the multicast tree shape.
	TreePolicy = core.TreePolicy
	// Params are the technology constants of the event simulation.
	Params = sim.Params
	// Result is the outcome of one simulated multicast.
	Result = sim.Result
	// Discipline is the NI forwarding discipline.
	Discipline = stepsim.Discipline
	// IrregularConfig parameterizes the random irregular network generator.
	IrregularConfig = topology.IrregularConfig
	// Costs is the reduced parameter set of the closed-form models.
	Costs = analytic.Costs
)

// Tree policies.
const (
	OptimalTree  = core.OptimalTree
	BinomialTree = core.BinomialTree
	LinearTree   = core.LinearTree
	FixedKTree   = core.FixedKTree
)

// NI forwarding disciplines.
const (
	FPFS         = stepsim.FPFS
	FCFS         = stepsim.FCFS
	Conventional = stepsim.Conventional
)

// NewIrregularSystem generates a random irregular switch network (per cfg)
// with up*/down* routing and the CCO base ordering, deterministically from
// the seed. This is the paper's Section 5.2 testbed.
func NewIrregularSystem(cfg IrregularConfig, seed uint64) *System {
	return core.NewIrregularSystem(cfg, seed)
}

// NewCubeSystem builds a k-ary n-cube with e-cube routing and the
// dimension-ordered base ordering.
func NewCubeSystem(arity, dims int) *System {
	return core.NewCubeSystem(arity, dims)
}

// NewMeshSystem builds an arity^dims mesh with dimension-ordered routing.
func NewMeshSystem(arity, dims int) *System {
	return core.NewMeshSystem(arity, dims)
}

// Session is one multicast of a concurrent workload (see Concurrent).
type Session = sim.Session

// ConcurrentResult reports a multi-session simulation.
type ConcurrentResult = sim.ConcurrentResult

// Concurrent simulates several multicast sessions sharing the network and
// the per-host network interfaces, under one forwarding discipline.
func Concurrent(sys *System, sessions []Session, p Params, d Discipline) *ConcurrentResult {
	return sim.Concurrent(sys.Router, sessions, p, d)
}

// DefaultIrregularConfig is the paper's testbed shape: 64 hosts on 16
// eight-port switches.
func DefaultIrregularConfig() IrregularConfig { return topology.DefaultIrregular() }

// DefaultParams are the paper's Section 5.2 technology constants.
func DefaultParams() Params { return sim.DefaultParams() }

// Fault injection and reliable delivery (see internal/fault,
// internal/reliable and internal/live).
type (
	// FaultPlan describes the dynamic faults of one run: seeded packet
	// drop/corruption/ACK-loss probabilities, NI stall windows, scheduled
	// link kills and host crashes, times in microseconds. The zero value
	// is lossless.
	FaultPlan = fault.Plan
	// LinkKill schedules the death of one link at an absolute time.
	LinkKill = fault.Kill
	// HostStall freezes one host's NI send engine during [From, Until).
	HostStall = fault.Stall
	// FaultStats counts the faults a run actually injected.
	FaultStats = fault.Stats
	// ReliableConfig tunes the ACK/retransmission protocol.
	ReliableConfig = reliable.Config
	// ReliableResult reports one reliable multicast delivery, on the run clock.
	ReliableResult = live.ReliableResult
	// DeliveryError is the typed failure when destinations stay
	// undelivered (partition or exhausted retries).
	DeliveryError = reliable.DeliveryError
	// HostCrash schedules a crash-stop (RecoverAt 0) or crash-recovery
	// host fault at an absolute time.
	HostCrash = fault.Crash
	// CrashError is the typed failure when host crashes leave delivery
	// below the configured quorum (or take down the root).
	CrashError = reliable.CrashError
	// DeliveryStatus is the three-valued reliable-delivery verdict.
	DeliveryStatus = reliable.Status
	// GroupView is one epoch-numbered membership view installed by the
	// heartbeat failure detector during a crash-tolerant delivery.
	GroupView = membership.View
)

// Reliable-delivery verdicts (see reliable.Status).
const (
	// Delivered: every destination received the full message.
	Delivered = reliable.Delivered
	// DeliveredPartial: crashes left some destinations unreached, but at
	// least the configured quorum completed.
	DeliveredPartial = reliable.DeliveredPartial
	// DeliveryFailed: delivery fell below quorum (or the root crashed).
	DeliveryFailed = reliable.Failed
)

// DefaultReliableConfig returns the reliable protocol defaults.
func DefaultReliableConfig() ReliableConfig { return reliable.DefaultConfig() }

// DeliverReliable multicasts payload over the plan's tree under a fault
// plan on the reliable runtime in virtual time over the switched network
// (ACKs, retransmission, crash adoption, repair around killed links).
// Under a zero fault plan it reproduces Simulate's FPFS latencies to the
// nanosecond. The error is a *DeliveryError or a *CrashError on a shortfall.
func DeliverReliable(sys *System, plan *Plan, payload []byte, cfg ReliableConfig, fp FaultPlan) (*ReliableResult, error) {
	return live.Deliver(sys, plan, payload, cfg, fp)
}

// CollectiveResult reports one collective operation (see package
// internal/collectives).
type CollectiveResult = collectives.Result

// Broadcast runs an m-packet broadcast from source to every other host
// under FPFS, over the given tree policy.
func Broadcast(sys *System, source, m int, policy TreePolicy, p Params) *CollectiveResult {
	return collectives.Broadcast(sys, source, m, policy, p)
}

// Scatter sends a distinct m-packet message from the source to each
// destination, streamed down the multicast tree.
func Scatter(sys *System, spec Spec, p Params) *CollectiveResult {
	return collectives.Scatter(sys, spec, p)
}

// Gather collects a distinct m-packet message from every destination at
// the source along reversed tree paths.
func Gather(sys *System, spec Spec, p Params) *CollectiveResult {
	return collectives.Gather(sys, spec, p)
}

// Reduce performs a pipelined per-packet reduction over the reversed
// multicast tree, delivering the combined result at the source.
func Reduce(sys *System, spec Spec, p Params) *CollectiveResult {
	return collectives.Reduce(sys, spec, collectives.ReduceParams{Sim: p})
}

// Barrier synchronizes the participants: a 1-packet reduce followed by a
// 1-packet broadcast.
func Barrier(sys *System, spec Spec, p Params) *CollectiveResult {
	return collectives.Barrier(sys, spec, p)
}

// OptimalK returns the Theorem 3 optimal fanout bound for an m-packet
// multicast to a set of n nodes (source included), with the resulting
// FPFS step count t1 + (m-1)k.
func OptimalK(n, m int) (k, steps int) { return ktree.OptimalK(n, m) }

// Coverage returns N(s, k), the number of nodes a k-binomial tree covers
// in s steps (Lemma 1).
func Coverage(s, k int) int { return ktree.Coverage(s, k) }

// ModelLatency evaluates the paper's closed-form FPFS latency model
// t_s + (t1 + (m-1)k)*t_step + t_r for the optimal k.
func ModelLatency(n, m int, c Costs) (latency float64, k int) {
	return analytic.SmartOptimal(n, m, c)
}

// Group is a rank-addressed communicator over a subset of hosts with
// byte-level collective operations (see internal/comm).
type Group = comm.Group

// BcastReliableResult reports a crash-tolerant group broadcast (see
// Group.BcastReliable).
type BcastReliableResult = comm.BcastReliableResult

// NewGroup creates a communicator over the given hosts (rank i =
// hosts[i]).
func NewGroup(sys *System, hosts []int) (*Group, error) { return comm.New(sys, hosts) }
