// Package collectives implements MPI-style collective operations on top of
// the k-binomial multicast machinery — the paper's concluding challenge
// ("design optimal algorithms for other collective communication
// operations with such packetization and network interface support").
//
// All operations run over the trees planned by package core and are
// simulated on the shared-NI event simulator, so they contend for network
// interfaces and channels exactly like the paper's multicasts:
//
//   - Broadcast: one m-packet message from the source to every
//     destination (a multicast with the full host set).
//   - Scatter: a distinct m-packet message from the source to each
//     destination, streamed down the multicast tree (each tree path is a
//     session of the concurrent simulator; intermediate hosts relay).
//   - Gather: the inverse of scatter — every destination sends m packets
//     to the source along its reversed tree path.
//   - Reduce: element-wise combining along the reversed tree, pipelined
//     per packet: a node forwards packet j to its parent as soon as all
//     children's packet-j contributions (and its own) are in.
//   - Barrier: a 1-packet reduce followed by a 1-packet broadcast.
package collectives

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/tree"
)

// Result is the outcome of one collective operation.
type Result struct {
	// Latency is from operation start (all participants ready) until the
	// operation's completion condition holds at every host that has one.
	Latency float64
	// Sends is the number of packet injections performed.
	Sends int
	// ChannelWait aggregates contention over all transmissions.
	ChannelWait float64
	// K is the fanout bound of the underlying tree.
	K int
}

// Broadcast runs an m-packet broadcast from source to every other host of
// the system, over the tree policy's plan, under FPFS.
func Broadcast(sys *core.System, source, m int, policy core.TreePolicy, p sim.Params) *Result {
	dests := make([]int, 0, sys.Net.NumHosts()-1)
	for h := 0; h < sys.Net.NumHosts(); h++ {
		if h != source {
			dests = append(dests, h)
		}
	}
	return Multicast(sys, core.Spec{Source: source, Dests: dests, Packets: m, Policy: policy}, p)
}

// Multicast runs one multicast collective per the spec under FPFS.
func Multicast(sys *core.System, spec core.Spec, p sim.Params) *Result {
	plan := sys.Plan(spec)
	res := sys.Simulate(plan, p, stepsim.FPFS)
	return &Result{Latency: res.Latency, Sends: res.Sends, ChannelWait: res.ChannelWait, K: plan.K}
}

// Scatter sends a distinct m-packet message from the source to each
// destination. The messages stream down the multicast tree: destination
// d's message travels the tree path source -> ... -> d, relayed by the
// smart NIs of intermediate hosts. Messages are enqueued at the source in
// chain order (whole message per destination, the usual implementation).
func Scatter(sys *core.System, spec core.Spec, p sim.Params) *Result {
	plan := sys.Plan(spec)
	sessions := make([]sim.Session, 0, len(spec.Dests))
	for _, d := range spec.Dests {
		sessions = append(sessions, sim.Session{
			Tree:    pathTree(plan.Tree, d),
			Packets: spec.Packets,
		})
	}
	res := sim.Concurrent(sys.Router, sessions, p, stepsim.FPFS)
	return &Result{
		Latency:     res.Makespan,
		Sends:       res.Sends,
		ChannelWait: res.ChannelWait,
		K:           plan.K,
	}
}

// Gather collects a distinct m-packet message from every destination at
// the source, along reversed tree paths.
func Gather(sys *core.System, spec core.Spec, p sim.Params) *Result {
	plan := sys.Plan(spec)
	sessions := make([]sim.Session, 0, len(spec.Dests))
	for _, d := range spec.Dests {
		up := pathTree(plan.Tree, d)
		sessions = append(sessions, sim.Session{
			Tree:    reverseChainTree(up),
			Packets: spec.Packets,
		})
	}
	res := sim.Concurrent(sys.Router, sessions, p, stepsim.FPFS)
	return &Result{
		Latency:     res.Makespan,
		Sends:       res.Sends,
		ChannelWait: res.ChannelWait,
		K:           plan.K,
	}
}

// ReduceParams extends the technology constants with the per-packet
// combining cost at the host of an internal tree node.
type ReduceParams struct {
	Sim sim.Params
	// TCombine is the per-packet element-wise combining cost (0 models
	// NI-resident combining of small vectors).
	TCombine float64
}

// Reduce performs a pipelined reduction over the reversed multicast tree:
// every participant contributes an m-packet vector; packet j flows toward
// the root as soon as all children's packet-j contributions have arrived
// and been combined. The result lands at the source (tree root).
func Reduce(sys *core.System, spec core.Spec, rp ReduceParams) *Result {
	if err := rp.Sim.Validate(); err != nil {
		panic(err)
	}
	if rp.TCombine < 0 {
		panic(fmt.Sprintf("collectives: negative combine cost %f", rp.TCombine))
	}
	plan := sys.Plan(spec)
	tr := plan.Tree
	m := spec.Packets
	eng := sim.NewEngine(sys.Net.NumChannels())
	wire := rp.Sim.WireTime()

	type nodeState struct {
		need      []int // per packet: outstanding contributions (children + self)
		niFreeAt  float64
		nextSend  int // next packet index to send up (in-order pipeline)
		readyUpTo int // packets 0..readyUpTo-1 fully combined
	}
	states := map[int]*nodeState{}
	parentOf := map[int]int{}
	for _, v := range tr.Nodes() {
		st := &nodeState{need: make([]int, m)}
		for j := 0; j < m; j++ {
			st.need[j] = len(tr.Children(v)) + 1 // children + own contribution
		}
		states[v] = st
		if pv, ok := tr.Parent(v); ok {
			parentOf[v] = pv
		}
	}

	var finish float64
	var trySend func(v int)
	arrive := func(v, j int) {
		st := states[v]
		st.need[j]--
		if st.need[j] == 0 && j == st.readyUpTo {
			for st.readyUpTo < m && st.need[st.readyUpTo] == 0 {
				st.readyUpTo++
			}
			if v == tr.Root() {
				if st.readyUpTo == m {
					finish = eng.Now() + rp.Sim.THostRecv
				}
				return
			}
			trySend(v)
		}
	}
	sends := 0
	trySend = func(v int) {
		st := states[v]
		for st.nextSend < st.readyUpTo {
			j := st.nextSend
			st.nextSend++
			parent := parentOf[v]
			route := sys.Router.Route(v, parent)
			earliest := math.Max(eng.Now(), st.niFreeAt) + rp.Sim.TNISend
			start, arrival := eng.ReservePath(route, earliest, wire, rp.Sim.RouterDelay)
			st.niFreeAt = start + wire
			sends++
			jj, pp := j, parent
			eng.At(arrival+rp.Sim.TNIRecv+rp.TCombine, func() { arrive(pp, jj) })
		}
	}

	// All participants have their local contribution ready after t_s.
	for _, v := range tr.Nodes() {
		v := v
		eng.At(rp.Sim.THostSend, func() {
			for j := 0; j < m; j++ {
				arrive(v, j)
			}
		})
	}
	eng.Run()
	if states[tr.Root()].readyUpTo < m {
		panic("collectives: reduce did not complete (tree malformed?)")
	}
	return &Result{
		Latency: finish,
		Sends:   sends,
		K:       plan.K,
	}
}

// Barrier synchronizes all participants: a 1-packet reduce to the source
// followed by a 1-packet broadcast from it. The returned latency is the
// sum (the broadcast cannot start before the reduce completes).
func Barrier(sys *core.System, spec core.Spec, p sim.Params) *Result {
	one := spec
	one.Packets = 1
	up := Reduce(sys, one, ReduceParams{Sim: p})
	down := Multicast(sys, one, p)
	return &Result{
		Latency:     up.Latency + down.Latency,
		Sends:       up.Sends + down.Sends,
		ChannelWait: down.ChannelWait,
		K:           down.K,
	}
}

// pathTree extracts the root -> dest path of a multicast tree as a linear
// tree (the route a scattered message takes).
func pathTree(t *tree.Tree, dest int) *tree.Tree {
	var path []int
	for v := dest; ; {
		path = append(path, v)
		p, ok := t.Parent(v)
		if !ok {
			break
		}
		v = p
	}
	// path is dest..root; reverse it.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return tree.Linear(path)
}

// reverseChainTree flips a linear tree end-for-end.
func reverseChainTree(t *tree.Tree) *tree.Tree {
	var chain []int
	v := t.Root()
	for {
		chain = append(chain, v)
		cs := t.Children(v)
		if len(cs) == 0 {
			break
		}
		if len(cs) != 1 {
			panic("collectives: not a linear tree")
		}
		v = cs[0]
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return tree.Linear(chain)
}
