package reliable

import (
	"errors"
	"slices"

	"repro/internal/membership"
	"repro/internal/routing"
	"repro/internal/topology"
)

// This file makes the machine the repair brain's Runtime. The brain
// decides every repair (brain.go); the machine answers its questions from
// the simulated network and carries its decisions out on the data plane.

// exhausted hands a tree edge whose retry budget is spent to the brain,
// which repairs the subtree behind it onto surviving routes — or abandons
// what the network genuinely cannot reach anymore.
func (mc *machine) exhausted(es *edgeState) {
	if es.dead {
		return // an incarnation the brain already retired
	}
	mc.applyKills()
	mc.brain.Exhausted(es.from, es.to)
	if mc.flush() {
		mc.res.Repairs++
	}
	mc.checkFinished()
}

// Install brings up a fresh incarnation of edge a->c; flush replays into
// it once the brain's decision is complete.
func (mc *machine) Install(a, c int) {
	mc.nodes[a].children = append(mc.nodes[a].children, c)
	mc.newEdge(a, c)
	mc.installed = append(mc.installed, [2]int{a, c})
}

// Retire kills edge a->c's incarnation: late ACKs, timers and queued ops
// all check dead/gen and become no-ops; the child leaves the parent's
// forwarding set.
func (mc *machine) Retire(a, c int) {
	mc.edges[[2]int{a, c}].dead = true
	p := mc.nodes[a]
	p.children = slices.DeleteFunc(p.children, func(x int) bool { return x == c })
}

// Alive reports whether v's host is up right now.
func (mc *machine) Alive(v int) bool { return !mc.faults.HostDown(v, mc.eng.Now()) }

// Member reports whether the group has not confirmed v crashed.
func (mc *machine) Member(v int) bool {
	return mc.det == nil || mc.det.Phase(v) != membership.Crashed
}

// Done reports whether v holds every packet.
func (mc *machine) Done(v int) bool { return mc.nodes[v].haveCount == mc.m }

// Chain cuts a repair's chain from the system's base ordering.
func (mc *machine) Chain(adopter int, orphans []int) []int {
	return mc.sys.Ord.Chain(adopter, orphans)
}

// Reachable reports whether v is reachable from a on the degraded
// network; without rebuild machinery for this system nothing is.
func (mc *machine) Reachable(a, v int) bool {
	return !mc.repairUnavailable && mc.hostReachable(a, v)
}

// flush has each parent the brain's last decision gave new children replay
// the packets it already holds into them — packet-major, like the root's
// FPFS seeding, parents in the order they first gained a child; packets it
// still lacks forward on arrival through the normal receive path. It
// reports whether the decision installed any edge.
func (mc *machine) flush() bool {
	added := map[int][]int{}
	var order []int
	for _, e := range mc.installed {
		if _, ok := added[e[0]]; !ok {
			order = append(order, e[0])
		}
		added[e[0]] = append(added[e[0]], e[1])
	}
	for _, u := range order {
		un := mc.nodes[u]
		for j := 0; j < mc.m; j++ {
			if !un.have[j] {
				continue
			}
			for _, c := range added[u] {
				un.queue = append(un.queue, op{from: u, to: c, seq: j, gen: mc.edges[[2]int{u, c}].gen})
			}
		}
		mc.pump(u)
	}
	grafted := len(mc.installed) > 0
	mc.installed = mc.installed[:0]
	return grafted
}

// applyKills folds every link kill scheduled at or before now into the
// routed system view. Removable links rebuild routing on the degraded
// network (dense link renumbering tracked in origToCur/curToOrig); a kill
// that would partition the switch graph, or that severs a host's only
// link, stays in the graph as a dead bridge — no surviving route needs
// it, and Reachable steers repairs around it.
func (mc *machine) applyKills() {
	changed := false
	for _, l := range mc.faults.KilledLinks(mc.eng.Now()) {
		if mc.applied[l] {
			continue
		}
		mc.applied[l] = true
		cur := mc.origToCur[l]
		if cur < 0 {
			continue
		}
		link := mc.sys.Net.Link(cur)
		if link.A.Kind == topology.HostNode || link.B.Kind == topology.HostNode {
			mc.res.Partitioned = true
			continue
		}
		next, err := mc.sys.WithoutLinkChecked(cur)
		if err != nil {
			var pe *topology.PartitionError
			if errors.As(err, &pe) {
				mc.res.Partitioned = true
				continue
			}
			// No rebuild machinery for this system (e.g. cube routing):
			// orphans can only be abandoned.
			mc.repairUnavailable = true
			return
		}
		mc.curToOrig = append(append([]int(nil), mc.curToOrig[:cur]...), mc.curToOrig[cur+1:]...)
		mc.origToCur[l] = -1
		for o, c := range mc.origToCur {
			if c > cur {
				mc.origToCur[o] = c - 1
			}
		}
		mc.sys = next
		mc.degraded = true
		changed = true
	}
	if changed {
		mc.routes = map[[2]int]routing.Route{}
	}
}

// hostReachable reports whether host v is reachable from host u over the
// current system view minus the dead bridges applyKills left in place.
func (mc *machine) hostReachable(u, v int) bool {
	net := mc.sys.Net
	if mc.applied[mc.curToOrig[net.HostLink(v).ID]] || mc.applied[mc.curToOrig[net.HostLink(u).ID]] {
		return false
	}
	src, dst := net.HostSwitch(u), net.HostSwitch(v)
	if src == dst {
		return true
	}
	seen := make([]bool, net.NumSwitches())
	seen[src] = true
	stack := []int{src}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lid := range net.SwitchLinks(s) {
			if mc.applied[mc.curToOrig[lid]] {
				continue
			}
			o := net.Link(lid).Other(topology.Switch(s))
			if o.Kind != topology.SwitchNode || seen[o.Index] {
				continue
			}
			seen[o.Index] = true
			stack = append(stack, o.Index)
		}
	}
	return seen[dst]
}
