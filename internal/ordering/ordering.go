// Package ordering produces orderings of hosts on which segment-recursive
// multicast trees (package tree) incur little or no link contention.
//
// The paper builds k-binomial trees on a contention-free ordering of the
// participating nodes: an ordering where messages between chain positions
// a < b never share links with messages between positions c < d when the
// intervals [a,b] and [c,d] do not overlap. On k-ary n-cubes with
// dimension-ordered routing such orderings exist (the dimension-ordered
// chain); on irregular networks with up*/down* routing none exists in
// general, and the Chain Concatenated Ordering (CCO) of Kesavan,
// Bondalapati & Panda (HPCA-3 1997) is used to keep contention minimal.
//
// This package reimplements CCO from its cited description: the hosts of
// each switch form a chain, and the per-switch chains are concatenated in
// depth-first order over the up*/down* spanning tree of the switch graph.
// Consecutive chain segments therefore route through a bounded set of tree
// links, which is what the recursive segment construction needs. Measured
// contention (Conflicts below) is reported by the experiments instead of
// being assumed zero.
package ordering

import (
	"fmt"
	"sort"

	"repro/internal/routing"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/tree"
)

// Ordering is a permutation of all hosts of a network, fixing the base
// chain from which multicast chains are cut.
type Ordering struct {
	name  string
	hosts []int
	pos   []int // host -> position
}

// New builds an Ordering from an explicit host permutation.
func New(name string, hosts []int) *Ordering {
	pos := make([]int, len(hosts))
	for i := range pos {
		pos[i] = -1
	}
	for i, h := range hosts {
		if h < 0 || h >= len(hosts) || pos[h] != -1 {
			panic(fmt.Sprintf("ordering: %q is not a permutation (host %d)", name, h))
		}
		pos[h] = i
	}
	return &Ordering{name: name, hosts: hosts, pos: pos}
}

// Name identifies the ordering ("cco", "dimension", "identity", "random").
func (o *Ordering) Name() string { return o.name }

// Hosts returns the full base chain. The slice is owned by the Ordering.
func (o *Ordering) Hosts() []int { return o.hosts }

// Chain cuts the multicast chain for a source and destination set: the
// participants sorted by base-chain position and cyclically rotated so the
// source comes first. Rotation preserves the cyclic adjacency structure of
// the base ordering, the standard construction for ordered-chain multicast.
func (o *Ordering) Chain(source int, dests []int) []int {
	members := append([]int{source}, dests...)
	seen := map[int]bool{}
	for _, h := range members {
		if h < 0 || h >= len(o.pos) {
			panic(fmt.Sprintf("ordering: participant %d out of range", h))
		}
		if seen[h] {
			panic(fmt.Sprintf("ordering: duplicate participant %d", h))
		}
		seen[h] = true
	}
	sort.Slice(members, func(i, j int) bool { return o.pos[members[i]] < o.pos[members[j]] })
	// Rotate so the source leads.
	src := 0
	for i, h := range members {
		if h == source {
			src = i
			break
		}
	}
	chain := make([]int, 0, len(members))
	chain = append(chain, members[src:]...)
	chain = append(chain, members[:src]...)
	return chain
}

// Identity returns the trivial 0..n-1 ordering, the uninformed baseline.
func Identity(n int) *Ordering {
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i
	}
	return New("identity", hosts)
}

// CCO computes the Chain Concatenated Ordering for an irregular network
// routed by up*/down*: a depth-first traversal of the routing spanning
// tree, appending each visited switch's hosts (ascending) as one chain.
func CCO(r *routing.UpDown) *Ordering {
	net := r.Network()
	hosts := make([]int, 0, net.NumHosts())
	var visit func(sw int)
	visit = func(sw int) {
		hosts = append(hosts, net.SwitchHosts(sw)...)
		for _, c := range r.TreeChildren(sw) {
			visit(c)
		}
	}
	visit(r.Root())
	if len(hosts) != net.NumHosts() {
		panic(fmt.Sprintf("ordering: CCO covered %d of %d hosts", len(hosts), net.NumHosts()))
	}
	return New("cco", hosts)
}

// Dimension computes the dimension-ordered chain for a k-ary n-cube: hosts
// sorted lexicographically by switch coordinate, most significant dimension
// first — i.e. plain switch-index order for topology.Cube's numbering. On
// hypercubes (arity 2) with e-cube routing this chain is contention-free:
// same-step transmissions of the segment-recursive trees are channel-
// disjoint (McKinley et al., verified by tests). On wider tori the
// positive-direction wrap-around links leave a small residue of conflicts,
// which the experiments report via Conflicts.
func Dimension(net *topology.Network, arity, dims int) *Ordering {
	if a, d, ok := net.Grid(); !ok || a != arity || d != dims {
		panic(fmt.Sprintf("ordering: dimension order on %d^%d switches needs that very grid, got %s",
			arity, dims, net.Summary()))
	}
	hosts := make([]int, 0, net.NumHosts())
	for s := 0; s < net.NumSwitches(); s++ {
		hosts = append(hosts, net.SwitchHosts(s)...)
	}
	return New("dimension", hosts)
}

// CubeChain cuts a multicast chain on a k-ary n-cube using source-relative
// translation instead of rotation: each participant is keyed by the
// coordinatewise difference to the source (mod arity), and participants are
// sorted by the resulting relative index. Because positive-direction e-cube
// routing is invariant under torus translation, the relative chain inherits
// the contention-freeness of the absolute dimension-ordered chain with the
// source at position zero — which plain rotation does not (a rotated chain
// wraps, and wrapped segments cross the rest of the chain).
func CubeChain(net *topology.Network, arity, dims, source int, dests []int) []int {
	members := append([]int{source}, dests...)
	seen := map[int]bool{}
	for _, h := range members {
		if h < 0 || h >= net.NumHosts() {
			panic(fmt.Sprintf("ordering: participant %d out of range", h))
		}
		if seen[h] {
			panic(fmt.Sprintf("ordering: duplicate participant %d", h))
		}
		seen[h] = true
	}
	srcCoord := topology.CubeCoord(net.HostSwitch(source), arity, dims)
	rel := func(h int) int {
		c := topology.CubeCoord(net.HostSwitch(h), arity, dims)
		idx, stride := 0, 1
		for d := 0; d < dims; d++ {
			idx += ((c[d] - srcCoord[d] + arity) % arity) * stride
			stride *= arity
		}
		return idx
	}
	sort.Slice(members, func(i, j int) bool { return rel(members[i]) < rel(members[j]) })
	if members[0] != source {
		panic("ordering: source not first after translation (multiple hosts per cube switch?)")
	}
	return members
}

// Conflicts counts contention in a multicast schedule: pairs of packet
// transmissions scheduled in the same step whose routes share a directed
// channel. A depth-contention-free tree scores zero.
func Conflicts(tr *tree.Tree, m int, d stepsim.Discipline, router routing.Router) int {
	sched := stepsim.Run(tr, m, d)
	byStep := map[int][]routing.Route{}
	maxStep := 0
	for _, s := range sched.Sends {
		byStep[s.Step] = append(byStep[s.Step], router.Route(s.From, s.To))
		if s.Step > maxStep {
			maxStep = s.Step
		}
	}
	conflicts := 0
	for step := 1; step <= maxStep; step++ {
		rs := byStep[step]
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				if routing.SharesChannel(rs[i], rs[j]) {
					conflicts++
				}
			}
		}
	}
	return conflicts
}

// PairwiseChainConflicts measures how close an ordering comes to the formal
// contention-free property over a participant chain: for all disjoint
// position intervals (a<b) < (c<d) drawn from consecutive chain neighbors,
// count route pairs sharing a channel. Exhaustive over adjacent pairs only
// (the full quadruple space is O(n^4)); adjacent pairs are what the
// recursive construction stresses.
func PairwiseChainConflicts(chain []int, router routing.Router) int {
	conflicts := 0
	for i := 0; i+1 < len(chain); i++ {
		a := router.Route(chain[i], chain[i+1])
		for j := i + 2; j+1 < len(chain); j++ {
			b := router.Route(chain[j], chain[j+1])
			if routing.SharesChannel(a, b) {
				conflicts++
			}
		}
	}
	return conflicts
}
