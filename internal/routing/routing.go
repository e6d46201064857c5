// Package routing computes deadlock-free routes between hosts:
//
//   - up*/down* routing for irregular switch networks (Autonet-style): a
//     BFS spanning tree of the switch graph orients every link; a legal
//     path takes zero or more "up" channels followed by zero or more
//     "down" channels, which provably breaks all channel-dependency cycles;
//   - dimension-ordered routing for k-ary n-cubes (e-cube) and meshes.
//
// A Route is the directed channel sequence a packet occupies, including the
// injection channel (host → switch) and the delivery channel
// (switch → host). Routes are what the contention model in package sim and
// the ordering metrics in package ordering consume.
package routing

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// Route is the channel sequence for one host-to-host packet, in traversal
// order. Channel IDs are those of topology.Link.Channel.
type Route struct {
	Src, Dst int   // host IDs
	Channels []int // directed channels, injection through delivery
	Switches []int // switch IDs visited, in order
}

// Hops returns the number of switch-to-switch channel traversals.
func (r Route) Hops() int { return len(r.Switches) - 1 }

// Router produces a route for every ordered host pair.
type Router interface {
	// Route returns the path from src host to dst host. It panics if
	// src == dst or either is out of range.
	Route(src, dst int) Route
	// Network returns the topology the router was built for.
	Network() *topology.Network
	// Name identifies the algorithm ("up*/down*", "e-cube", "mesh-dim-order").
	Name() string
}

// UpDown is an up*/down* router over an irregular switch network.
type UpDown struct {
	net   *topology.Network
	level []int // BFS level of each switch (root = 0)
	// next[phase][src][dst] is the precomputed next-hop link ID from switch
	// src toward switch dst when the packet is in the given phase (0 = may
	// still go up, 1 = committed to down), or -1 when unreachable in that
	// phase / on the diagonal.
	next [2][][]int
	// alts[phase][src][dst] lists every next-hop link lying on SOME
	// shortest legal path (next[...] is always alts[...][0]). Multipath
	// route selection draws from this set.
	alts [2][][][]int
	root int
	// pathSeed != 0 enables oblivious multipath: the next hop among tied
	// shortest alternatives is chosen by a per-(src,dst,hop) hash, giving
	// different (src,dst) pairs different paths while every individual
	// route stays deterministic.
	pathSeed uint64
}

// NewUpDown builds the router: BFS spanning-tree levels from the root
// switch, then all-pairs shortest legal paths. Root selection follows the
// usual Autonet heuristic: a switch with maximum degree (lowest ID wins
// ties), so the tree is shallow.
func NewUpDown(net *topology.Network) *UpDown {
	if !net.Connected() {
		panic("routing: up*/down* requires a connected switch graph")
	}
	s := net.NumSwitches()
	root, bestDeg := 0, -1
	for i := 0; i < s; i++ {
		if d := len(net.SwitchNeighbors(i)); d > bestDeg {
			root, bestDeg = i, d
		}
	}
	r := &UpDown{net: net, level: make([]int, s), root: root}
	// BFS levels.
	for i := range r.level {
		r.level[i] = -1
	}
	r.level[root] = 0
	queue := []int{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range net.SwitchNeighbors(cur) {
			if r.level[nb] < 0 {
				r.level[nb] = r.level[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	r.computeNextHops()
	return r
}

// NewUpDownMultipath builds an up*/down* router that spreads traffic over
// all shortest legal paths: ties between next hops are broken by a hash
// of (source, destination, current switch, seed) instead of always taking
// the same link. Every route remains deterministic and legal; different
// host pairs exercise different links, which can reduce tree-edge
// contention (see the abl-path experiment). seed must be non-zero.
func NewUpDownMultipath(net *topology.Network, seed uint64) *UpDown {
	if seed == 0 {
		panic("routing: multipath seed must be non-zero")
	}
	r := NewUpDown(net)
	r.pathSeed = seed
	return r
}

// isUp reports whether traversing from switch a to switch b is an "up"
// direction: toward the root. Links between same-level switches are
// oriented by switch ID, the standard tie-break.
func (r *UpDown) isUp(a, b int) bool {
	if r.level[a] != r.level[b] {
		return r.level[b] < r.level[a]
	}
	return b < a
}

// computeNextHops runs, for every destination switch, a reverse BFS over
// the legal-path state graph (switch, phase) where phase 0 = still allowed
// to go up, phase 1 = committed to down. A forward move a→b keeps phase 0
// only while every traversed channel is up; the first down channel commits
// to phase 1. Shortest legal paths are found by BFS from the destination
// over reversed edges.
func (r *UpDown) computeNextHops() {
	s := r.net.NumSwitches()
	for p := 0; p < 2; p++ {
		r.next[p] = make([][]int, s)
		r.alts[p] = make([][][]int, s)
		for src := range r.next[p] {
			r.next[p][src] = make([]int, s)
			r.alts[p][src] = make([][]int, s)
			for d := range r.next[p][src] {
				r.next[p][src][d] = -1
			}
		}
	}
	for dst := 0; dst < s; dst++ {
		// dist[phase][switch]: fewest hops from (switch, phase) to dst.
		const inf = 1 << 30
		dist := [2][]int{make([]int, s), make([]int, s)}
		nextHop := [2][]int{make([]int, s), make([]int, s)}
		for p := 0; p < 2; p++ {
			for i := range dist[p] {
				dist[p][i] = inf
				nextHop[p][i] = -1
			}
		}
		// Arriving at dst is legal in either phase.
		dist[0][dst], dist[1][dst] = 0, 0
		type state struct{ sw, phase int }
		queue := []state{{dst, 0}, {dst, 1}}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			// Find predecessors (a, pa) with a move a→cur.sw landing in
			// phase cur.phase.
			for _, a := range r.net.SwitchNeighbors(cur.sw) {
				up := r.isUp(a, cur.sw)
				// Moving a→cur.sw: if up, predecessor must still be in
				// phase 0 and remains phase 0. If down, the move commits
				// to phase 1; predecessor may be phase 0 or 1 — both are
				// represented by the same pre-move state, and the landing
				// phase is 1.
				var preds []int
				if up {
					if cur.phase == 0 {
						preds = []int{0}
					}
				} else {
					if cur.phase == 1 {
						preds = []int{0, 1}
					}
				}
				for _, pa := range preds {
					if dist[pa][a] > dist[cur.phase][cur.sw]+1 {
						dist[pa][a] = dist[cur.phase][cur.sw] + 1
						link, ok := r.net.SwitchLinkBetween(a, cur.sw)
						if !ok {
							panic("routing: neighbor without link")
						}
						nextHop[pa][a] = link.ID
						queue = append(queue, state{a, pa})
					}
				}
			}
		}
		for src := 0; src < s; src++ {
			if src == dst {
				continue
			}
			if dist[0][src] >= inf {
				panic(fmt.Sprintf("routing: no legal up*/down* path %d→%d", src, dst))
			}
			r.next[0][src][dst] = nextHop[0][src]
			r.next[1][src][dst] = nextHop[1][src]
			// Collect every next hop on some shortest legal path.
			for p := 0; p < 2; p++ {
				if dist[p][src] >= inf {
					continue
				}
				for _, nb := range r.net.SwitchNeighbors(src) {
					up := r.isUp(src, nb)
					var ok bool
					if up {
						ok = p == 0 && dist[0][nb] == dist[0][src]-1
					} else {
						ok = dist[1][nb] == dist[p][src]-1
					}
					if ok {
						link, found := r.net.SwitchLinkBetween(src, nb)
						if !found {
							panic("routing: neighbor without link")
						}
						r.alts[p][src][dst] = append(r.alts[p][src][dst], link.ID)
					}
				}
			}
		}
	}
}

// Route returns the up*/down* path between two distinct hosts.
func (r *UpDown) Route(src, dst int) Route {
	checkPair(r.net, src, dst)
	route := Route{Src: src, Dst: dst}
	hostLink := r.net.HostLink(src)
	route.Channels = append(route.Channels, hostLink.Channel(topology.Host(src)))
	cur := r.net.HostSwitch(src)
	end := r.net.HostSwitch(dst)
	route.Switches = append(route.Switches, cur)
	phase := 0
	for cur != end {
		lid := r.next[phase][cur][end]
		if r.pathSeed != 0 {
			if alts := r.alts[phase][cur][end]; len(alts) > 0 {
				lid = alts[pathHash(src, dst, cur, r.pathSeed)%uint64(len(alts))]
			}
		}
		if lid < 0 {
			panic(fmt.Sprintf("routing: no next hop %d→%d in phase %d", cur, end, phase))
		}
		link := r.net.Link(lid)
		nxt := link.Other(topology.Switch(cur)).Index
		if r.isUp(cur, nxt) {
			if phase == 1 {
				panic(fmt.Sprintf("routing: up after down on %d→%d", src, dst))
			}
		} else {
			phase = 1
		}
		route.Channels = append(route.Channels, link.Channel(topology.Switch(cur)))
		cur = nxt
		route.Switches = append(route.Switches, cur)
	}
	dstLink := r.net.HostLink(dst)
	route.Channels = append(route.Channels, dstLink.Channel(topology.Switch(end)))
	return route
}

// Network returns the routed topology.
func (r *UpDown) Network() *topology.Network { return r.net }

// Name returns "up*/down*".
func (r *UpDown) Name() string { return "up*/down*" }

// Root returns the spanning-tree root switch.
func (r *UpDown) Root() int { return r.root }

// Level returns the BFS level of a switch (root = 0).
func (r *UpDown) Level(sw int) int { return r.level[sw] }

// TreeChildren returns the spanning-tree children of switch sw: neighbors
// one level further from the root, ascending. Used by the CCO ordering.
func (r *UpDown) TreeChildren(sw int) []int {
	var out []int
	for _, nb := range r.net.SwitchNeighbors(sw) {
		if r.level[nb] == r.level[sw]+1 && r.treeParent(nb) == sw {
			out = append(out, nb)
		}
	}
	sort.Ints(out)
	return out
}

// treeParent returns the BFS-tree parent of sw: its lowest-ID neighbor one
// level closer to the root (-1 for the root itself).
func (r *UpDown) treeParent(sw int) int {
	if sw == r.root {
		return -1
	}
	for _, nb := range r.net.SwitchNeighbors(sw) { // ascending order
		if r.level[nb] == r.level[sw]-1 {
			return nb
		}
	}
	panic(fmt.Sprintf("routing: switch %d has no parent", sw))
}

// DimOrder is the dimension-ordered router for the arity^dims grids built
// by topology.Cube and topology.Mesh. Packets correct the lowest-differing
// dimension first. On a cube they always travel in the positive direction,
// with wrap-around — the classical deterministic e-cube scheme; on a mesh,
// which has no wrap-around, toward the destination coordinate in either
// direction — XY routing generalized to n dimensions, deadlock-free by the
// standard dimension-order argument.
type DimOrder struct {
	net         *topology.Network
	arity, dims int
	wrap        bool // a cube, as the network itself records (Torus)
	// plus[s*dims+d] is the ID of the link from switch s to its +1
	// neighbor in dimension d — the ring link at the last digit of a cube
	// of arity > 2 — or -1 where there is none. s is the link's A end, so
	// channel 2*ID leaves s across it and 2*ID+1 enters s.
	plus []int32
}

// NewECube returns the e-cube router of a network built by
// topology.Cube(arity, dims), and panics on any other.
func NewECube(net *topology.Network, arity, dims int) *DimOrder {
	return newDimOrder(net, arity, dims, true)
}

// NewMeshDimOrder returns the dimension-order router of a network built by
// topology.Mesh(arity, dims), and panics on any other.
func NewMeshDimOrder(net *topology.Network, arity, dims int) *DimOrder {
	return newDimOrder(net, arity, dims, false)
}

// newDimOrder checks the geometry the network itself records, not just its
// switch count: an irregular network with arity^dims switches would pass a
// count check and die on its first missing grid link mid-simulation.
func newDimOrder(net *topology.Network, arity, dims int, wrap bool) *DimOrder {
	e := &DimOrder{net: net, arity: arity, dims: dims, wrap: wrap}
	if a, d, ok := net.Grid(); !ok || a != arity || d != dims || net.Torus() != wrap {
		panic(fmt.Sprintf("routing: %s needs the %d^%d grid, got %s", e.Name(), arity, dims, net.Summary()))
	}
	e.plus = make([]int32, net.NumSwitches()*dims)
	for i := range e.plus {
		e.plus[i] = -1
	}
	for _, l := range net.Links() {
		if l.A.Kind != topology.SwitchNode {
			continue
		}
		a, b := l.A.Index, l.B.Index
		d, stride := 0, 1
		for (a/stride)%arity == (b/stride)%arity {
			d, stride = d+1, stride*arity
		}
		e.plus[a*dims+d] = int32(l.ID)
	}
	return e
}

// Route returns the dimension-ordered path between two distinct hosts.
func (e *DimOrder) Route(src, dst int) Route {
	checkPair(e.net, src, dst)
	cur := e.net.HostSwitch(src)
	end := e.net.HostSwitch(dst)
	hops := 0
	for d, stride := 0, 1; d < e.dims; d, stride = d+1, stride*e.arity {
		delta := (end/stride)%e.arity - (cur/stride)%e.arity
		if e.wrap {
			hops += (delta + e.arity) % e.arity
		} else {
			hops += max(delta, -delta)
		}
	}
	route := newGridRoute(src, dst, hops)
	route.Channels = append(route.Channels, e.net.HostLink(src).Channel(topology.Host(src)))
	route.Switches = append(route.Switches, cur)
	for d, stride := 0, 1; d < e.dims; d, stride = d+1, stride*e.arity {
		digit, want := (cur/stride)%e.arity, (end/stride)%e.arity
		up := e.wrap || digit < want
		for digit != want {
			next, nextDigit := cur+stride, digit+1
			switch {
			case !up:
				next, nextDigit = cur-stride, digit-1
			case digit == e.arity-1:
				next, nextDigit = cur-digit*stride, 0
			}
			// Leave across cur's own +1 link when stepping up; otherwise
			// (stepping down a mesh, or around the arity-2 cube, whose
			// one link per pair is the lower switch's) enter next's +1
			// link from its far end.
			if l := e.plus[cur*e.dims+d]; up && l >= 0 {
				route.Channels = append(route.Channels, 2*int(l))
			} else {
				route.Channels = append(route.Channels, 2*int(e.plus[next*e.dims+d])+1)
			}
			cur, digit = next, nextDigit
			route.Switches = append(route.Switches, cur)
		}
	}
	route.Channels = append(route.Channels, e.net.HostLink(dst).Channel(topology.Switch(end)))
	return route
}

// Network returns the routed topology.
func (e *DimOrder) Network() *topology.Network { return e.net }

// Name returns "e-cube" on a cube and "mesh-dim-order" on a mesh.
func (e *DimOrder) Name() string {
	if e.wrap {
		return "e-cube"
	}
	return "mesh-dim-order"
}

// newGridRoute returns an empty route sized for a path of the given
// switch-to-switch hop count — hops+2 channels (injection and delivery
// included) and hops+1 switches, carved from one backing array — so the
// dimension-order routers, which know the hop count from the coordinates,
// append without growing.
func newGridRoute(src, dst, hops int) Route {
	buf := make([]int, 2*hops+3)
	return Route{Src: src, Dst: dst,
		Channels: buf[: 0 : hops+2],
		Switches: buf[hops+2 : hops+2 : 2*hops+3],
	}
}

// pathHash mixes the route identity with the seed (splitmix64 finalizer).
func pathHash(src, dst, cur int, seed uint64) uint64 {
	z := seed ^ (uint64(src) << 40) ^ (uint64(dst) << 20) ^ uint64(cur)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func checkPair(net *topology.Network, src, dst int) {
	if src < 0 || src >= net.NumHosts() || dst < 0 || dst >= net.NumHosts() {
		panic(fmt.Sprintf("routing: host pair (%d,%d) out of range [0,%d)", src, dst, net.NumHosts()))
	}
	if src == dst {
		panic(fmt.Sprintf("routing: route from host %d to itself", src))
	}
}

// SharesChannel reports whether two routes contend: they occupy at least
// one common directed channel.
func SharesChannel(a, b Route) bool {
	if len(a.Channels) > len(b.Channels) {
		a, b = b, a
	}
	set := make(map[int]struct{}, len(a.Channels))
	for _, c := range a.Channels {
		set[c] = struct{}{}
	}
	for _, c := range b.Channels {
		if _, ok := set[c]; ok {
			return true
		}
	}
	return false
}
