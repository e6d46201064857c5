package reliable

import (
	"errors"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Geometry is the switch geometry of a reliable run over a core.System:
// the routes its frames take, on the original network's channel numbering
// (which the run's channel table and the fault plan's link IDs use), and
// the two answers a repair needs of it. It is not an engine: it moves no
// packet and keeps no clock. Fold, asked at an exhaustion, folds every
// link kill due by then into a degraded system view
// (core.System.WithoutLinkChecked), so routes rebuilt afterwards go
// around the dead links; Reachable answers from that view, and Chain cuts
// a repair's chain from the system's base ordering. One goroutine drives
// it: the run's.
type Geometry struct {
	sys    *core.System // the current view, degraded as kills are folded in
	faults *fault.State

	// origToCur and curToOrig translate between the degraded network's
	// densely renumbered link IDs and the original ones; a removed link
	// maps to -1.
	origToCur, curToOrig []int
	folded               map[int]bool // original link IDs already folded in
	unavailable          bool         // the system cannot rebuild its routing
	partitioned          bool
	routes               map[[2]int]routing.Route
}

// NewGeometry returns the geometry of sys under the armed fault plane.
func NewGeometry(sys *core.System, faults *fault.State) *Geometry {
	links := len(sys.Net.Links())
	g := &Geometry{
		sys:       sys,
		faults:    faults,
		origToCur: make([]int, links),
		curToOrig: make([]int, links),
		folded:    map[int]bool{},
		routes:    map[[2]int]routing.Route{},
	}
	for i := range links {
		g.origToCur[i], g.curToOrig[i] = i, i
	}
	return g
}

// Channels returns the original network's directed channel count.
func (g *Geometry) Channels() int { return 2 * len(g.curToOrig) }

// Partitioned reports whether a folded kill cut hosts off entirely.
func (g *Geometry) Partitioned() bool { return g.partitioned }

// Route returns the current route u->v on the original channel numbering.
func (g *Geometry) Route(u, v int) routing.Route {
	key := [2]int{u, v}
	if r, ok := g.routes[key]; ok {
		return r
	}
	r := g.sys.Router.Route(u, v)
	mapped := make([]int, len(r.Channels))
	for i, c := range r.Channels {
		mapped[i] = 2*g.curToOrig[c/2] + c&1
	}
	r.Channels = mapped
	g.routes[key] = r
	return r
}

// Fold folds every link killed at or before now (microseconds) into the
// system view. A removable link rebuilds routing on the degraded network;
// a kill that would partition the switch graph, or that severs a host's
// only link, stays in the graph as a dead bridge — no surviving route
// needs it, and Reachable steers repairs around it.
func (g *Geometry) Fold(now float64) {
	changed := false
	for _, l := range g.faults.KilledLinks(now) {
		if g.folded[l] {
			continue
		}
		g.folded[l] = true
		cur := g.origToCur[l]
		if link := g.sys.Net.Link(cur); link.A.Kind == topology.HostNode || link.B.Kind == topology.HostNode {
			g.partitioned = true
			continue
		}
		next, err := g.sys.WithoutLinkChecked(cur)
		if err != nil {
			var pe *topology.PartitionError
			if errors.As(err, &pe) {
				g.partitioned = true
				continue
			}
			// No rebuild machinery for this system (e.g. cube routing):
			// orphans can only be abandoned.
			g.unavailable = true
			return
		}
		g.curToOrig = append(g.curToOrig[:cur:cur], g.curToOrig[cur+1:]...)
		g.origToCur[l] = -1
		for o, c := range g.origToCur {
			if c > cur {
				g.origToCur[o] = c - 1
			}
		}
		g.sys = next
		changed = true
	}
	if changed {
		clear(g.routes)
	}
}

// Chain cuts a repair's chain from the system's base ordering.
func (g *Geometry) Chain(adopter int, orphans []int) []int {
	return g.sys.Ord.Chain(adopter, orphans)
}

// Reachable reports whether host v is reachable from host a over the
// current view minus its dead bridges; without rebuild machinery for the
// system nothing is.
func (g *Geometry) Reachable(a, v int) bool {
	net := g.sys.Net
	if g.unavailable || g.folded[g.curToOrig[net.HostLink(v).ID]] || g.folded[g.curToOrig[net.HostLink(a).ID]] {
		return false
	}
	src, dst := net.HostSwitch(a), net.HostSwitch(v)
	seen := make([]bool, net.NumSwitches())
	seen[src] = true
	for stack := []int{src}; len(stack) > 0; {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lid := range net.SwitchLinks(s) {
			if g.folded[g.curToOrig[lid]] {
				continue
			}
			if o := net.Link(lid).Other(topology.Switch(s)); o.Kind == topology.SwitchNode && !seen[o.Index] {
				seen[o.Index] = true
				stack = append(stack, o.Index)
			}
		}
	}
	return seen[dst]
}
