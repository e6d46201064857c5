package routing

import (
	"testing"

	"repro/internal/topology"
)

func TestMeshShape(t *testing.T) {
	// 4x4 mesh: 16 switches, 2*4*3 = 24 switch links + 16 host links.
	net := topology.Mesh(4, 2)
	if net.NumSwitches() != 16 || len(net.Links()) != 16+24 {
		t.Fatalf("4x4 mesh: %s", net.Summary())
	}
	if !net.Connected() {
		t.Fatal("mesh disconnected")
	}
	// Corner switch 0 has 2 neighbors; center switch 5 has 4.
	if got := len(net.SwitchNeighbors(0)); got != 2 {
		t.Errorf("corner has %d neighbors, want 2", got)
	}
	if got := len(net.SwitchNeighbors(5)); got != 4 {
		t.Errorf("center has %d neighbors, want 4", got)
	}
}

func TestMeshRoutesValidAndMinimal(t *testing.T) {
	net := topology.Mesh(4, 2)
	r := NewMeshDimOrder(net, 4, 2)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			route := r.Route(src, dst)
			validateRoute(t, net, route, src, dst)
			// Hop count = Manhattan distance.
			a, b := topology.CubeCoord(src, 4, 2), topology.CubeCoord(dst, 4, 2)
			want := abs(a[0]-b[0]) + abs(a[1]-b[1])
			if route.Hops() != want {
				t.Errorf("route %d->%d: %d hops, want %d", src, dst, route.Hops(), want)
			}
		}
	}
}

func TestMeshDimensionOrderProperty(t *testing.T) {
	net := topology.Mesh(3, 3)
	r := NewMeshDimOrder(net, 3, 3)
	for src := 0; src < 27; src += 4 {
		for dst := 0; dst < 27; dst += 5 {
			if src == dst {
				continue
			}
			route := r.Route(src, dst)
			highest := -1
			for i := 1; i < len(route.Switches); i++ {
				a := topology.CubeCoord(route.Switches[i-1], 3, 3)
				b := topology.CubeCoord(route.Switches[i], 3, 3)
				d := -1
				for dim := 0; dim < 3; dim++ {
					if a[dim] != b[dim] {
						d = dim
					}
				}
				if d < highest {
					t.Fatalf("route %d->%d corrects dim %d after %d", src, dst, d, highest)
				}
				highest = d
			}
		}
	}
}

func TestMeshDeadlockFree(t *testing.T) {
	// Dimension-ordered mesh routing: the channel dependency graph over
	// all host pairs must be acyclic.
	net := topology.Mesh(3, 2)
	r := NewMeshDimOrder(net, 3, 2)
	deps := map[int]map[int]bool{}
	for src := 0; src < 9; src++ {
		for dst := 0; dst < 9; dst++ {
			if src == dst {
				continue
			}
			route := r.Route(src, dst)
			for i := 1; i < len(route.Channels); i++ {
				a, b := route.Channels[i-1], route.Channels[i]
				if deps[a] == nil {
					deps[a] = map[int]bool{}
				}
				deps[a][b] = true
			}
		}
	}
	if hasCycle(deps, net.NumChannels()) {
		t.Fatal("mesh channel dependency graph has a cycle")
	}
}

func TestMeshRouterIdentity(t *testing.T) {
	net := topology.Mesh(2, 2)
	r := NewMeshDimOrder(net, 2, 2)
	if r.Name() != "mesh-dim-order" || r.Network() != net {
		t.Error("identity accessors wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong mesh size")
		}
	}()
	NewMeshDimOrder(net, 3, 2)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestGridRouteAllocBudget pins the dimension-order routers at one
// allocation per route — the hop count is known from the coordinates, so
// Channels and Switches share one exactly-sized backing array. Growing
// both by append from nil cost ~6.5 allocations per route on a 100x100
// mesh, 65k for the 9,999 tree edges of a 10k-host multicast set-up. The
// exact fill (len == cap) also proves the hop count is computed right.
func TestGridRouteAllocBudget(t *testing.T) {
	const arity, dims = 100, 2
	mesh := NewMeshDimOrder(topology.Mesh(arity, dims), arity, dims)
	cube := NewECube(topology.Cube(arity, dims), arity, dims)
	for _, r := range []Router{mesh, cube} {
		for _, pair := range [][2]int{{0, arity*arity - 1}, {arity*arity - 1, 0}, {42, 43}, {5017, 4982}} {
			route := r.Route(pair[0], pair[1])
			if len(route.Channels) != cap(route.Channels) || len(route.Switches) != cap(route.Switches) {
				t.Errorf("%s %v: channels %d/%d, switches %d/%d: not sized exactly", r.Name(), pair,
					len(route.Channels), cap(route.Channels), len(route.Switches), cap(route.Switches))
			}
			if allocs := testing.AllocsPerRun(10, func() { r.Route(pair[0], pair[1]) }); allocs > 1 {
				t.Errorf("%s %v: %.0f allocs per route, budget 1", r.Name(), pair, allocs)
			}
		}
	}
}
