package routing

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/workload"
)

func irregularNet(seed uint64) *topology.Network {
	return topology.Irregular(topology.DefaultIrregular(), workload.NewRNG(seed))
}

func TestUpDownAllPairsReachable(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		net := irregularNet(seed)
		r := NewUpDown(net)
		for src := 0; src < net.NumHosts(); src += 7 {
			for dst := 0; dst < net.NumHosts(); dst++ {
				if src == dst {
					continue
				}
				route := r.Route(src, dst)
				validateRoute(t, net, route, src, dst)
			}
		}
	}
}

func validateRoute(t *testing.T, net *topology.Network, route Route, src, dst int) {
	t.Helper()
	if route.Src != src || route.Dst != dst {
		t.Fatalf("route endpoints (%d,%d), want (%d,%d)", route.Src, route.Dst, src, dst)
	}
	if len(route.Channels) < 2 {
		t.Fatalf("route %d→%d too short: %v", src, dst, route.Channels)
	}
	// First channel: host src → its switch; last: dst's switch → host dst.
	first := net.Link(route.Channels[0] / 2)
	if first.Channel(topology.Host(src)) != route.Channels[0] {
		t.Fatalf("route %d→%d does not start at source NI", src, dst)
	}
	last := net.Link(route.Channels[len(route.Channels)-1] / 2)
	if last.Channel(topology.Switch(net.HostSwitch(dst))) != route.Channels[len(route.Channels)-1] {
		t.Fatalf("route %d→%d does not end at destination NI", src, dst)
	}
	// Switch sequence must be link-contiguous.
	if route.Switches[0] != net.HostSwitch(src) || route.Switches[len(route.Switches)-1] != net.HostSwitch(dst) {
		t.Fatalf("route %d→%d switch endpoints wrong", src, dst)
	}
	for i := 1; i < len(route.Switches); i++ {
		l := net.Link(route.Channels[i] / 2)
		if l.Channel(topology.Switch(route.Switches[i-1])) != route.Channels[i] {
			t.Fatalf("route %d→%d: channel %d not outbound from switch %d", src, dst, i, route.Switches[i-1])
		}
		if l.Other(topology.Switch(route.Switches[i-1])).Index != route.Switches[i] {
			t.Fatalf("route %d→%d: discontinuous at hop %d", src, dst, i)
		}
	}
	if len(route.Channels) != len(route.Switches)+1 {
		t.Fatalf("route %d→%d: %d channels vs %d switches", src, dst, len(route.Channels), len(route.Switches))
	}
}

func TestUpDownLegality(t *testing.T) {
	// Every route must be zero or more up moves followed by zero or more
	// down moves.
	for seed := uint64(0); seed < 5; seed++ {
		net := irregularNet(seed)
		r := NewUpDown(net)
		for src := 0; src < net.NumHosts(); src += 5 {
			for dst := 0; dst < net.NumHosts(); dst += 3 {
				if src == dst {
					continue
				}
				route := r.Route(src, dst)
				wentDown := false
				for i := 1; i < len(route.Switches); i++ {
					up := r.isUp(route.Switches[i-1], route.Switches[i])
					if up && wentDown {
						t.Fatalf("seed %d: route %d→%d goes up after down", seed, src, dst)
					}
					if !up {
						wentDown = true
					}
				}
			}
		}
	}
}

func TestUpDownDeadlockFree(t *testing.T) {
	// The channel dependency graph induced by all host-pair routes must be
	// acyclic — the defining property of up*/down* routing.
	for seed := uint64(0); seed < 3; seed++ {
		net := irregularNet(seed)
		r := NewUpDown(net)
		deps := map[int]map[int]bool{} // channel -> set of successor channels
		for src := 0; src < net.NumHosts(); src++ {
			for dst := 0; dst < net.NumHosts(); dst++ {
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
			t.Fatalf("seed %d: channel dependency graph has a cycle", seed)
		}
	}
}

func hasCycle(deps map[int]map[int]bool, numChannels int) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, numChannels)
	var visit func(c int) bool
	visit = func(c int) bool {
		color[c] = gray
		for nb := range deps[c] {
			switch color[nb] {
			case gray:
				return true
			case white:
				if visit(nb) {
					return true
				}
			}
		}
		color[c] = black
		return false
	}
	for c := 0; c < numChannels; c++ {
		if color[c] == white && visit(c) {
			return true
		}
	}
	return false
}

func TestUpDownSameSwitchRoute(t *testing.T) {
	// Hosts on the same switch: route is injection + delivery only.
	net := irregularNet(1)
	r := NewUpDown(net)
	hosts := net.SwitchHosts(3)
	if len(hosts) < 2 {
		t.Skip("switch 3 has fewer than 2 hosts")
	}
	route := r.Route(hosts[0], hosts[1])
	if len(route.Channels) != 2 || route.Hops() != 0 {
		t.Errorf("same-switch route has %d channels, %d hops; want 2, 0", len(route.Channels), route.Hops())
	}
}

func TestUpDownRootAndLevels(t *testing.T) {
	net := irregularNet(2)
	r := NewUpDown(net)
	root := r.Root()
	if r.Level(root) != 0 {
		t.Errorf("root level = %d, want 0", r.Level(root))
	}
	for s := 0; s < net.NumSwitches(); s++ {
		if s == root {
			continue
		}
		lv := r.Level(s)
		if lv < 1 {
			t.Errorf("switch %d level = %d, want >= 1", s, lv)
		}
		// Some neighbor must be one level up.
		ok := false
		for _, nb := range net.SwitchNeighbors(s) {
			if r.Level(nb) == lv-1 {
				ok = true
			}
		}
		if !ok {
			t.Errorf("switch %d has no parent-level neighbor", s)
		}
	}
}

func TestUpDownTreeChildrenPartition(t *testing.T) {
	// Every non-root switch appears as tree child of exactly one switch.
	net := irregularNet(4)
	r := NewUpDown(net)
	parentCount := make([]int, net.NumSwitches())
	for s := 0; s < net.NumSwitches(); s++ {
		for _, c := range r.TreeChildren(s) {
			parentCount[c]++
		}
	}
	for s := 0; s < net.NumSwitches(); s++ {
		want := 1
		if s == r.Root() {
			want = 0
		}
		if parentCount[s] != want {
			t.Errorf("switch %d has %d tree parents, want %d", s, parentCount[s], want)
		}
	}
}

func TestUpDownShortestLegal(t *testing.T) {
	// Route length must not exceed (BFS-tree up to root + down) bound:
	// level(src) + level(dst) switch hops.
	net := irregularNet(5)
	r := NewUpDown(net)
	for src := 0; src < net.NumHosts(); src += 11 {
		for dst := 0; dst < net.NumHosts(); dst += 7 {
			if src == dst {
				continue
			}
			route := r.Route(src, dst)
			bound := r.Level(net.HostSwitch(src)) + r.Level(net.HostSwitch(dst))
			if route.Hops() > bound {
				t.Errorf("route %d→%d has %d hops, tree bound %d", src, dst, route.Hops(), bound)
			}
		}
	}
}

func TestECubeRoutes(t *testing.T) {
	net := topology.Cube(4, 2)
	r := NewECube(net, 4, 2)
	for src := 0; src < net.NumHosts(); src++ {
		for dst := 0; dst < net.NumHosts(); dst++ {
			if src == dst {
				continue
			}
			route := r.Route(src, dst)
			validateRoute(t, net, route, src, dst)
		}
	}
}

func TestECubeDimensionOrder(t *testing.T) {
	// Switch coordinates along a route must correct dimension 0 first,
	// then dimension 1, etc.
	net := topology.Cube(3, 3)
	r := NewECube(net, 3, 3)
	for src := 0; src < net.NumHosts(); src += 5 {
		for dst := 0; dst < net.NumHosts(); dst += 7 {
			if src == dst {
				continue
			}
			route := r.Route(src, dst)
			highest := -1
			for i := 1; i < len(route.Switches); i++ {
				a := topology.CubeCoord(route.Switches[i-1], 3, 3)
				b := topology.CubeCoord(route.Switches[i], 3, 3)
				var d = -1
				for dim := 0; dim < 3; dim++ {
					if a[dim] != b[dim] {
						if d != -1 {
							t.Fatalf("hop changes two dimensions")
						}
						d = dim
					}
				}
				if d < highest {
					t.Fatalf("route %d→%d corrects dim %d after dim %d", src, dst, d, highest)
				}
				highest = d
			}
		}
	}
}

func TestECubeHopCount(t *testing.T) {
	// In a 4-ary 2-cube with positive-direction wrap-around routing, hops
	// = sum over dims of (dstDigit - srcDigit) mod 4.
	net := topology.Cube(4, 2)
	r := NewECube(net, 4, 2)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			a, b := topology.CubeCoord(src, 4, 2), topology.CubeCoord(dst, 4, 2)
			want := 0
			for d := 0; d < 2; d++ {
				want += ((b[d] - a[d]) + 4) % 4
			}
			if got := r.Route(src, dst).Hops(); got != want {
				t.Errorf("route %d→%d: %d hops, want %d", src, dst, got, want)
			}
		}
	}
}

func TestSharesChannel(t *testing.T) {
	net := irregularNet(3)
	r := NewUpDown(net)
	a := r.Route(0, 32)
	if !SharesChannel(a, a) {
		t.Error("route does not share channels with itself")
	}
	// Two routes leaving different hosts on different switches toward
	// different switches may still contend; just exercise both outcomes
	// exist across a sample.
	shared, disjoint := false, false
	for dst := 2; dst < 64 && !(shared && disjoint); dst++ {
		if dst == 32 {
			continue
		}
		b := r.Route(1, dst)
		if SharesChannel(a, b) {
			shared = true
		} else {
			disjoint = true
		}
	}
	if !disjoint {
		t.Error("no channel-disjoint route pair found (suspicious)")
	}
}

func TestRouterNamesAndNetwork(t *testing.T) {
	net := irregularNet(1)
	r := NewUpDown(net)
	if r.Name() != "up*/down*" || r.Network() != net {
		t.Error("UpDown identity accessors wrong")
	}
	cn := topology.Cube(2, 2)
	e := NewECube(cn, 2, 2)
	if e.Name() != "e-cube" || e.Network() != cn {
		t.Error("ECube identity accessors wrong")
	}
}

func TestRoutePanics(t *testing.T) {
	net := irregularNet(1)
	r := NewUpDown(net)
	for name, f := range map[string]func(){
		"self route":   func() { r.Route(0, 0) },
		"negative src": func() { r.Route(-1, 5) },
		"dst past end": func() { r.Route(0, 64) },
		// The grid constructors check the geometry the network records, not
		// its switch count: each of these has the 16 (or 8) switches asked
		// for and was once accepted, to die on a missing link mid-run.
		"e-cube on irregular":    func() { NewECube(net, 4, 2) },
		"mesh on irregular":      func() { NewMeshDimOrder(net, 4, 2) },
		"e-cube on a mesh":       func() { NewECube(topology.Mesh(4, 2), 4, 2) },
		"mesh order on a cube":   func() { NewMeshDimOrder(topology.Cube(4, 2), 4, 2) },
		"16 switches, not 4^2":   func() { NewECube(topology.Cube(2, 4), 4, 2) },
		"wrong cube size":        func() { NewECube(topology.Cube(2, 3), 4, 3) },
		"degraded copy of a net": func() { NewMeshDimOrder(topology.Mesh(4, 2).WithoutLink(20), 4, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestUpDownDeterministic(t *testing.T) {
	net := irregularNet(6)
	a, b := NewUpDown(net), NewUpDown(net)
	for src := 0; src < 64; src += 13 {
		for dst := 0; dst < 64; dst += 9 {
			if src == dst {
				continue
			}
			ra, rb := a.Route(src, dst), b.Route(src, dst)
			if len(ra.Channels) != len(rb.Channels) {
				t.Fatal("routes differ between identical routers")
			}
			for i := range ra.Channels {
				if ra.Channels[i] != rb.Channels[i] {
					t.Fatal("routes differ between identical routers")
				}
			}
		}
	}
}

func TestUpDownSurvivesLinkFailures(t *testing.T) {
	// Fault injection: remove random switch-switch links one at a time;
	// whenever the switch graph stays connected, a rebuilt up*/down*
	// router must reach every host pair over legal paths.
	for seed := uint64(0); seed < 3; seed++ {
		net := irregularNet(seed)
		rng := workload.NewRNG(seed + 100)
		faults := 0
		for attempt := 0; attempt < 20 && faults < 5; attempt++ {
			links := net.Links()
			l := links[rng.Intn(len(links))]
			if l.A.Kind != topology.SwitchNode || l.B.Kind != topology.SwitchNode {
				continue
			}
			faulty := net.WithoutLink(l.ID)
			if !faulty.Connected() {
				continue // partition: recovery impossible by definition
			}
			net = faulty
			faults++
			r := NewUpDown(net)
			for src := 0; src < net.NumHosts(); src += 13 {
				for dst := 0; dst < net.NumHosts(); dst += 11 {
					if src == dst {
						continue
					}
					route := r.Route(src, dst)
					validateRoute(t, net, route, src, dst)
				}
			}
		}
		if faults == 0 {
			t.Fatalf("seed %d: no switch link could be failed", seed)
		}
	}
}

func TestMultipathRoutesLegalAndShortest(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		net := irregularNet(seed)
		base := NewUpDown(net)
		multi := NewUpDownMultipath(net, 0xBEEF*seed)
		for src := 0; src < net.NumHosts(); src += 9 {
			for dst := 0; dst < net.NumHosts(); dst += 5 {
				if src == dst {
					continue
				}
				route := multi.Route(src, dst)
				validateRoute(t, net, route, src, dst)
				// Legality: no up after down.
				wentDown := false
				for i := 1; i < len(route.Switches); i++ {
					up := multi.isUp(route.Switches[i-1], route.Switches[i])
					if up && wentDown {
						t.Fatalf("multipath route %d→%d goes up after down", src, dst)
					}
					if !up {
						wentDown = true
					}
				}
				// Shortest: same hop count as the deterministic router.
				if route.Hops() != base.Route(src, dst).Hops() {
					t.Fatalf("multipath route %d→%d has %d hops, base %d",
						src, dst, route.Hops(), base.Route(src, dst).Hops())
				}
			}
		}
	}
}

func TestMultipathSpreadsTraffic(t *testing.T) {
	// Across all host pairs, the multipath router must use at least as
	// many distinct switch-switch channels as the deterministic one.
	net := irregularNet(2)
	base := NewUpDown(net)
	multi := NewUpDownMultipath(net, 77)
	used := func(r Router) int {
		set := map[int]bool{}
		for src := 0; src < net.NumHosts(); src += 3 {
			for dst := 0; dst < net.NumHosts(); dst += 3 {
				if src == dst {
					continue
				}
				for _, c := range r.Route(src, dst).Channels {
					set[c] = true
				}
			}
		}
		return len(set)
	}
	b, m := used(base), used(multi)
	if m < b {
		t.Errorf("multipath uses %d channels, deterministic uses %d", m, b)
	}
}

func TestMultipathDeterministicPerSeed(t *testing.T) {
	net := irregularNet(3)
	a := NewUpDownMultipath(net, 42)
	b := NewUpDownMultipath(net, 42)
	ra, rb := a.Route(0, 63), b.Route(0, 63)
	for i := range ra.Channels {
		if ra.Channels[i] != rb.Channels[i] {
			t.Fatal("same seed produced different routes")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero seed")
		}
	}()
	NewUpDownMultipath(net, 0)
}
