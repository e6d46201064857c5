package topology

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestDefaultIrregularShape(t *testing.T) {
	cfg := DefaultIrregular()
	net := Irregular(cfg, workload.NewRNG(1))
	if net.NumHosts() != 64 || net.NumSwitches() != 16 {
		t.Fatalf("got %s", net.Summary())
	}
	// 4 hosts per switch.
	for s := 0; s < 16; s++ {
		if got := len(net.SwitchHosts(s)); got != 4 {
			t.Errorf("switch %d has %d hosts, want 4", s, got)
		}
	}
	if !net.Connected() {
		t.Error("generated network not connected")
	}
}

func TestIrregularPortBudget(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		net := Irregular(DefaultIrregular(), workload.NewRNG(seed))
		for s := 0; s < net.NumSwitches(); s++ {
			if got := len(net.SwitchLinks(s)); got > 8 {
				t.Errorf("seed %d: switch %d uses %d ports, budget 8", seed, s, got)
			}
		}
	}
}

func TestIrregularAlwaysConnected(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		net := Irregular(DefaultIrregular(), workload.NewRNG(seed))
		if !net.Connected() {
			t.Fatalf("seed %d: disconnected network", seed)
		}
	}
}

// pairKey is the unordered switch pair {a, b} as a map key.
func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func TestIrregularNoSelfOrParallelSwitchLinks(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		net := Irregular(DefaultIrregular(), workload.NewRNG(seed))
		seen := map[[2]int]bool{}
		for _, l := range net.Links() {
			if l.A.Kind != SwitchNode || l.B.Kind != SwitchNode {
				continue
			}
			if l.A == l.B {
				t.Fatalf("seed %d: self link on %v", seed, l.A)
			}
			k := pairKey(l.A.Index, l.B.Index)
			if seen[k] {
				t.Fatalf("seed %d: parallel link %v-%v", seed, l.A, l.B)
			}
			seen[k] = true
		}
	}
}

func TestIrregularDeterministicInSeed(t *testing.T) {
	a := Irregular(DefaultIrregular(), workload.NewRNG(7))
	b := Irregular(DefaultIrregular(), workload.NewRNG(7))
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		t.Fatal("same seed produced different link counts")
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("same seed diverged at link %d", i)
		}
	}
	c := Irregular(DefaultIrregular(), workload.NewRNG(8))
	diff := len(c.Links()) != len(la)
	if !diff {
		for i := range la {
			if la[i] != c.Links()[i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical topologies")
	}
}

func TestIrregularTopologiesVary(t *testing.T) {
	// Across seeds the switch graphs should differ (paper uses 10 random
	// topologies precisely because they differ).
	counts := map[int]int{}
	for seed := uint64(0); seed < 10; seed++ {
		net := Irregular(DefaultIrregular(), workload.NewRNG(seed))
		counts[len(net.Links())]++
	}
	if len(counts) == 1 {
		// Same link count is possible; check adjacency differs for 0 vs 1.
		a := Irregular(DefaultIrregular(), workload.NewRNG(0))
		b := Irregular(DefaultIrregular(), workload.NewRNG(1))
		same := true
		for s := 0; s < a.NumSwitches() && same; s++ {
			an, bn := a.SwitchNeighbors(s), b.SwitchNeighbors(s)
			if len(an) != len(bn) {
				same = false
				break
			}
			for i := range an {
				if an[i] != bn[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Error("seeds 0 and 1 generated identical switch graphs")
		}
	}
}

func TestHostAttachment(t *testing.T) {
	net := Irregular(DefaultIrregular(), workload.NewRNG(3))
	for h := 0; h < net.NumHosts(); h++ {
		s := net.HostSwitch(h)
		link := net.HostLink(h)
		if link.Other(Host(h)) != Switch(s) {
			t.Errorf("host %d link endpoints inconsistent", h)
		}
		found := false
		for _, hh := range net.SwitchHosts(s) {
			if hh == h {
				found = true
			}
		}
		if !found {
			t.Errorf("host %d missing from SwitchHosts(%d)", h, s)
		}
	}
}

func TestChannelIDs(t *testing.T) {
	net := Irregular(DefaultIrregular(), workload.NewRNG(2))
	seen := map[int]bool{}
	for _, l := range net.Links() {
		ca, cb := l.Channel(l.A), l.Channel(l.B)
		if ca == cb || seen[ca] || seen[cb] {
			t.Fatalf("channel IDs not unique for link %d", l.ID)
		}
		seen[ca], seen[cb] = true, true
		if ca >= net.NumChannels() || cb >= net.NumChannels() {
			t.Fatalf("channel ID out of range")
		}
	}
	if len(seen) != net.NumChannels() {
		t.Errorf("%d channels seen, want %d", len(seen), net.NumChannels())
	}
}

func TestLinkAccessorPanics(t *testing.T) {
	net := Irregular(DefaultIrregular(), workload.NewRNG(1))
	l := net.Link(0)
	for i, f := range []func(){
		func() { l.Channel(Host(9999)) },
		func() { l.Other(Host(9999)) },
		func() { net.Link(-1) },
		func() { net.HostSwitch(64) },
		func() { net.SwitchHosts(16) },
		func() { net.SwitchLinks(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSwitchLinkBetween(t *testing.T) {
	net := Irregular(DefaultIrregular(), workload.NewRNG(4))
	for s := 0; s < net.NumSwitches(); s++ {
		for _, nb := range net.SwitchNeighbors(s) {
			l, ok := net.SwitchLinkBetween(s, nb)
			if !ok {
				t.Fatalf("no link between neighbors %d and %d", s, nb)
			}
			if l.Other(Switch(s)) != Switch(nb) {
				t.Fatalf("SwitchLinkBetween(%d,%d) returned wrong link", s, nb)
			}
		}
	}
	if _, ok := net.SwitchLinkBetween(0, 0); ok {
		t.Error("self link reported")
	}
}

func TestCubeShape(t *testing.T) {
	for _, c := range []struct{ arity, dims, nodes, links int }{
		{2, 3, 8, 8 + 12},   // 3-cube: 12 edges + 8 host links
		{3, 2, 9, 9 + 18},   // 3-ary 2-cube: 2*9 torus edges
		{4, 2, 16, 16 + 32}, // 4-ary 2-cube
		{2, 4, 16, 16 + 32}, // 4-cube: 32 edges
	} {
		net := Cube(c.arity, c.dims)
		if net.NumHosts() != c.nodes || net.NumSwitches() != c.nodes {
			t.Errorf("%d-ary %d-cube: %s", c.arity, c.dims, net.Summary())
		}
		if len(net.Links()) != c.links {
			t.Errorf("%d-ary %d-cube: %d links, want %d", c.arity, c.dims, len(net.Links()), c.links)
		}
		if !net.Connected() {
			t.Errorf("%d-ary %d-cube disconnected", c.arity, c.dims)
		}
	}
}

func TestCubeNeighborCount(t *testing.T) {
	// In a k-ary n-cube with k > 2, every switch has 2n switch neighbors;
	// with k = 2, n neighbors.
	net := Cube(3, 3)
	for s := 0; s < net.NumSwitches(); s++ {
		if got := len(net.SwitchNeighbors(s)); got != 6 {
			t.Errorf("3-ary 3-cube: switch %d has %d neighbors, want 6", s, got)
		}
	}
	net2 := Cube(2, 4)
	for s := 0; s < net2.NumSwitches(); s++ {
		if got := len(net2.SwitchNeighbors(s)); got != 4 {
			t.Errorf("2-ary 4-cube: switch %d has %d neighbors, want 4", s, got)
		}
	}
}

func TestCubeCoord(t *testing.T) {
	coord := CubeCoord(14, 4, 2) // 14 = 2 + 3*4
	if coord[0] != 2 || coord[1] != 3 {
		t.Errorf("CubeCoord(14,4,2) = %v, want [2 3]", coord)
	}
	// Neighbors differ in exactly one coordinate by ±1 mod arity.
	net := Cube(4, 3)
	for s := 0; s < net.NumSwitches(); s++ {
		cs := CubeCoord(s, 4, 3)
		for _, nb := range net.SwitchNeighbors(s) {
			cn := CubeCoord(nb, 4, 3)
			diffs := 0
			for d := 0; d < 3; d++ {
				if cs[d] != cn[d] {
					diffs++
					delta := (cn[d] - cs[d] + 4) % 4
					if delta != 1 && delta != 3 {
						t.Fatalf("switch %d neighbor %d differs by %d in dim %d", s, nb, delta, d)
					}
				}
			}
			if diffs != 1 {
				t.Fatalf("switch %d and neighbor %d differ in %d dims", s, nb, diffs)
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := Irregular(DefaultIrregular(), workload.NewRNG(9))
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeNetwork(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumHosts() != orig.NumHosts() || back.NumSwitches() != orig.NumSwitches() {
		t.Fatal("sizes changed in round trip")
	}
	if len(back.Links()) != len(orig.Links()) {
		t.Fatalf("link count changed: %d vs %d", len(back.Links()), len(orig.Links()))
	}
	for h := 0; h < orig.NumHosts(); h++ {
		if back.HostSwitch(h) != orig.HostSwitch(h) {
			t.Errorf("host %d moved from switch %d to %d", h, orig.HostSwitch(h), back.HostSwitch(h))
		}
	}
	for s := 0; s < orig.NumSwitches(); s++ {
		a, b := orig.SwitchNeighbors(s), back.SwitchNeighbors(s)
		if len(a) != len(b) {
			t.Fatalf("switch %d neighbor count changed", s)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("switch %d neighbors changed", s)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"hosts":0,"switches":1,"links":[]}`,
		`{"hosts":1,"switches":1,"links":[{"a":"h0","b":"h0"}]}`,                     // host-host
		`{"hosts":1,"switches":1,"links":[]}`,                                        // unattached host
		`{"hosts":1,"switches":1,"links":[{"a":"h5","b":"s0"}]}`,                     // host out of range
		`{"hosts":1,"switches":1,"links":[{"a":"x0","b":"s0"}]}`,                     // bad kind
		`{"hosts":1,"switches":1,"links":[{"a":"h0","b":"s0"},{"a":"h0","b":"s0"}]}`, // double attach
	}
	for i, c := range cases {
		if _, err := DecodeNetwork([]byte(c)); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	net := Cube(2, 2)
	dot := net.DOT()
	if !strings.HasPrefix(dot, "graph network {") || !strings.Contains(dot, "s0 -- s1") && !strings.Contains(dot, "s1 -- s0") {
		t.Errorf("DOT output malformed:\n%s", dot)
	}
	for _, want := range []string{"h0", "h3", "s3", "--"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestNodeString(t *testing.T) {
	if Host(3).String() != "h3" || Switch(0).String() != "s0" {
		t.Error("Node.String mismatch")
	}
	if HostNode.String() != "host" || SwitchNode.String() != "switch" {
		t.Error("NodeKind.String mismatch")
	}
}

func TestGeneratorPanics(t *testing.T) {
	for i, f := range []func(){
		func() { Irregular(IrregularConfig{Hosts: 0, Switches: 1, Ports: 8}, workload.NewRNG(1)) },
		func() { Irregular(IrregularConfig{Hosts: 64, Switches: 4, Ports: 8}, workload.NewRNG(1)) }, // 16 hosts/switch > 8 ports
		func() { Cube(1, 2) },
		func() { Cube(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
