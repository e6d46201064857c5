package ordering

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/tree"
	"repro/internal/workload"
)

func irregular(seed uint64) (*topology.Network, *routing.UpDown) {
	net := topology.Irregular(topology.DefaultIrregular(), workload.NewRNG(seed))
	return net, routing.NewUpDown(net)
}

func TestIdentityOrdering(t *testing.T) {
	o := Identity(8)
	if o.Name() != "identity" {
		t.Error("name mismatch")
	}
	for i, h := range o.Hosts() {
		if h != i {
			t.Errorf("Hosts()[%d] = %d", i, h)
		}
	}
}

func TestNewRejectsNonPermutation(t *testing.T) {
	for i, hosts := range [][]int{
		{0, 0, 1},
		{0, 2},
		{-1, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			New("bad", hosts)
		}()
	}
}

func TestCCOIsPermutation(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		net, r := irregular(seed)
		o := CCO(r)
		if len(o.Hosts()) != net.NumHosts() {
			t.Fatalf("seed %d: CCO has %d hosts", seed, len(o.Hosts()))
		}
		seen := map[int]bool{}
		for _, h := range o.Hosts() {
			if seen[h] {
				t.Fatalf("seed %d: duplicate host %d", seed, h)
			}
			seen[h] = true
		}
	}
}

func TestCCOKeepsSwitchHostsContiguous(t *testing.T) {
	// All hosts of one switch must appear consecutively: that is the
	// defining chain-concatenation property.
	net, r := irregular(3)
	o := CCO(r)
	lastSwitch := -1
	done := map[int]bool{}
	for _, h := range o.Hosts() {
		s := net.HostSwitch(h)
		if s != lastSwitch {
			if done[s] {
				t.Fatalf("switch %d's hosts split in CCO", s)
			}
			done[s] = true
			lastSwitch = s
		}
	}
}

func TestCCOStartsAtRoot(t *testing.T) {
	net, r := irregular(5)
	o := CCO(r)
	if net.HostSwitch(o.Hosts()[0]) != r.Root() {
		t.Error("CCO does not start with the root switch's hosts")
	}
}

func TestChainRotation(t *testing.T) {
	o := Identity(10)
	chain := o.Chain(5, []int{2, 7, 9, 3})
	if chain[0] != 5 {
		t.Fatalf("chain does not start at source: %v", chain)
	}
	want := []int{5, 7, 9, 2, 3}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
}

func TestChainAllParticipantsOnce(t *testing.T) {
	_, r := irregular(2)
	o := CCO(r)
	rng := workload.NewRNG(4)
	for trial := 0; trial < 50; trial++ {
		set := workload.DestSet(rng, 64, 15)
		chain := o.Chain(set[0], set[1:])
		if len(chain) != 16 || chain[0] != set[0] {
			t.Fatalf("bad chain %v for set %v", chain, set)
		}
		seen := map[int]bool{}
		for _, h := range chain {
			if seen[h] {
				t.Fatalf("duplicate %d in chain", h)
			}
			seen[h] = true
		}
	}
}

func TestChainPreservesCyclicOrder(t *testing.T) {
	o := New("test", []int{3, 1, 4, 0, 2})
	chain := o.Chain(0, []int{3, 4})
	// Base positions: 3->0, 4->2, 0->3. Sorted: [3 4 0]; rotated at 0: [0 3 4].
	want := []int{0, 3, 4}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
}

func TestChainPanics(t *testing.T) {
	o := Identity(8)
	for i, f := range []func(){
		func() { o.Chain(0, []int{0}) },  // duplicate source
		func() { o.Chain(0, []int{9}) },  // out of range
		func() { o.Chain(-1, []int{1}) }, // bad source
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

func TestDimensionOrderingIsPermutation(t *testing.T) {
	net := topology.Cube(4, 2)
	o := Dimension(net, 4, 2)
	if len(o.Hosts()) != 16 {
		t.Fatalf("dimension ordering has %d hosts", len(o.Hosts()))
	}
	seen := map[int]bool{}
	for _, h := range o.Hosts() {
		if seen[h] {
			t.Fatal("duplicate host")
		}
		seen[h] = true
	}
}

func TestDimensionChainContentionFreeOnHypercube(t *testing.T) {
	// On hypercubes with e-cube routing, the dimension-ordered chain makes
	// every k-binomial tree's same-step transmissions channel-disjoint —
	// McKinley et al.'s contention-free ordering result, which the paper's
	// construction inherits (Section 4.3.2).
	for _, dims := range []int{3, 4, 5} {
		net := topology.Cube(2, dims)
		r := routing.NewECube(net, 2, dims)
		o := Dimension(net, 2, dims)
		chain := o.Chain(o.Hosts()[0], o.Hosts()[1:])
		for k := 1; k <= dims; k++ {
			for _, m := range []int{1, 3, 5} {
				tr := tree.KBinomial(chain, k)
				if got := Conflicts(tr, m, stepsim.FPFS, r); got != 0 {
					t.Errorf("dims=%d k=%d m=%d: %d same-step conflicts on hypercube, want 0",
						dims, k, m, got)
				}
			}
		}
	}
}

func TestCubeChainSinglePacketContentionFree(t *testing.T) {
	// With source-relative translation (CubeChain) and a single packet,
	// every k-binomial tree is depth contention-free on hypercube subsets
	// for arbitrary sources: the active transmissions of any step sit in
	// pairwise-disjoint chain intervals, and the dimension-ordered chain
	// makes disjoint-interval routes channel-disjoint (the U-cube lemma).
	net := topology.Cube(2, 5)
	r := routing.NewECube(net, 2, 5)
	rng := workload.NewRNG(31)
	for trial := 0; trial < 100; trial++ {
		set := workload.DestSet(rng, 32, 1+rng.Intn(30))
		chain := CubeChain(net, 2, 5, set[0], set[1:])
		if chain[0] != set[0] {
			t.Fatalf("trial %d: chain does not start at source", trial)
		}
		for k := 1; k <= 5; k++ {
			tr := tree.KBinomial(chain, k)
			if got := Conflicts(tr, 1, stepsim.FPFS, r); got != 0 {
				t.Errorf("trial %d k=%d: %d single-packet conflicts, want 0", trial, k, got)
			}
		}
	}
}

func TestCubeChainMultiPacketLowContention(t *testing.T) {
	// With pipelining (m > 1) the disjoint-interval argument no longer
	// covers every same-step pair: a parent's send to a later child spans
	// chain segments in which earlier packets are still being forwarded.
	// Contention stays small; bound it and require translation to beat
	// rotation in aggregate.
	net := topology.Cube(2, 5)
	r := routing.NewECube(net, 2, 5)
	o := Dimension(net, 2, 5)
	rng := workload.NewRNG(77)
	rot, xl := 0, 0
	for trial := 0; trial < 30; trial++ {
		set := workload.DestSet(rng, 32, 11)
		rotTr := tree.KBinomial(o.Chain(set[0], set[1:]), 2)
		xlTr := tree.KBinomial(CubeChain(net, 2, 5, set[0], set[1:]), 2)
		rot += Conflicts(rotTr, 3, stepsim.FPFS, r)
		c := Conflicts(xlTr, 3, stepsim.FPFS, r)
		if c > 8 {
			t.Errorf("trial %d: %d multi-packet conflicts, want <= 8", trial, c)
		}
		xl += c
	}
	if xl > rot {
		t.Errorf("translated chain conflicts %d > rotated %d", xl, rot)
	}
}

func TestCubeChainPanics(t *testing.T) {
	net := topology.Cube(2, 3)
	for i, f := range []func(){
		func() { CubeChain(net, 2, 3, 0, []int{0}) },
		func() { CubeChain(net, 2, 3, 0, []int{99}) },
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

func TestDimensionChainLowContentionOnTorus(t *testing.T) {
	// Wider tori with positive-wrap e-cube routing keep contention low but
	// not necessarily zero (wrap-around channels). Bound it loosely.
	net := topology.Cube(4, 2)
	r := routing.NewECube(net, 4, 2)
	o := Dimension(net, 4, 2)
	chain := o.Chain(o.Hosts()[0], o.Hosts()[1:])
	for _, k := range []int{1, 2, 4} {
		tr := tree.KBinomial(chain, k)
		if got := Conflicts(tr, 3, stepsim.FPFS, r); got > 4 {
			t.Errorf("k=%d: %d conflicts on 4-ary 2-cube, want <= 4", k, got)
		}
	}
}

func TestDimensionPanicsOnWrongGeometry(t *testing.T) {
	irr, _ := irregular(1) // 16 switches: the count of a 4-ary 2-cube, not its wiring
	for name, f := range map[string]func(){
		"wrong cube size":      func() { Dimension(topology.Cube(2, 3), 4, 3) },
		"16 switches, not 4^2": func() { Dimension(topology.Cube(2, 4), 4, 2) },
		"irregular network":    func() { Dimension(irr, 4, 2) },
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

func TestCCOBeatsIdentityOnAverage(t *testing.T) {
	// CCO should produce no more same-step conflicts than the naive
	// identity ordering, summed over a set of random multicasts. This is
	// the paper's motivation for using CCO on irregular networks.
	var ccoTotal, idTotal int
	for seed := uint64(0); seed < 5; seed++ {
		net, r := irregular(seed)
		cco := CCO(r)
		id := Identity(net.NumHosts())
		rng := workload.NewRNG(seed * 977)
		for trial := 0; trial < 10; trial++ {
			set := workload.DestSet(rng, net.NumHosts(), 31)
			for _, o := range []*Ordering{cco, id} {
				chain := o.Chain(set[0], set[1:])
				tr := tree.KBinomial(chain, 2)
				c := Conflicts(tr, 2, stepsim.FPFS, r)
				if o == cco {
					ccoTotal += c
				} else {
					idTotal += c
				}
			}
		}
	}
	if ccoTotal > idTotal {
		t.Errorf("CCO total conflicts %d > identity %d", ccoTotal, idTotal)
	}
}

func TestConflictsZeroOnDisjointStar(t *testing.T) {
	// A 2-host multicast has one transmission per step: never conflicts.
	_, r := irregular(1)
	tr := tree.Linear([]int{0, 63})
	if got := Conflicts(tr, 4, stepsim.FPFS, r); got != 0 {
		t.Errorf("single-edge tree reported %d conflicts", got)
	}
}

func TestPairwiseChainConflictsSane(t *testing.T) {
	_, r := irregular(7)
	cco := CCO(r)
	id := Identity(64)
	// The metric is nonnegative and CCO should not be worse than identity.
	c1 := PairwiseChainConflicts(cco.Hosts(), r)
	c2 := PairwiseChainConflicts(id.Hosts(), r)
	if c1 < 0 || c2 < 0 {
		t.Fatal("negative conflict count")
	}
	if c1 > c2 {
		t.Errorf("CCO pairwise conflicts %d > identity %d", c1, c2)
	}
}

func TestCCODeterministic(t *testing.T) {
	_, r1 := irregular(9)
	_, r2 := irregular(9)
	a, b := CCO(r1).Hosts(), CCO(r2).Hosts()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("CCO not deterministic")
		}
	}
}
