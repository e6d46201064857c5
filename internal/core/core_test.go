package core

import (
	"testing"

	"repro/internal/ktree"
	"repro/internal/ordering"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func irregularSys(seed uint64) *System {
	return NewIrregularSystem(topology.DefaultIrregular(), seed)
}

func TestNewIrregularSystem(t *testing.T) {
	s := irregularSys(1)
	if s.Net.NumHosts() != 64 || s.Router.Name() != "up*/down*" || s.Ord.Name() != "cco" {
		t.Errorf("system malformed: %s, router %s, ordering %s",
			s.Net.Summary(), s.Router.Name(), s.Ord.Name())
	}
}

func TestNewCubeSystem(t *testing.T) {
	s := NewCubeSystem(2, 4)
	if s.Net.NumHosts() != 16 || s.Router.Name() != "e-cube" || s.Ord.Name() != "dimension" {
		t.Error("cube system malformed")
	}
}

func TestValidate(t *testing.T) {
	s := irregularSys(2)
	good := Spec{Source: 0, Dests: []int{1, 2, 3}, Packets: 2, Policy: OptimalTree}
	if err := s.Validate(good); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Source: 0, Dests: []int{1}, Packets: 0},
		{Source: 0, Dests: nil, Packets: 1},
		{Source: 0, Dests: []int{0}, Packets: 1},
		{Source: 0, Dests: []int{1, 1}, Packets: 1},
		{Source: 99, Dests: []int{1}, Packets: 1},
		{Source: 0, Dests: []int{99}, Packets: 1},
		{Source: 0, Dests: []int{1}, Packets: 1, Policy: FixedKTree, K: 0},
	}
	for i, spec := range bad {
		if err := s.Validate(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, spec)
		}
	}
}

func TestPlanPolicies(t *testing.T) {
	s := irregularSys(3)
	dests := []int{1, 5, 9, 13, 20, 33, 41, 50, 58, 61, 63, 7, 22, 37, 44}
	n := len(dests) + 1 // 16
	for _, tc := range []struct {
		policy TreePolicy
		k      int
		wantK  int
	}{
		{BinomialTree, 0, 4},
		{LinearTree, 0, 1},
		{FixedKTree, 3, 3},
	} {
		p := s.Plan(Spec{Source: 0, Dests: dests, Packets: 4, Policy: tc.policy, K: tc.k})
		if p.K != tc.wantK {
			t.Errorf("%v: k = %d, want %d", tc.policy, p.K, tc.wantK)
		}
		if err := p.Tree.Validate(p.Chain); err != nil {
			t.Errorf("%v: %v", tc.policy, err)
		}
		if p.Chain[0] != 0 {
			t.Errorf("%v: chain does not start at source", tc.policy)
		}
	}
	opt := s.Plan(Spec{Source: 0, Dests: dests, Packets: 4, Policy: OptimalTree})
	wantK, _ := ktree.OptimalK(n, 4)
	if opt.K != wantK {
		t.Errorf("optimal plan k = %d, want %d", opt.K, wantK)
	}
}

func TestPlanModelStepsBoundsMeasured(t *testing.T) {
	s := irregularSys(4)
	rng := workload.NewRNG(9)
	for trial := 0; trial < 20; trial++ {
		set := workload.DestSet(rng, 64, 1+rng.Intn(40))
		m := 1 + rng.Intn(8)
		p := s.Plan(Spec{Source: set[0], Dests: set[1:], Packets: m, Policy: OptimalTree})
		if got := p.Steps(); got > p.ModelSteps {
			t.Errorf("trial %d: measured %d steps > model %d", trial, got, p.ModelSteps)
		}
	}
}

func TestOptimalPlanBeatsBaselinesInSteps(t *testing.T) {
	s := irregularSys(5)
	rng := workload.NewRNG(11)
	for trial := 0; trial < 15; trial++ {
		set := workload.DestSet(rng, 64, 15+rng.Intn(40))
		m := 1 + rng.Intn(12)
		spec := Spec{Source: set[0], Dests: set[1:], Packets: m}
		spec.Policy = OptimalTree
		opt := s.Plan(spec).Steps()
		spec.Policy = BinomialTree
		bin := s.Plan(spec).Steps()
		spec.Policy = LinearTree
		lin := s.Plan(spec).Steps()
		if opt > bin || opt > lin {
			t.Errorf("trial %d (m=%d): optimal %d steps vs binomial %d, linear %d",
				trial, m, opt, bin, lin)
		}
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	s := irregularSys(6)
	spec := Spec{Source: 2, Dests: []int{7, 19, 33, 47, 55, 60, 11}, Packets: 4, Policy: OptimalTree}
	p := s.Plan(spec)
	res := s.Simulate(p, sim.DefaultParams(), stepsim.FPFS)
	if res.Latency <= 0 || len(res.HostDone) != 7 {
		t.Fatalf("simulation incomplete: latency=%f dests=%d", res.Latency, len(res.HostDone))
	}
	if lat := s.Latency(spec, sim.DefaultParams()); lat != res.Latency {
		t.Errorf("Latency() = %f, Simulate = %f", lat, res.Latency)
	}
}

func TestCubeSystemPlansUseTranslation(t *testing.T) {
	s := NewCubeSystem(2, 5)
	spec := Spec{Source: 17, Dests: []int{3, 9, 22, 30, 1, 12}, Packets: 1, Policy: BinomialTree}
	p := s.Plan(spec)
	if p.Chain[0] != 17 {
		t.Fatal("cube chain does not start at source")
	}
	// Single-packet plans on hypercubes are contention-free (see package
	// ordering).
	if c := s.Conflicts(p, stepsim.FPFS); c != 0 {
		t.Errorf("single-packet hypercube plan has %d conflicts", c)
	}
}

func TestOptimalKDelegation(t *testing.T) {
	s := irregularSys(7)
	for _, n := range []int{2, 16, 48, 64} {
		for _, m := range []int{1, 4, 32} {
			want, _ := ktree.OptimalK(n, m)
			if got := s.OptimalK(n, m); got != want {
				t.Errorf("OptimalK(%d,%d) = %d, want %d", n, m, got, want)
			}
		}
	}
}

// TestPlanOptimalIsTheorem3PerPlan holds every OptimalTree plan to the
// direct Theorem 3 search, densely for small sets and at the (n, m)
// edges of the optimal-k table Plan once consulted (4096 x 64).
func TestPlanOptimalIsTheorem3PerPlan(t *testing.T) {
	s := NewMeshSystem(65, 2) // 4225 hosts
	sizes := []int{4095, 4096, 4097}
	for n := 2; n <= 130; n++ {
		sizes = append(sizes, n)
	}
	dests := make([]int, 4096)
	for i := range dests {
		dests[i] = i + 1
	}
	for _, n := range sizes {
		for _, m := range []int{1, 2, 8, 64, 65} {
			p := s.Plan(Spec{Source: 0, Dests: dests[:n-1], Packets: m, Policy: OptimalTree})
			wantK, wantSteps := ktree.OptimalK(n, m)
			if p.K != wantK || p.ModelSteps != wantSteps || wantSteps != ktree.Steps(n, m, wantK) {
				t.Errorf("n=%d m=%d: plan (k=%d, %d steps), ktree.OptimalK (k=%d, %d steps)",
					n, m, p.K, p.ModelSteps, wantK, wantSteps)
			}
		}
	}
}

func TestTreePolicyString(t *testing.T) {
	for p, want := range map[TreePolicy]string{
		OptimalTree:    "optimal-k-binomial",
		BinomialTree:   "binomial",
		LinearTree:     "linear",
		FixedKTree:     "fixed-k",
		TreePolicy(42): "TreePolicy(42)",
	} {
		if p.String() != want {
			t.Errorf("String() = %q, want %q", p.String(), want)
		}
	}
}

func TestPlanPanicsOnInvalidSpec(t *testing.T) {
	s := irregularSys(9)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Plan(Spec{Source: 0, Dests: []int{0}, Packets: 1})
}

func TestNewMeshSystem(t *testing.T) {
	s := NewMeshSystem(4, 2)
	if s.Net.NumHosts() != 16 || s.Router.Name() != "mesh-dim-order" {
		t.Fatal("mesh system malformed")
	}
	spec := Spec{Source: 5, Dests: []int{0, 3, 10, 15, 12}, Packets: 4, Policy: OptimalTree}
	res := s.Simulate(s.Plan(spec), sim.DefaultParams(), stepsim.FPFS)
	if res.Latency <= 0 || len(res.HostDone) != 5 {
		t.Fatalf("mesh simulation incomplete: %+v", res)
	}
}

func TestPlanMeasuredNeverWorseThanModel(t *testing.T) {
	s := irregularSys(10)
	rng := workload.NewRNG(31)
	for trial := 0; trial < 5; trial++ {
		set := workload.DestSet(rng, 64, 15)
		spec := Spec{Source: set[0], Dests: set[1:], Packets: 12, Policy: OptimalTree}
		model := s.Simulate(s.Plan(spec), sim.DefaultParams(), stepsim.FPFS).Latency
		_, measured := s.PlanMeasured(spec, sim.DefaultParams())
		if measured > model+1e-9 {
			t.Errorf("trial %d: measured-k %f worse than model-k %f", trial, measured, model)
		}
	}
}

func TestWithOrderingSharesTopology(t *testing.T) {
	s := irregularSys(11)
	id := s.WithOrdering(ordering.Identity(s.Net.NumHosts()))
	if id.Net != s.Net || id.Router != s.Router {
		t.Error("WithOrdering cloned topology or router")
	}
	if id.Ord.Name() != "identity" || s.Ord.Name() != "cco" {
		t.Error("ordering not swapped")
	}
	// Both systems plan and simulate successfully.
	spec := Spec{Source: 0, Dests: []int{5, 9}, Packets: 2, Policy: OptimalTree}
	if id.Latency(spec, sim.DefaultParams()) <= 0 {
		t.Error("cloned system cannot simulate")
	}
}

func TestWithoutLinkFailover(t *testing.T) {
	// End-to-end failover: multicast completes before and after failing a
	// sequence of random switch-switch links, with routing and ordering
	// rebuilt on the degraded network each time.
	s := irregularSys(12)
	rng := workload.NewRNG(41)
	set := workload.DestSet(rng, 64, 15)
	spec := Spec{Source: set[0], Dests: set[1:], Packets: 4, Policy: OptimalTree}
	healthy := s.Latency(spec, sim.DefaultParams())
	if healthy <= 0 {
		t.Fatal("healthy run failed")
	}
	failed := 0
	for attempt := 0; attempt < 30 && failed < 4; attempt++ {
		links := s.Net.Links()
		l := links[rng.Intn(len(links))]
		if l.A.Kind != topology.SwitchNode || l.B.Kind != topology.SwitchNode {
			continue
		}
		if !s.Net.WithoutLink(l.ID).Connected() {
			continue
		}
		s = s.WithoutLink(l.ID)
		failed++
		lat := s.Latency(spec, sim.DefaultParams())
		if lat <= 0 {
			t.Fatalf("failover %d: multicast failed", failed)
		}
	}
	if failed == 0 {
		t.Fatal("no link could be failed")
	}
}

func TestWithoutLinkPanicsOnPartition(t *testing.T) {
	// The default testbed has no switch bridge at any small seed; capping
	// each switch at three inter-switch links leaves one at seed 2.
	cfg := topology.DefaultIrregular()
	cfg.ExtraDegree = 3
	s := NewIrregularSystem(cfg, 2)
	bridge := -1
	for _, l := range s.Net.Links() {
		if l.A.Kind != topology.SwitchNode || l.B.Kind != topology.SwitchNode {
			continue
		}
		if !s.Net.WithoutLink(l.ID).Connected() {
			bridge = l.ID
			break
		}
	}
	if bridge < 0 {
		t.Fatal("no bridge link in this topology")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on partition")
		}
	}()
	s.WithoutLink(bridge)
}

func TestWithoutLinkRejectsCubeSystems(t *testing.T) {
	s := NewCubeSystem(2, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for cube system")
		}
	}()
	s.WithoutLink(0)
}
