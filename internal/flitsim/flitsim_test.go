package flitsim

import (
	"math"
	"testing"

	"repro/internal/ordering"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/tree"
	"repro/internal/workload"
)

func testSystem(seed uint64) (*topology.Network, *routing.UpDown, *ordering.Ordering) {
	net := topology.Irregular(topology.DefaultIrregular(), workload.NewRNG(seed))
	r := routing.NewUpDown(net)
	return net, r, ordering.CCO(r)
}

func TestSingleTransferLatency(t *testing.T) {
	// One packet, one destination: latency = t_s + t_ns + flight + t_nr +
	// t_r cycles, where flight = flits + hops (pipelined worm: head takes
	// one cycle per channel, tail lags by FlitsPerPacket-1, plus one cycle
	// of delivery consumption).
	_, r, _ := testSystem(1)
	p := DefaultParams()
	tr := tree.Linear([]int{0, 9})
	res := Multicast(r, tr, 1, p)
	route := r.Route(0, 9)
	channels := len(route.Channels)
	flight := channels + p.FlitsPerPacket - 1 + 1 // head hops + tail lag + delivery consume
	want := p.HostSendCycles + p.NISendCycles + flight + p.NIRecvCycles + p.HostRecvCycles
	if d := res.Cycles - want; d < -2 || d > 2 {
		t.Errorf("cycles = %d, want %d +- 2 (channels=%d)", res.Cycles, want, channels)
	}
	if res.Injections != 1 {
		t.Errorf("injections = %d, want 1", res.Injections)
	}
}

func TestMulticastCompletesAllShapes(t *testing.T) {
	_, r, o := testSystem(2)
	rng := workload.NewRNG(7)
	for trial := 0; trial < 6; trial++ {
		destCount := 3 + rng.Intn(12)
		m := 1 + rng.Intn(4)
		k := 1 + rng.Intn(4)
		set := workload.DestSet(rng, 64, destCount)
		chain := o.Chain(set[0], set[1:])
		tr := tree.KBinomial(chain, k)
		res := Multicast(r, tr, m, DefaultParams())
		if len(res.HostDone) != destCount {
			t.Fatalf("trial %d: %d completions, want %d", trial, len(res.HostDone), destCount)
		}
		if res.Injections != destCount*m {
			t.Fatalf("trial %d: %d injections, want %d", trial, res.Injections, destCount*m)
		}
		if res.Latency <= 0 {
			t.Fatalf("trial %d: latency %f", trial, res.Latency)
		}
	}
}

func TestDeterministic(t *testing.T) {
	_, r, o := testSystem(3)
	chain := o.Chain(0, []int{5, 9, 22, 33, 41, 50, 63})
	tr := tree.KBinomial(chain, 2)
	a := Multicast(r, tr, 3, DefaultParams())
	b := Multicast(r, tr, 3, DefaultParams())
	if a.Cycles != b.Cycles || a.PeakChannelHold != b.PeakChannelHold {
		t.Errorf("nondeterministic: %d/%d vs %d/%d cycles/hold",
			a.Cycles, a.PeakChannelHold, b.Cycles, b.PeakChannelHold)
	}
}

func TestMonotoneInPackets(t *testing.T) {
	_, r, o := testSystem(4)
	chain := o.Chain(0, []int{7, 15, 23, 31, 39, 47, 55})
	tr := tree.KBinomial(chain, 2)
	prev := 0
	for m := 1; m <= 4; m++ {
		res := Multicast(r, tr, m, DefaultParams())
		if res.Cycles <= prev {
			t.Errorf("m=%d: cycles %d not increasing", m, res.Cycles)
		}
		prev = res.Cycles
	}
}

func TestAgreesWithPacketLevelSim(t *testing.T) {
	// The packet-granularity simulator approximates this flit model.
	// With matched constants the two must agree within 15% on the paper's
	// workloads (they differ in wire pipelining details and blocking).
	_, r, o := testSystem(5)
	fp := DefaultParams()
	pp := fp.PacketParams() // matched constants: wire = flits*cycle, 1 cycle per hop
	rng := workload.NewRNG(11)
	var worst float64
	for trial := 0; trial < 5; trial++ {
		destCount := 7 + rng.Intn(16)
		m := 1 + rng.Intn(6)
		set := workload.DestSet(rng, 64, destCount)
		chain := o.Chain(set[0], set[1:])
		tr := tree.KBinomial(chain, 2)
		flit := Multicast(r, tr, m, fp).Latency
		pkt := sim.Multicast(r, tr, m, pp, stepsim.FPFS).Latency
		ratio := flit / pkt
		if math.Abs(ratio-1) > 0.15 {
			t.Errorf("trial %d (n=%d m=%d): flit %f vs packet %f (ratio %f)",
				trial, destCount+1, m, flit, pkt, ratio)
		}
		if d := math.Abs(ratio - 1); d > worst {
			worst = d
		}
	}
	t.Logf("worst flit/packet disagreement: %.1f%%", worst*100)
}

func TestKBinomialStillBeatsBinomialAtFlitLevel(t *testing.T) {
	// The headline result must survive the exact wormhole model.
	_, r, o := testSystem(6)
	rng := workload.NewRNG(13)
	set := workload.DestSet(rng, 64, 31)
	chain := o.Chain(set[0], set[1:])
	m := 8
	bin := Multicast(r, tree.Binomial(chain), m, DefaultParams()).Latency
	kbin := Multicast(r, tree.KBinomial(chain, 2), m, DefaultParams()).Latency
	if kbin >= bin {
		t.Errorf("flit level: k-binomial %f not faster than binomial %f", kbin, bin)
	}
	if ratio := bin / kbin; ratio < 1.2 {
		t.Errorf("flit-level speedup %f, expected > 1.2 at m=8", ratio)
	}
}

func TestBufferDepthMatters(t *testing.T) {
	// Deeper input buffers absorb more blocking: latency with 16-flit
	// buffers must be <= latency with 1-flit buffers.
	_, r, o := testSystem(7)
	rng := workload.NewRNG(17)
	set := workload.DestSet(rng, 64, 31)
	chain := o.Chain(set[0], set[1:])
	tr := tree.Binomial(chain)
	shallow := DefaultParams()
	shallow.BufferFlits = 1
	deep := DefaultParams()
	deep.BufferFlits = 16
	a := Multicast(r, tr, 4, shallow)
	b := Multicast(r, tr, 4, deep)
	if b.Cycles > a.Cycles {
		t.Errorf("deep buffers slower: %d vs %d cycles", b.Cycles, a.Cycles)
	}
}

func TestPeakChannelHoldReasonable(t *testing.T) {
	_, r, o := testSystem(8)
	set := workload.DestSet(workload.NewRNG(19), 64, 15)
	chain := o.Chain(set[0], set[1:])
	res := Multicast(r, tree.KBinomial(chain, 2), 4, DefaultParams())
	// A worm holds its path at least flits+hops cycles and far less than
	// the whole simulation.
	if res.PeakChannelHold < DefaultParams().FlitsPerPacket {
		t.Errorf("peak hold %d cycles implausibly small", res.PeakChannelHold)
	}
	if res.PeakChannelHold > res.Cycles/2 {
		t.Errorf("peak hold %d cycles too large vs %d total", res.PeakChannelHold, res.Cycles)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{FlitsPerPacket: 0, CycleUS: 1, NISendCycles: 1, BufferFlits: 1},
		{FlitsPerPacket: 1, CycleUS: 0, NISendCycles: 1, BufferFlits: 1},
		{FlitsPerPacket: 1, CycleUS: 1, NISendCycles: 0, BufferFlits: 1},
		{FlitsPerPacket: 1, CycleUS: 1, NISendCycles: 1, BufferFlits: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for m=0")
		}
	}()
	_, r, _ := testSystem(9)
	Multicast(r, tree.Linear([]int{0, 1}), 0, DefaultParams())
}

func TestCubeSingleTransferExactPipeline(t *testing.T) {
	// On a hypercube the route lengths are known exactly; check the worm
	// pipeline arithmetic on a 3-hop route.
	net := topology.Cube(2, 3)
	r := routing.NewECube(net, 2, 3)
	p := DefaultParams()
	tr := tree.Linear([]int{0, 7}) // coordinates 000 -> 111: 3 switch hops
	res := Multicast(r, tr, 1, p)
	route := r.Route(0, 7)
	if route.Hops() != 3 {
		t.Fatalf("route hops = %d, want 3", route.Hops())
	}
	channels := len(route.Channels) // 5: inject + 3 + deliver
	flight := channels + p.FlitsPerPacket - 1 + 1
	want := p.HostSendCycles + p.NISendCycles + flight + p.NIRecvCycles + p.HostRecvCycles
	if d := res.Cycles - want; d < -2 || d > 2 {
		t.Errorf("cycles = %d, want %d +- 2", res.Cycles, want)
	}
}

func TestBackToBackPacketsPipelineAtNIRate(t *testing.T) {
	// Two packets to one destination: the second is injected NISendCycles
	// after the first finishes injection, so completion spacing ~= the NI
	// service time (overhead + flits), not the full flight.
	_, r, _ := testSystem(10)
	p := DefaultParams()
	tr := tree.Linear([]int{0, 9})
	one := Multicast(r, tr, 1, p).Cycles
	two := Multicast(r, tr, 2, p).Cycles
	spacing := two - one
	service := p.NISendCycles + p.FlitsPerPacket
	if d := spacing - service; d < -3 || d > 3 {
		t.Errorf("packet spacing %d cycles, want ~%d (NI service time)", spacing, service)
	}
}

func TestFlitLevelTheorem2Shape(t *testing.T) {
	// At flit level the pipelined completion must still track
	// t1 + (m-1)*cR in units of the NI service time on a full k-binomial
	// tree (contention-free CCO chain, low traffic).
	_, r, o := testSystem(11)
	p := DefaultParams()
	chain := o.Chain(0, o.Hosts()[1:16]) // 16 participants
	tr := tree.KBinomial(chain, 2)
	m1 := Multicast(r, tr, 1, p).Cycles
	m4 := Multicast(r, tr, 4, p).Cycles
	lagPerPacket := float64(m4-m1) / 3
	service := float64(tr.RootDegree()) * float64(p.NISendCycles+p.FlitsPerPacket)
	if ratio := lagPerPacket / service; ratio < 0.85 || ratio > 1.25 {
		t.Errorf("per-packet lag %f cycles vs c_R service %f (ratio %f)", lagPerPacket, service, ratio)
	}
}

func TestFlitConservationOnMesh(t *testing.T) {
	net := topology.Mesh(4, 2)
	r := routing.NewMeshDimOrder(net, 4, 2)
	chain := []int{0, 5, 10, 15, 3, 12}
	tr := tree.KBinomial(chain, 2)
	res := Multicast(r, tr, 3, DefaultParams())
	if res.Injections != 5*3 {
		t.Errorf("injections = %d, want 15", res.Injections)
	}
	if len(res.HostDone) != 5 {
		t.Errorf("%d hosts done, want 5", len(res.HostDone))
	}
}

func TestTinyBuffersStillComplete(t *testing.T) {
	// BufferFlits = 1 is the hardest case for deadlock/livelock; up*/down*
	// routes guarantee progress regardless.
	_, r, o := testSystem(12)
	p := DefaultParams()
	p.BufferFlits = 1
	set := workload.DestSet(workload.NewRNG(3), 64, 23)
	chain := o.Chain(set[0], set[1:])
	res := Multicast(r, tree.Binomial(chain), 4, p)
	if len(res.HostDone) != 23 {
		t.Fatalf("%d completions with 1-flit buffers", len(res.HostDone))
	}
}

func TestDisciplinesAtFlitLevel(t *testing.T) {
	// All three disciplines complete with exact copy conservation, and the
	// expected latency ordering holds: FPFS <= FCFS (balanced k=2 tree)
	// << Conventional.
	_, r, o := testSystem(13)
	set := workload.DestSet(workload.NewRNG(23), 64, 15)
	chain := o.Chain(set[0], set[1:])
	tr := tree.KBinomial(chain, 2)
	m := 4
	results := map[stepsim.Discipline]*Result{}
	for _, d := range []stepsim.Discipline{stepsim.FPFS, stepsim.FCFS, stepsim.Conventional} {
		res := MulticastDisc(r, tr, m, DefaultParams(), d)
		if res.Injections != 15*m {
			t.Fatalf("%v: %d injections, want %d", d, res.Injections, 15*m)
		}
		if len(res.HostDone) != 15 {
			t.Fatalf("%v: %d completions", d, len(res.HostDone))
		}
		results[d] = res
	}
	if results[stepsim.FPFS].Latency > results[stepsim.FCFS].Latency {
		t.Errorf("flit level: FPFS %f slower than FCFS %f on k=2 tree",
			results[stepsim.FPFS].Latency, results[stepsim.FCFS].Latency)
	}
	if results[stepsim.Conventional].Latency <= results[stepsim.FPFS].Latency {
		t.Errorf("flit level: conventional %f not slower than FPFS %f",
			results[stepsim.Conventional].Latency, results[stepsim.FPFS].Latency)
	}
}

func TestFCFSFlitAgreesWithPacketSim(t *testing.T) {
	// Cross-validate the FCFS discipline between the two network models,
	// like the FPFS agreement test.
	_, r, o := testSystem(14)
	fp := DefaultParams()
	pp := fp.PacketParams()
	set := workload.DestSet(workload.NewRNG(29), 64, 15)
	chain := o.Chain(set[0], set[1:])
	tr := tree.KBinomial(chain, 3)
	flit := MulticastDisc(r, tr, 5, fp, stepsim.FCFS).Latency
	pkt := sim.Multicast(r, tr, 5, pp, stepsim.FCFS).Latency
	if ratio := flit / pkt; math.Abs(ratio-1) > 0.15 {
		t.Errorf("FCFS flit %f vs packet %f (ratio %f)", flit, pkt, ratio)
	}
}

func TestUnknownDisciplinePanics(t *testing.T) {
	_, r, _ := testSystem(15)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MulticastDisc(r, tree.Linear([]int{0, 1}), 1, DefaultParams(), stepsim.Discipline(9))
}
