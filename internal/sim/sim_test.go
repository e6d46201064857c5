package sim

import (
	"math"
	"testing"

	"repro/internal/ordering"
	"repro/internal/routing"
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

func TestEngineEventOrder(t *testing.T) {
	e := NewEngine(0)
	var got []int
	e.At(2.0, func() { got = append(got, 2) })
	e.At(1.0, func() { got = append(got, 1) })
	e.At(1.0, func() { got = append(got, 11) }) // same time: FIFO
	e.At(3.0, func() { got = append(got, 3) })
	end := e.Run()
	want := []int{1, 11, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
	if end != 3.0 {
		t.Errorf("final time %f, want 3.0", end)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(0)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.At(e.Now()+1, tick)
		}
	}
	e.At(0, tick)
	if end := e.Run(); end != 4.0 || count != 5 {
		t.Errorf("end=%f count=%d, want 4.0, 5", end, count)
	}
}

func TestEnginePastPanic(t *testing.T) {
	e := NewEngine(0)
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into the past")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestReservePathNoContention(t *testing.T) {
	e := NewEngine(10)
	route := routing.Route{Channels: []int{0, 1, 2}}
	start, arrive := e.ReservePath(route, 5.0, 0.4, 0.2)
	if start != 5.0 {
		t.Errorf("start = %f, want 5.0 (uncontended)", start)
	}
	if want := 5.0 + 2*0.2 + 0.4; math.Abs(arrive-want) > 1e-9 {
		t.Errorf("arrive = %f, want %f", arrive, want)
	}
}

func TestReservePathContention(t *testing.T) {
	e := NewEngine(10)
	route := routing.Route{Channels: []int{0, 1, 2}}
	e.ReservePath(route, 5.0, 0.4, 0.2)
	// Second packet on the same path must wait for channel 0 to free at
	// 5.4 (start+wire).
	start2, _ := e.ReservePath(route, 5.0, 0.4, 0.2)
	if math.Abs(start2-5.4) > 1e-9 {
		t.Errorf("contended start = %f, want 5.4", start2)
	}
	// Disjoint path is unaffected.
	other := routing.Route{Channels: []int{5, 6}}
	start3, _ := e.ReservePath(other, 5.0, 0.4, 0.2)
	if start3 != 5.0 {
		t.Errorf("disjoint start = %f, want 5.0", start3)
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.THostSend != 12.5 || p.THostRecv != 12.5 || p.TNISend != 3.0 || p.TNIRecv != 2.0 || p.PacketBytes != 64 {
		t.Errorf("DefaultParams do not match the paper: %+v", p)
	}
	if w := p.WireTime(); math.Abs(w-0.4) > 1e-9 {
		t.Errorf("wire time %f, want 0.4", w)
	}
	if s := p.StepTime(2); math.Abs(s-(3.0+0.4+0.4+2.0)) > 1e-9 {
		t.Errorf("StepTime(2) = %f", s)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{THostSend: -1, TNISend: 1, TNIRecv: 1, PacketBytes: 64, LinkBytesUS: 100},
		{TNISend: 0, PacketBytes: 64, LinkBytesUS: 100},
		{TNISend: 1, PacketBytes: 0, LinkBytesUS: 100},
		{TNISend: 1, PacketBytes: 64, LinkBytesUS: 0},
		{TNISend: 1, PacketBytes: 64, LinkBytesUS: 100, RouterDelay: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestMulticastSingleDest(t *testing.T) {
	// One destination, one packet: latency = t_s + t_ns + path + t_nr + t_r,
	// with path = hops*router + wire.
	net, r, _ := testSystem(1)
	p := DefaultParams()
	tr := tree.Linear([]int{0, 63})
	res := Multicast(r, tr, 1, p, stepsim.FPFS)
	route := r.Route(0, 63)
	want := p.THostSend + p.TNISend + float64(len(route.Channels)-1)*p.RouterDelay + p.WireTime() + p.TNIRecv + p.THostRecv
	if math.Abs(res.Latency-want) > 1e-9 {
		t.Errorf("latency = %f, want %f", res.Latency, want)
	}
	if res.Sends != 1 {
		t.Errorf("sends = %d, want 1", res.Sends)
	}
	_ = net
}

func TestMulticastAllDisciplinesComplete(t *testing.T) {
	_, r, o := testSystem(2)
	rng := workload.NewRNG(5)
	for _, d := range []stepsim.Discipline{stepsim.FPFS, stepsim.FCFS, stepsim.Conventional} {
		for trial := 0; trial < 5; trial++ {
			set := workload.DestSet(rng, 64, 15)
			chain := o.Chain(set[0], set[1:])
			tr := tree.KBinomial(chain, 2)
			res := Multicast(r, tr, 4, DefaultParams(), d)
			if res.Latency <= 0 {
				t.Fatalf("%v: non-positive latency", d)
			}
			if res.Sends != 15*4 {
				t.Fatalf("%v: %d sends, want 60", d, res.Sends)
			}
			if len(res.HostDone) != 15 {
				t.Fatalf("%v: %d destinations completed, want 15", d, len(res.HostDone))
			}
		}
	}
}

func TestMulticastDeterministic(t *testing.T) {
	_, r, o := testSystem(3)
	chain := o.Chain(0, []int{5, 9, 13, 22, 40, 61, 33})
	tr := tree.KBinomial(chain, 3)
	a := Multicast(r, tr, 5, DefaultParams(), stepsim.FPFS)
	b := Multicast(r, tr, 5, DefaultParams(), stepsim.FPFS)
	if a.Latency != b.Latency || a.ChannelWait != b.ChannelWait {
		t.Errorf("nondeterministic: %f/%f vs %f/%f", a.Latency, a.ChannelWait, b.Latency, b.ChannelWait)
	}
}

func TestSmartBeatsConventional(t *testing.T) {
	// Section 2.5: smart NI forwarding eliminates per-hop host software
	// overhead, so FPFS must beat conventional for any multi-level tree.
	_, r, o := testSystem(4)
	rng := workload.NewRNG(7)
	for trial := 0; trial < 10; trial++ {
		set := workload.DestSet(rng, 64, 15)
		chain := o.Chain(set[0], set[1:])
		tr := tree.Binomial(chain)
		fp := Multicast(r, tr, 2, DefaultParams(), stepsim.FPFS)
		conv := Multicast(r, tr, 2, DefaultParams(), stepsim.Conventional)
		if fp.Latency >= conv.Latency {
			t.Errorf("trial %d: FPFS %f >= conventional %f", trial, fp.Latency, conv.Latency)
		}
	}
}

func TestFPFSNoSlowerThanFCFS(t *testing.T) {
	_, r, o := testSystem(5)
	rng := workload.NewRNG(11)
	for trial := 0; trial < 10; trial++ {
		set := workload.DestSet(rng, 64, 31)
		chain := o.Chain(set[0], set[1:])
		tr := tree.KBinomial(chain, 2)
		fp := Multicast(r, tr, 4, DefaultParams(), stepsim.FPFS)
		fc := Multicast(r, tr, 4, DefaultParams(), stepsim.FCFS)
		if fp.Latency > fc.Latency+1e-9 {
			t.Errorf("trial %d: FPFS %f > FCFS %f", trial, fp.Latency, fc.Latency)
		}
	}
}

func TestBufferFPFSLighterThanFCFS(t *testing.T) {
	// Section 3.3.2: FCFS buffers the whole message at intermediate
	// forwarders; FPFS only what is in flight. Compare peak residency at
	// intermediate nodes (exclude the source, which holds the message
	// under both).
	_, r, o := testSystem(6)
	rng := workload.NewRNG(13)
	for trial := 0; trial < 10; trial++ {
		set := workload.DestSet(rng, 64, 31)
		chain := o.Chain(set[0], set[1:])
		tr := tree.KBinomial(chain, 3)
		m := 8
		fp := Multicast(r, tr, m, DefaultParams(), stepsim.FPFS)
		fc := Multicast(r, tr, m, DefaultParams(), stepsim.FCFS)
		src := tr.Root()
		peakFP, peakFC := 0, 0
		for v, b := range fp.MaxBuffered {
			if v != src && b > peakFP {
				peakFP = b
			}
		}
		for v, b := range fc.MaxBuffered {
			if v != src && b > peakFC {
				peakFC = b
			}
		}
		if peakFP > peakFC {
			t.Errorf("trial %d: FPFS peak %d > FCFS peak %d", trial, peakFP, peakFC)
		}
		if peakFC < m {
			t.Errorf("trial %d: FCFS peak %d < message length %d (must hold whole message)", trial, peakFC, m)
		}
	}
}

func TestLatencyMonotoneInPackets(t *testing.T) {
	_, r, o := testSystem(7)
	chain := o.Chain(0, []int{3, 17, 33, 42, 50, 58, 63})
	tr := tree.KBinomial(chain, 2)
	prev := 0.0
	for m := 1; m <= 8; m++ {
		res := Multicast(r, tr, m, DefaultParams(), stepsim.FPFS)
		if res.Latency <= prev {
			t.Errorf("m=%d: latency %f not increasing (prev %f)", m, res.Latency, prev)
		}
		prev = res.Latency
	}
}

func TestSimTracksStepModelWithoutContention(t *testing.T) {
	// With near-zero wire/router cost and CCO's low contention, the event
	// simulation should be close to t_s + steps*t_step' + t_r where steps
	// comes from the exact step model and t_step' = t_ns + t_nr: each
	// step's NI overheads dominate.
	_, r, o := testSystem(8)
	p := DefaultParams()
	p.LinkBytesUS = 1e9 // wire time ~ 0
	p.RouterDelay = 0
	rng := workload.NewRNG(17)
	for trial := 0; trial < 5; trial++ {
		set := workload.DestSet(rng, 64, 15)
		chain := o.Chain(set[0], set[1:])
		tr := tree.KBinomial(chain, 2)
		res := Multicast(r, tr, 3, p, stepsim.FPFS)
		//

		// The serial-server pipeline in continuous time is bounded by the
		// step model: NI send overhead t_ns per copy, receive t_nr per
		// packet; a step costs at most t_ns+t_nr and overlaps with others.
		steps := stepsim.Steps(tr, 3, stepsim.FPFS)
		upper := p.THostSend + float64(steps)*(p.TNISend+p.TNIRecv) + p.THostRecv + res.ChannelWait + 1e-6
		if res.Latency > upper {
			t.Errorf("trial %d: latency %f exceeds step-model bound %f", trial, res.Latency, upper)
		}
		lower := p.THostSend + p.TNISend + p.TNIRecv + p.THostRecv
		if res.Latency < lower {
			t.Errorf("trial %d: latency %f below single-step floor %f", trial, res.Latency, lower)
		}
	}
}

func TestChannelWaitZeroForSingleEdge(t *testing.T) {
	_, r, _ := testSystem(9)
	tr := tree.Linear([]int{0, 12})
	res := Multicast(r, tr, 6, DefaultParams(), stepsim.FPFS)
	if res.ChannelWait > 1e-9 {
		// A single edge reuses the same path per packet; with t_ns = 3.0
		// > wire 0.4 the path is always free again before the next
		// injection.
		t.Errorf("unexpected channel wait %f on single edge", res.ChannelWait)
	}
}

func TestContentionSlowsThingsDown(t *testing.T) {
	// Drive many packets across trees built on an adversarial ordering and
	// confirm contention shows up as positive ChannelWait somewhere.
	_, r, _ := testSystem(10)
	id := ordering.Identity(64)
	rng := workload.NewRNG(23)
	sawWait := false
	for trial := 0; trial < 20 && !sawWait; trial++ {
		set := workload.DestSet(rng, 64, 47)
		chain := id.Chain(set[0], set[1:])
		tr := tree.Binomial(chain)
		res := Multicast(r, tr, 8, DefaultParams(), stepsim.FPFS)
		if res.ChannelWait > 0 {
			sawWait = true
		}
	}
	if !sawWait {
		t.Error("no channel contention observed across 20 adversarial trials (model suspicious)")
	}
}

func TestMulticastPanics(t *testing.T) {
	_, r, _ := testSystem(11)
	tr := tree.Linear([]int{0, 1})
	for i, f := range []func(){
		func() { Multicast(r, tr, 0, DefaultParams(), stepsim.FPFS) },
		func() {
			p := DefaultParams()
			p.PacketBytes = 0
			Multicast(r, tr, 1, p, stepsim.FPFS)
		},
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

// TestMaxBufferedOverall: MaxBuffered has one entry per forwarding node
// (source and intermediates, no leaves), and under FCFS — every forwarder
// holds the whole message — the largest entry is exactly m.
func TestMaxBufferedOverall(t *testing.T) {
	_, r, _ := testSystem(2)
	tr := benchTree(2)
	const m = 7
	res := Multicast(r, tr, m, DefaultParams(), stepsim.FCFS)
	overall := 0
	for v, b := range res.MaxBuffered {
		if len(tr.Children(v)) == 0 {
			t.Errorf("leaf %d has a MaxBuffered entry (%d)", v, b)
		}
		overall = max(overall, b)
	}
	if overall != m {
		t.Errorf("largest MaxBuffered entry = %d, want %d", overall, m)
	}
	for _, v := range tr.Nodes() {
		if _, ok := res.MaxBuffered[v]; !ok && len(tr.Children(v)) > 0 {
			t.Errorf("forwarder %d has no MaxBuffered entry", v)
		}
	}
}
