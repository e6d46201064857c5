package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/routing"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/tree"
	"repro/internal/workload"
)

func TestConcurrentSingleSessionMatchesMulticast(t *testing.T) {
	// One session must reproduce the single-multicast simulation exactly.
	_, r, o := testSystem(1)
	rng := workload.NewRNG(9)
	for trial := 0; trial < 10; trial++ {
		set := workload.DestSet(rng, 64, 15)
		chain := o.Chain(set[0], set[1:])
		tr := tree.KBinomial(chain, 2)
		for _, d := range []stepsim.Discipline{stepsim.FPFS, stepsim.FCFS, stepsim.Conventional} {
			single := Multicast(r, tr, 4, DefaultParams(), d)
			conc := Concurrent(r, []Session{{Tree: tr, Packets: 4}}, DefaultParams(), d)
			if math.Abs(single.Latency-conc.Sessions[0].Latency) > 1e-9 {
				t.Fatalf("%v trial %d: single %f vs concurrent %f",
					d, trial, single.Latency, conc.Sessions[0].Latency)
			}
			if single.Sends != conc.Sends {
				t.Fatalf("%v: send counts differ: %d vs %d", d, single.Sends, conc.Sends)
			}
			for h, tm := range single.HostDone {
				if math.Abs(conc.Sessions[0].HostDone[h]-tm) > 1e-9 {
					t.Fatalf("%v: host %d completion differs", d, h)
				}
			}
		}
	}
}

func TestConcurrentDisjointSessionsDontInterfere(t *testing.T) {
	// Two multicasts whose trees and routes are edge-disjoint (hosts on
	// the same switch pair off) finish as fast as they would alone.
	net, r, _ := testSystem(2)
	// Host pairs sharing a switch: route is injection+delivery only.
	h0 := net.SwitchHosts(0)
	h1 := net.SwitchHosts(1)
	trA := tree.Linear([]int{h0[0], h0[1]})
	trB := tree.Linear([]int{h1[0], h1[1]})
	alone := Multicast(r, trA, 6, DefaultParams(), stepsim.FPFS)
	both := Concurrent(r, []Session{
		{Tree: trA, Packets: 6},
		{Tree: trB, Packets: 6},
	}, DefaultParams(), stepsim.FPFS)
	for si := 0; si < 2; si++ {
		if math.Abs(both.Sessions[si].Latency-alone.Latency) > 1e-9 {
			t.Errorf("session %d latency %f, alone %f", si, both.Sessions[si].Latency, alone.Latency)
		}
	}
	if both.ChannelWait != 0 {
		t.Errorf("disjoint sessions waited %f on channels", both.ChannelWait)
	}
}

func TestConcurrentSharedSourceSerializes(t *testing.T) {
	// Two sessions rooted at the same host share its NI: combined latency
	// must exceed either alone.
	_, r, _ := testSystem(3)
	trA := tree.Linear([]int{0, 10})
	trB := tree.Linear([]int{0, 20})
	alone := Multicast(r, trA, 8, DefaultParams(), stepsim.FPFS)
	both := Concurrent(r, []Session{
		{Tree: trA, Packets: 8},
		{Tree: trB, Packets: 8},
	}, DefaultParams(), stepsim.FPFS)
	slower := math.Max(both.Sessions[0].Latency, both.Sessions[1].Latency)
	if slower <= alone.Latency {
		t.Errorf("shared-source sessions did not serialize: %f vs alone %f", slower, alone.Latency)
	}
}

func TestConcurrentStaggeredStart(t *testing.T) {
	// A session starting at time T completes (absolute) later than the
	// same session at time 0, and its latency stays the session-relative
	// measure.
	_, r, o := testSystem(4)
	chain := o.Chain(0, []int{5, 9, 13, 22})
	tr := tree.KBinomial(chain, 2)
	at0 := Concurrent(r, []Session{{Tree: tr, Packets: 3}}, DefaultParams(), stepsim.FPFS)
	at50 := Concurrent(r, []Session{{Tree: tr, Packets: 3, Start: 50}}, DefaultParams(), stepsim.FPFS)
	if math.Abs(at0.Sessions[0].Latency-at50.Sessions[0].Latency) > 1e-9 {
		t.Errorf("latency changed with start time: %f vs %f",
			at0.Sessions[0].Latency, at50.Sessions[0].Latency)
	}
	if math.Abs(at50.Makespan-(at0.Makespan+50)) > 1e-9 {
		t.Errorf("makespan %f, want %f", at50.Makespan, at0.Makespan+50)
	}
}

func TestConcurrentManyMulticastsComplete(t *testing.T) {
	// A batch of overlapping random multicasts all complete, with
	// conservation of sends.
	_, r, o := testSystem(5)
	rng := workload.NewRNG(11)
	var sessions []Session
	wantSends := 0
	for i := 0; i < 6; i++ {
		set := workload.DestSet(rng, 64, 7)
		chain := o.Chain(set[0], set[1:])
		sessions = append(sessions, Session{Tree: tree.KBinomial(chain, 2), Packets: 3})
		wantSends += 7 * 3
	}
	res := Concurrent(r, sessions, DefaultParams(), stepsim.FPFS)
	if res.Sends != wantSends {
		t.Errorf("sends = %d, want %d", res.Sends, wantSends)
	}
	for si, s := range res.Sessions {
		if len(s.HostDone) != 7 {
			t.Errorf("session %d: %d completions", si, len(s.HostDone))
		}
		if s.Latency <= 0 {
			t.Errorf("session %d: latency %f", si, s.Latency)
		}
	}
	if res.MaxLatency() < res.Sessions[0].Latency {
		t.Error("MaxLatency below a session latency")
	}
}

func TestConcurrentContentionGrowsWithSessions(t *testing.T) {
	// Average per-session latency must not decrease as more concurrent
	// multicasts are added (the Kesavan-Panda ICPP'96 multiple-multicast
	// observation).
	_, r, o := testSystem(6)
	rng := workload.NewRNG(13)
	mkSession := func() Session {
		set := workload.DestSet(rng, 64, 15)
		chain := o.Chain(set[0], set[1:])
		return Session{Tree: tree.KBinomial(chain, 2), Packets: 4}
	}
	base := []Session{mkSession(), mkSession(), mkSession(), mkSession()}
	mean := func(k int) float64 {
		res := Concurrent(r, base[:k], DefaultParams(), stepsim.FPFS)
		sum := 0.0
		for _, s := range res.Sessions {
			sum += s.Latency
		}
		return sum / float64(k)
	}
	m1, m4 := mean(1), mean(4)
	if m4 < m1-1e-9 {
		t.Errorf("mean latency fell with more sessions: %f -> %f", m1, m4)
	}
}

func TestConcurrentSharedIntermediateBuffersPool(t *testing.T) {
	// A host forwarding for two sessions pools its buffer: the recorded
	// peak must be at least the single-session peak.
	_, r, _ := testSystem(7)
	// Both trees route through host 1 as intermediate.
	trA := tree.Linear([]int{0, 1, 2})
	trB := tree.Linear([]int{3, 1, 4})
	resA := Concurrent(r, []Session{{Tree: trA, Packets: 6}}, DefaultParams(), stepsim.FPFS)
	both := Concurrent(r, []Session{
		{Tree: trA, Packets: 6},
		{Tree: trB, Packets: 6},
	}, DefaultParams(), stepsim.FPFS)
	if both.MaxBuffered[1] < resA.MaxBuffered[1] {
		t.Errorf("pooled peak %d below single-session peak %d",
			both.MaxBuffered[1], resA.MaxBuffered[1])
	}
}

func TestConcurrentDeterministic(t *testing.T) {
	_, r, o := testSystem(8)
	rng := workload.NewRNG(17)
	var sessions []Session
	for i := 0; i < 3; i++ {
		set := workload.DestSet(rng, 64, 11)
		chain := o.Chain(set[0], set[1:])
		sessions = append(sessions, Session{Tree: tree.KBinomial(chain, 3), Packets: 5})
	}
	a := Concurrent(r, sessions, DefaultParams(), stepsim.FPFS)
	b := Concurrent(r, sessions, DefaultParams(), stepsim.FPFS)
	for si := range a.Sessions {
		if a.Sessions[si].Latency != b.Sessions[si].Latency {
			t.Fatal("concurrent simulation not deterministic")
		}
	}
	if a.ChannelWait != b.ChannelWait || a.Sends != b.Sends {
		t.Fatal("aggregates not deterministic")
	}
}

func TestConcurrentPanics(t *testing.T) {
	_, r, _ := testSystem(9)
	tr := tree.Linear([]int{0, 1})
	for i, f := range []func(){
		func() { Concurrent(r, nil, DefaultParams(), stepsim.FPFS) },
		func() { Concurrent(r, []Session{{Tree: tr, Packets: 0}}, DefaultParams(), stepsim.FPFS) },
		func() { Concurrent(r, []Session{{Tree: tr, Packets: 1, Start: -1}}, DefaultParams(), stepsim.FPFS) },
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

func TestMultiPortNISpeedsUpWideTrees(t *testing.T) {
	// With p injection engines, a node's per-packet service time drops
	// from c*t_ns toward ceil(c/p)*t_ns: wide (binomial) trees benefit
	// most. Single-port must reproduce the default behaviour exactly.
	_, r, o := testSystem(20)
	rng := workload.NewRNG(71)
	set := workload.DestSet(rng, 64, 31)
	chain := o.Chain(set[0], set[1:])
	tr := tree.Binomial(chain)

	base := DefaultParams()
	one := base
	one.NIPorts = 1
	a := Multicast(r, tr, 8, base, stepsim.FPFS)
	b := Multicast(r, tr, 8, one, stepsim.FPFS)
	if a.Latency != b.Latency {
		t.Fatalf("NIPorts=0 (%f) differs from NIPorts=1 (%f)", a.Latency, b.Latency)
	}

	multi := base
	multi.NIPorts = 4
	c := Multicast(r, tr, 8, multi, stepsim.FPFS)
	if c.Latency >= a.Latency {
		t.Errorf("4-port NI (%f) not faster than 1-port (%f) on binomial tree", c.Latency, a.Latency)
	}
	if c.Sends != a.Sends {
		t.Errorf("port count changed send count: %d vs %d", c.Sends, a.Sends)
	}
}

func TestMultiPortShrinksKBinomialAdvantage(t *testing.T) {
	// The k-binomial tree's whole advantage comes from serial injection;
	// with enough ports the binomial tree catches up. Check the ratio
	// binomial/k-binomial falls when ports increase.
	_, r, o := testSystem(21)
	rng := workload.NewRNG(73)
	set := workload.DestSet(rng, 64, 31)
	chain := o.Chain(set[0], set[1:])
	bin := tree.Binomial(chain)
	kbin := tree.KBinomial(chain, 2)
	m := 16

	ratio := func(ports int) float64 {
		p := DefaultParams()
		p.NIPorts = ports
		b := Multicast(r, bin, m, p, stepsim.FPFS).Latency
		k := Multicast(r, kbin, m, p, stepsim.FPFS).Latency
		return b / k
	}
	r1, r8 := ratio(1), ratio(8)
	if r8 >= r1 {
		t.Errorf("k-binomial advantage did not shrink with ports: %f -> %f", r1, r8)
	}
	if r1 < 1.3 {
		t.Errorf("single-port advantage %f suspiciously small", r1)
	}
}

// TestTablesFollowTreeAndRouter pins what a pooled session table may keep
// between runs: its shape only while the tree is unchanged, its routes only
// while the router is. Each run on the pooled carcass must equal a run of
// the same inputs on a carcass never used before, after the tree grows and
// after the router changes under an unchanged tree.
func TestTablesFollowTreeAndRouter(t *testing.T) {
	mesh := routing.NewMeshDimOrder(topology.Mesh(4, 2), 4, 2)
	cube := routing.NewECube(topology.Cube(4, 2), 4, 2)
	p := DefaultParams()
	tr := tree.KBinomial([]int{0, 5, 10, 15, 3, 12}, 2)
	run := func(r routing.Router) *ConcurrentResult {
		return Concurrent(r, []Session{{Tree: tr, Packets: 3}}, p, stepsim.FPFS)
	}
	same := func(r routing.Router, step string) {
		t.Helper()
		var pooled []*model
		for len(modelFree) > 0 {
			pooled = append(pooled, <-modelFree)
		}
		want := run(r)
		for len(modelFree) > 0 {
			<-modelFree
		}
		for _, m := range pooled {
			modelFree <- m
		}
		if got := run(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pooled carcass %+v, new one %+v", step, got, want)
		}
	}
	same(mesh, "first run")
	same(mesh, "rerun")
	tr.AddChild(15, 6)
	same(mesh, "after AddChild")
	same(cube, "after a router change")
}
