package live

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/message"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// switchedDiff runs sessions (packet counts m, roots and destinations
// drawn on sys) through runSwitched at quantum (0: RunSwitched's own, the
// largest m) and through sim.Concurrent
// FPFS, fails the test unless every destination holds its payload, and
// returns the first difference: the total sends, a session's finish time
// or a destination's DoneAt against HostDone, to the nanosecond. "" means
// the two agree.
func switchedDiff(t *testing.T, sys *core.System, specs []core.Spec, start []float64, p sim.Params, quantum int) string {
	t.Helper()
	var (
		sessions []Session
		want     []sim.Session
		payloads [][]byte
	)
	for i, spec := range specs {
		plan := sys.Plan(spec)
		data := payloadBytes(spec.Packets*(p.PacketBytes-message.HeaderSize) - i)
		pkts, err := message.Packetize(uint32(i+1), spec.Source, data, p.PacketBytes)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, Session{Tree: plan.Tree, Packets: pkts, MsgID: uint32(i + 1)})
		want = append(want, sim.Session{Tree: plan.Tree, Packets: spec.Packets, Start: start[i]})
		payloads = append(payloads, data)
	}
	run := RunSwitched
	if quantum > 0 {
		run = func(sys *core.System, sessions []Session, start []float64, p sim.Params) (*Result, error) {
			return runSwitched(sys, sessions, start, p, quantum)
		}
	}
	got, err := run(sys, sessions, start, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range got.Sessions {
		for _, h := range specs[i].Dests {
			if !bytes.Equal(sr.Hosts[h].Data, payloads[i]) {
				t.Fatalf("quantum %d: session %d host %d holds %d B of %d", quantum, i, h, len(sr.Hosts[h].Data), len(payloads[i]))
			}
		}
	}
	ref := sim.Concurrent(sys.Router, want, p, stepsim.FPFS)
	ns := func(us float64) time.Duration { return time.Duration(math.Round(us * 1e3)) }
	if got.Sends != ref.Sends {
		return fmt.Sprintf("sends %d, sim %d", got.Sends, ref.Sends)
	}
	for i, sr := range got.Sessions {
		if w := ns(start[i] + ref.Sessions[i].Latency); sr.FinishAt != w {
			return fmt.Sprintf("session %d finishes at %v, sim at %v", i, sr.FinishAt, w)
		}
		for h, hd := range ref.Sessions[i].HostDone {
			if at := sr.Hosts[h].DoneAt; at != ns(hd) {
				return fmt.Sprintf("session %d host %d done at %v, sim at %v", i, h, at, ns(hd))
			}
		}
	}
	return ""
}

// drawSpec draws a multicast of m packets from src to n-1 other hosts of sys.
func drawSpec(rng *workload.RNG, sys *core.System, src, n, m int) core.Spec {
	spec := core.Spec{Source: src, Packets: m, Policy: core.OptimalTree}
	for _, h := range rng.Perm(sys.Net.NumHosts()) {
		if h != src && len(spec.Dests) < n-1 {
			spec.Dests = append(spec.Dests, h)
		}
	}
	return spec
}

func switchedSystems() []*core.System {
	return []*core.System{
		core.NewIrregularSystem(topology.IrregularConfig{Hosts: 32, Switches: 8, Ports: 8}, 7),
		core.NewCubeSystem(2, 5),
		core.NewMeshSystem(4, 2),
	}
}

// TestRunSwitchedMatchesSim holds plain sessions in virtual time over the
// switched network to sim's FIFO FPFS NI: one session and two contending
// ones (the second started mid-flight, or with the first at its root), at
// 1 and 2 NI ports, on three networks, equal to the nanosecond.
func TestRunSwitchedMatchesSim(t *testing.T) {
	rng := workload.NewRNG(53)
	for si, sys := range switchedSystems() {
		hosts := sys.Net.NumHosts()
		for c := 0; c < 40; c++ {
			p := sim.DefaultParams()
			p.NIPorts = 1 + c%2
			specs := []core.Spec{drawSpec(rng, sys, rng.Intn(hosts), 2+rng.Intn(hosts-1), 1+rng.Intn(12))}
			start := []float64{0}
			if c%4 != 0 {
				root, at := rng.Intn(hosts), 7.5*float64(rng.Intn(8))
				if c%4 == 3 {
					root, at = specs[0].Source, 0
				}
				specs = append(specs, drawSpec(rng, sys, root, 2+rng.Intn(hosts-1), 1+rng.Intn(12)))
				start = append(start, at)
			}
			if d := switchedDiff(t, sys, specs, start, p, 0); d != "" {
				t.Fatalf("system %d case %d (%+v at %v): %s", si, c, specs, start, d)
			}
		}
	}
}

// TestSwitchedQuantumIsFairnessNotFIFO pins a finding about the NI's DRR
// (DESIGN.md §15): two sessions of more than DefaultQuantum packets that
// share a root and a start both deliver at DefaultQuantum, but diverge from
// sim, because the root's NI interleaves them in quanta of 4 packets where
// sim's FIFO NI sends the first message whole. At a quantum of the larger m
// they match.
func TestSwitchedQuantumIsFairnessNotFIFO(t *testing.T) {
	sys := switchedSystems()[0]
	rng := workload.NewRNG(1)
	specs := []core.Spec{drawSpec(rng, sys, 3, 12, 8), drawSpec(rng, sys, 3, 9, 6)}
	start := []float64{0, 0}
	p := sim.DefaultParams()
	if d := switchedDiff(t, sys, specs, start, p, DefaultQuantum); d == "" {
		t.Error("at DefaultQuantum the same-root pair matched sim: the root no longer interleaves its sessions")
	}
	for _, q := range []int{8, 9, 32} {
		if d := switchedDiff(t, sys, specs, start, p, q); d != "" {
			t.Errorf("quantum %d: %s", q, d)
		}
	}
}

// TestRunSwitchedRejects holds RunSwitched to Run's session checks and
// its own start times, which must leave the run inside its clock's range.
func TestRunSwitchedRejects(t *testing.T) {
	sys := switchedSystems()[1]
	s := Session{Tree: starTree(3), Packets: mustPacketize(t, 1, 0, payloadBytes(100)), MsgID: 1}
	for _, tc := range []struct {
		sessions []Session
		start    []float64
	}{
		{nil, nil},
		{[]Session{s, s}, []float64{0, 0}},
		{[]Session{s}, nil},
		{[]Session{s}, []float64{-1}},
		{[]Session{s}, []float64{math.NaN()}},
		{[]Session{s}, []float64{1e18}}, // past the clock's 2^63 ns
	} {
		if _, err := RunSwitched(sys, tc.sessions, tc.start, sim.DefaultParams()); err == nil {
			t.Errorf("%d sessions at %v: no error", len(tc.sessions), tc.start)
		}
	}
}

// TestRunSwitchedSurfacesCorruption: a packet whose body no longer matches
// its checksum fails the run with the NI's typed error, which the virtual
// clock keeps from the share's report queue.
func TestRunSwitchedSurfacesCorruption(t *testing.T) {
	sys := switchedSystems()[1]
	pkts := mustPacketize(t, 1, 0, payloadBytes(200))
	pkts[2][message.HeaderSize] ^= 0x01
	_, err := RunSwitched(sys, []Session{{Tree: chainTree(4), Packets: pkts, MsgID: 1}}, []float64{0}, sim.DefaultParams())
	if !errors.Is(err, message.ErrCorrupt) {
		t.Fatalf("err = %v, want a message.ErrCorrupt", err)
	}
}
