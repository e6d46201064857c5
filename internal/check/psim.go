package check

import (
	"bytes"
	"fmt"
	"reflect"

	"repro/internal/live"
	"repro/internal/message"
	"repro/internal/psim"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/tree"
)

// psimWorkerCounts are the pool sizes the differential runs at: 1 proves
// the parallel engine degenerates to the serial algorithm, 3 (an odd
// count that never divides the host counts evenly) exercises mailbox
// traffic, barrier merging across streams, and empty-window workers.
var psimWorkerCounts = [...]int{1, 3}

// psimSessions derives a two-session concurrent workload from the
// instance: the planned tree, plus a second session cut from the reversed
// chain with a different fanout and packet count, started mid-flight so
// the two contend for NIs and channels.
func (w *world) psimSessions() []sim.Session {
	sessions := []sim.Session{
		{Tree: w.plan.Tree, Packets: w.m, Start: 0},
	}
	if len(w.plan.Chain) >= 2 {
		rev := make([]int, len(w.plan.Chain))
		for i, v := range w.plan.Chain {
			rev[len(rev)-1-i] = v
		}
		m2 := w.m/2 + 1
		sessions = append(sessions, sim.Session{
			Tree: tree.KBinomial(rev, 2), Packets: m2, Start: 7.5,
		})
	}
	return sessions
}

// niPorts is the instance's NI port count: odd fault seeds run a 2-port
// NI, so the multi-injection pump is covered.
func (in Instance) niPorts() int { return 1 + int(in.FaultSeed%2) }

// checkVirtualMatchesSim holds plain sessions on the live data plane, run
// in virtual time over the switched network (live.RunSwitched), to the
// simulator: psimSessions' two sessions, which contend for NIs and
// channels, at the harness protocol's constants and the instance's NI
// port count, must equal sim.Concurrent FPFS to the nanosecond — every
// session's finish, every destination's completion (DoneAt, t_r included,
// against HostDone) and the total sends — and deliver byte-exactly.
func checkVirtualMatchesSim(w *world) error {
	p := reliableConfig().Params
	p.NIPorts = w.inst.niPorts()
	want := w.psimSessions()
	ref := sim.Concurrent(w.sys.Router, want, p, stepsim.FPFS)
	data := w.inst.livePayload()
	sessions, start, payloads := make([]live.Session, len(want)), make([]float64, len(want)), make([][]byte, len(want))
	for i, ws := range want {
		payloads[i] = data[len(data)-ws.Packets*(p.PacketBytes-message.HeaderSize):]
		pkts, err := message.Packetize(uint32(i+1), ws.Tree.Root(), payloads[i], p.PacketBytes)
		if err != nil || len(pkts) != ws.Packets {
			return fmt.Errorf("session %d: %d packets (%v), want %d", i, len(pkts), err, ws.Packets)
		}
		sessions[i], start[i] = live.Session{Tree: ws.Tree, Packets: pkts, MsgID: uint32(i + 1)}, ws.Start
	}
	got, err := live.RunSwitched(w.sys, sessions, start, p)
	if err != nil {
		return fmt.Errorf("virtual run failed: %v", err)
	}
	if got.Sends != ref.Sends {
		return fmt.Errorf("virtual run sent %d copies, sim %d", got.Sends, ref.Sends)
	}
	for i, sr := range got.Sessions {
		if at := nanos(start[i] + ref.Sessions[i].Latency); sr.FinishAt != at {
			return fmt.Errorf("session %d finished at %v, sim at %v", i, sr.FinishAt, at)
		}
		for _, h := range want[i].Tree.Nodes() { // ascending, so a report names one host
			hd, dest := ref.Sessions[i].HostDone[h]
			if rec := sr.Hosts[h]; dest && (rec.DoneAt != nanos(hd) || !bytes.Equal(rec.Data, payloads[i])) {
				return fmt.Errorf("session %d host %d done at %v holding %d B, sim at %v (%d B)",
					i, h, rec.DoneAt, len(rec.Data), nanos(hd), len(payloads[i]))
			}
		}
	}
	return nil
}

// checkPsimMatchesSim is the windowed scheduler's differential gate. Both
// sides run one session model (internal/sim/model.go), so this compares
// schedulers — the serial loop is the reference — not two models; the
// model itself is held by sim's golden fixtures and the stepsim, theorem
// and flit invariants. The instance's workload runs through psim at every
// pool size and must be byte-identical to the serial loop — the same
// ConcurrentResult (bitwise floats included: completion times, latencies,
// channel wait) and the same trace in the same order. Conservative
// windows and partitioning may only change who computes what, never what
// is computed.
func checkPsimMatchesSim(w *world) error {
	sessions := w.psimSessions()

	// Three arms at the instance's NI ports: the calibration constants, as
	// is and with every start raised by 1e18, where the clock absorbs every
	// delay, windows degrade to one timestamp and only seq is left to order
	// events; and the default constants, whose nonzero router delay and
	// t_nr stagger what calibration puts on one timestamp.
	cal, def := calibrationParams(), sim.DefaultParams()
	cal.NIPorts, def.NIPorts = w.inst.niPorts(), w.inst.niPorts()
	for _, arm := range []struct {
		name   string
		p      sim.Params
		offset float64
	}{{"calibration", cal, 0}, {"calibration", cal, 1e18}, {"default", def, 0}} {
		shifted := append([]sim.Session(nil), sessions...)
		for i := range shifted {
			shifted[i].Start += arm.offset
		}
		wantRes, wantTrace := sim.ConcurrentTraced(w.sys.Router, shifted, arm.p, w.inst.Disc, true)
		for _, workers := range psimWorkerCounts {
			gotRes, gotTrace := psim.ConcurrentTraced(w.sys.Router, shifted, arm.p, w.inst.Disc, true,
				psim.Config{Workers: workers})
			if !reflect.DeepEqual(gotRes, wantRes) {
				return fmt.Errorf("workers=%d %s start+%g: result diverged from serial\n  psim: %+v\n  sim:  %+v",
					workers, arm.name, arm.offset, gotRes, wantRes)
			}
			if err := diffTrace(gotTrace, wantTrace); err != nil {
				return fmt.Errorf("workers=%d %s start+%g: %v", workers, arm.name, arm.offset, err)
			}
		}
	}
	return nil
}

// diffTrace reports the first divergence between two trace streams.
func diffTrace(got, want []sim.TraceEvent) error {
	if len(got) != len(want) {
		return fmt.Errorf("trace has %d events, serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("trace[%d] = %+v, serial %+v", i, got[i], want[i])
		}
	}
	return nil
}
