package check

import (
	"fmt"
	"reflect"

	"repro/internal/fault"
	"repro/internal/psim"
	"repro/internal/sim"
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

// checkPsimMatchesSim is the windowed scheduler's differential gate. Both
// sides run one session model (internal/sim/model.go), so this compares
// schedulers — the serial loop is the reference — not two models; the
// model itself is held by sim's golden fixtures and the stepsim, theorem
// and flit invariants. The instance's workload runs through psim at every
// pool size and must be byte-identical to the serial loop — the same
// ConcurrentResult (bitwise floats included: completion times, latencies,
// channel wait), the same trace in the same order, and under faults the
// same loss-stream draws and therefore the same drops, stalls and dead
// sends.
// Conservative windows and partitioning may only change who computes
// what, never what is computed.
func checkPsimMatchesSim(w *world) error {
	sessions := w.psimSessions()

	// Lossless traced arm, calibration constants; odd fault seeds run a
	// 2-port NI so the multi-injection pump is covered. It runs twice: as
	// is, and with every start raised by 1e18, where the clock absorbs
	// every delay, windows degrade to one timestamp and only seq is left
	// to order events.
	p := calibrationParams()
	p.NIPorts = 1 + int(w.inst.FaultSeed%2)
	for _, offset := range []float64{0, 1e18} {
		shifted := append([]sim.Session(nil), sessions...)
		for i := range shifted {
			shifted[i].Start += offset
		}
		wantRes, wantTrace := sim.ConcurrentTraced(w.sys.Router, shifted, p, w.inst.Disc, true)
		for _, workers := range psimWorkerCounts {
			gotRes, gotTrace := psim.ConcurrentTraced(w.sys.Router, shifted, p, w.inst.Disc, true,
				psim.Config{Workers: workers})
			if !reflect.DeepEqual(gotRes, wantRes) {
				return fmt.Errorf("workers=%d start+%g: lossless result diverged from serial\n  psim: %+v\n  sim:  %+v",
					workers, offset, gotRes, wantRes)
			}
			if err := diffTrace(gotTrace, wantTrace); err != nil {
				return fmt.Errorf("workers=%d start+%g: lossless %v", workers, offset, err)
			}
		}
	}

	// Faulty arm, default constants: the instance's loss stream plus a
	// link kill timed exactly on the first window boundary (first event at
	// t_s, lookahead t_ns + wire), the worst case for fencepost bugs in
	// window handover.
	fp := fault.Plan{Seed: w.inst.FaultSeed, DropRate: w.inst.DropRate}
	dp := sim.DefaultParams()
	if n := len(w.sys.Net.Links()); n > 0 {
		fp.Kills = []fault.Kill{{
			Link: int(w.inst.FaultSeed % uint64(n)),
			At:   dp.THostSend + dp.TNISend + dp.WireTime(),
		}}
	}
	wantFaulty, err := sim.ConcurrentFaulty(w.sys.Router, sessions, dp, w.inst.Disc, fp)
	if err != nil {
		return fmt.Errorf("serial faulty arm failed: %v", err)
	}
	for _, workers := range psimWorkerCounts {
		gotFaulty, err := psim.ConcurrentFaulty(w.sys.Router, sessions, dp, w.inst.Disc, fp,
			psim.Config{Workers: workers})
		if err != nil {
			return fmt.Errorf("workers=%d: faulty arm failed: %v", workers, err)
		}
		if !reflect.DeepEqual(gotFaulty, wantFaulty) {
			return fmt.Errorf("workers=%d: faulty result diverged from serial (fault RNG replay broken?)\n  psim: %+v\n  sim:  %+v",
				workers, gotFaulty, wantFaulty)
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
