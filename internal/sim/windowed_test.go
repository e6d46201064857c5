package sim

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/tree"
	"repro/internal/workload"
)

// TestWindowedMatchesSerialRandomized is the seeded scheduler differential:
// random contended workloads through the windowed scheduler at 1-4 workers
// against the serial loop, result and trace bitwise. The draws aim at what
// the fixed suites never reach — host overheads that undercut the
// lookahead (Conventional windows end early), zero overheads, and clocks
// so large they absorb every delay, where windows degrade to one timestamp
// and only seq orders events. Under the in-window forward machinery this
// replaced, Conventional diverged at absorbed clocks.
func TestWindowedMatchesSerialRandomized(t *testing.T) {
	cases := 1000
	if testing.Short() {
		cases = 200
	}
	_, irregular, _ := testSystem(1)
	routers := []routing.Router{
		routing.NewMeshDimOrder(topology.Mesh(4, 2), 4, 2),
		irregular,
	}
	overheads := []float64{0, 1e-9, 0.1, 0.4, 1, 1.7, 2.5, 3.4, 5, 12.5}
	starts := []float64{0, 3.3, 1e6, 1e15, 1e17, 1e18, 1e300}

	rng := workload.NewRNG(18)
	for c := 0; c < cases; c++ {
		router := routers[rng.Intn(len(routers))]
		net := router.Network()
		disc := stepsim.Discipline(rng.Intn(3))
		p := DefaultParams()
		p.THostSend = overheads[rng.Intn(len(overheads))]
		p.THostRecv = overheads[rng.Intn(len(overheads))]
		if rng.Intn(4) == 0 {
			p.TNIRecv = 0
		}
		if rng.Intn(4) == 0 {
			p.RouterDelay = 0
		}
		p.NIPorts = 1 + rng.Intn(2)

		sessions := make([]Session, 1+rng.Intn(3))
		for i := range sessions {
			set := workload.DestSet(rng, net.NumHosts(), 1+rng.Intn(net.NumHosts()-1))
			sessions[i] = Session{
				Tree:    tree.KBinomial(set, 1+rng.Intn(4)),
				Packets: 1 + rng.Intn(4),
				Start:   starts[rng.Intn(len(starts))],
			}
		}

		// A third of the cases run under loss, half of those with a link
		// dying on the first session's first window boundary.
		var plan *fault.Plan
		if rng.Intn(3) == 0 {
			plan = &fault.Plan{Seed: rng.Uint64(), DropRate: 0.1, CorruptRate: 0.03}
			if rng.Intn(2) == 0 {
				plan.Kills = []fault.Kill{{
					Link: rng.Intn(len(net.Links())),
					At:   sessions[0].Start + p.THostSend + p.TNISend + p.WireTime(),
				}}
			}
		}
		arm := func() *fault.State {
			if plan == nil {
				return nil
			}
			fs, err := plan.Arm()
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}

		wantRes, wantTrace := run(router, sessions, p, disc, true, arm(), nil)
		for workers := 1; workers <= 4; workers++ {
			gotRes, gotTrace := run(router, sessions, p, disc, true, arm(), &WindowConfig{Workers: workers})
			sameRes, sameTrace := reflect.DeepEqual(gotRes, wantRes), reflect.DeepEqual(gotTrace, wantTrace)
			if !sameRes || !sameTrace {
				t.Fatalf("case %d (%v, t_s=%v t_r=%v, starts %v, plan %+v) workers=%d: diverged from the serial loop (result equal: %v, trace equal: %v)\n got %+v\nwant %+v",
					c, disc, p.THostSend, p.THostRecv, sessionStarts(sessions), plan, workers, sameRes, sameTrace, gotRes, wantRes)
			}
		}
	}
}

func sessionStarts(sessions []Session) []float64 {
	starts := make([]float64, len(sessions))
	for i, s := range sessions {
		starts[i] = s.Start
	}
	return starts
}

// TestHotRecordSizes pins the two records the kernels move most: events
// are sifted through the heaps, actions are appended per effect and merged
// at every barrier. A field added to either is a measurable slowdown.
func TestHotRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(pevent{}); got != 32 {
		t.Errorf("unsafe.Sizeof(pevent{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(action{}); got > 56 {
		t.Errorf("unsafe.Sizeof(action{}) = %d, want <= 56", got)
	}
}
