package reliable_test

import (
	"repro"
	"repro/internal/reliable"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// A destination crash-stops shortly before the root crashes: the root
// crash stops the detector before confirmation, so the down host's edge
// should still be resolved somehow without hanging.
func TestRootCrashWithUnconfirmedDestCrash(t *testing.T) {
	sys := irregular64(3)
	cfg := reliable.DefaultConfig()
	cfg.Quorum = 1
	spec := core.Spec{Source: 0, Dests: seqDests(1, 31), Packets: 6, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	victim := plan.Tree.Children(plan.Tree.Root())[0]
	payload := payloadFor(6, cfg.Params, 7)
	fp := fault.Plan{Crashes: []fault.Crash{
		{Host: victim, At: 20},
		{Host: plan.Tree.Root(), At: 25},
	}}
	type out struct {
		res *repro.ReliableResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := repro.DeliverReliable(sys, plan, payload, cfg, fp)
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		t.Logf("finished: status=%v err=%v", o.res.Status, o.err)
	case <-time.After(10 * time.Second):
		t.Fatal("delivery hung: root crash with unconfirmed dest crash")
	}
}
