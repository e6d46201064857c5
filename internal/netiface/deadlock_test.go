package netiface_test

// Composition coverage for the NI stall model: send-engine stall windows
// (internal/fault) must compose with the reliable runtime's timers and host
// crashes (live.Deliver, over the switched network) without deadlock. The scenarios freeze the
// send engines of a chain's forwarders while packets queue behind them —
// the shape that would wedge a protocol whose progress depended on the
// stalled engine — and run under a watchdog.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/topology"
)

func guarded(t *testing.T, name string, run func() (*live.ReliableResult, error)) (*live.ReliableResult, error) {
	t.Helper()
	type out struct {
		res *live.ReliableResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := run()
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: stalled run hung (deadlock)", name)
		return nil, nil
	}
}

// TestStallChainNoDeadlock: every interior node of a linear chain gets a
// long overlapping stall window. The packets queued behind the frozen
// send engines must all move once the stalls lift; delivery ends
// byte-exact.
func TestStallChainNoDeadlock(t *testing.T) {
	sys := core.NewIrregularSystem(topology.DefaultIrregular(), 6)
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 0, Dests: []int{1, 2, 3, 4, 5, 6, 7}, Packets: 8, Policy: core.LinearTree}
	plan := sys.Plan(spec)
	payload := make([]byte, 8*(cfg.Params.PacketBytes-message.HeaderSize))
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var fp fault.Plan
	walk := plan.Tree.Children(plan.Tree.Root())
	for len(walk) > 0 {
		h := walk[0]
		if len(plan.Tree.Children(h)) > 0 { // interior forwarder
			fp.Stalls = append(fp.Stalls, fault.Stall{Host: h, From: 14, Until: 70})
		}
		walk = plan.Tree.Children(h)
	}
	if len(fp.Stalls) == 0 {
		t.Fatal("linear chain has no interior forwarders")
	}
	res, err := guarded(t, "stall-chain", func() (*live.ReliableResult, error) {
		return live.Deliver(sys, plan, payload, cfg, fp)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range spec.Dests {
		if !bytes.Equal(res.Hosts[d].Data, payload) {
			t.Errorf("destination %d payload missing or inexact", d)
		}
	}
}

// TestStallCrashNoDeadlock: the stalled forwarder crash-stops with packets
// queued behind its frozen send engine. Its subtree must be adopted, and
// the run must terminate with the survivors delivered.
func TestStallCrashNoDeadlock(t *testing.T) {
	sys := core.NewIrregularSystem(topology.DefaultIrregular(), 6)
	cfg := reliable.DefaultConfig()
	cfg.Quorum = 1
	spec := core.Spec{Source: 0, Dests: []int{1, 2, 3, 4, 5, 6, 7}, Packets: 8, Policy: core.LinearTree}
	plan := sys.Plan(spec)
	payload := make([]byte, 8*(cfg.Params.PacketBytes-message.HeaderSize))
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	victim := plan.Tree.Children(plan.Tree.Root())[0]
	fp := fault.Plan{
		Stalls: []fault.Stall{
			{Host: victim, From: 14, Until: 200},
		},
		Crashes: []fault.Crash{{Host: victim, At: 30}},
	}
	res, err := guarded(t, "stall-crash", func() (*live.ReliableResult, error) {
		return live.Deliver(sys, plan, payload, cfg, fp)
	})
	if err != nil {
		t.Fatalf("quorum 1 must tolerate the crash: %v", err)
	}
	if res.Status != reliable.DeliveredPartial {
		t.Errorf("status %v, want delivered-partial", res.Status)
	}
	if res.Adoptions == 0 {
		t.Error("crashed forwarder's subtree was never adopted")
	}
	for _, d := range spec.Dests {
		if d == victim {
			continue
		}
		if !bytes.Equal(res.Hosts[d].Data, payload) {
			t.Errorf("survivor %d payload missing or inexact", d)
		}
	}
}
