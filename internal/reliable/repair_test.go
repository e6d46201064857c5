package reliable_test

import (
	"errors"
	"reflect"
	"repro"
	"repro/internal/reliable"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/live/link"
	"repro/internal/topology"
)

// killableDataLink finds a switch-switch link that (a) carries at least
// one tree-edge route of the plan, so killing it actually hurts the
// multicast, and (b) can be removed without partitioning the switch
// graph, so repair must succeed.
func killableDataLink(t *testing.T, sys *core.System, plan *core.Plan) int {
	t.Helper()
	net := sys.Net
	for _, e := range plan.Tree.Edges() {
		for _, c := range sys.Router.Route(e.Parent, e.Child).Channels {
			link := net.Link(c / 2)
			if link.A.Kind != topology.SwitchNode || link.B.Kind != topology.SwitchNode {
				continue
			}
			if _, err := sys.WithoutLinkChecked(link.ID); err == nil {
				return link.ID
			}
		}
	}
	t.Fatal("no killable switch-switch link on any tree-edge route")
	return -1
}

// TestLinkKillRepair is the mid-flight repair acceptance gate: a link on
// the data path of a 64-host irregular broadcast dies while packets are
// streaming; the protocol must detect the starved subtree via timeouts,
// re-parent it around the dead link, and still deliver byte-exactly to
// every destination.
func TestLinkKillRepair(t *testing.T) {
	sys := irregular64(1)
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 0, Dests: seqDests(1, 63), Packets: 8, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	payload := payloadFor(8, cfg.Params, 51)
	dead := killableDataLink(t, sys, plan)

	// Kill mid-flight: after the source's t_s but well before the
	// lossless completion, so transmissions are genuinely severed.
	lossless, err := repro.DeliverReliable(sys, plan, payload, cfg, fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	killAt := cfg.Params.THostSend + (link.US(lossless.Latency)-cfg.Params.THostSend)/3
	res, err := repro.DeliverReliable(sys, plan, payload, cfg, fault.Plan{
		Kills: []fault.Kill{{Link: dead, At: killAt}},
	})
	if err != nil {
		t.Fatalf("delivery failed despite repairable kill: %v", err)
	}
	if res.Faults.DeadSends == 0 {
		t.Fatal("kill never intercepted a transmission — pick a busier link or an earlier kill")
	}
	if res.Adoptions == 0 {
		t.Error("no repair performed despite dead sends")
	}
	if res.Retransmits == 0 {
		t.Error("no retransmissions despite dead sends")
	}
	if len(res.Orphaned) != 0 {
		t.Errorf("orphaned=%v on a non-partitioning kill", res.Orphaned)
	}
	if res.Latency <= lossless.Latency {
		t.Errorf("repaired run latency %v not above lossless %v", res.Latency, lossless.Latency)
	}
	checkPayloads(t, res, spec.Dests, payload)
}

// TestLinkKillRepairDeterministic: the repair path itself must replay
// identically.
func TestLinkKillRepairDeterministic(t *testing.T) {
	sys := irregular64(1)
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 0, Dests: seqDests(1, 63), Packets: 8, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	payload := payloadFor(8, cfg.Params, 51)
	link := killableDataLink(t, sys, plan)
	fp := fault.Plan{
		DropRate: 0.01,
		Seed:     5,
		Kills:    []fault.Kill{{Link: link, At: 30}},
	}
	a, errA := repro.DeliverReliable(sys, plan, payload, cfg, fp)
	b, errB := repro.DeliverReliable(sys, plan, payload, cfg, fp)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("error mismatch: %v vs %v", errA, errB)
	}
	if a.Latency != b.Latency || a.Sends != b.Sends || a.Adoptions != b.Adoptions {
		t.Errorf("repair runs diverged: latency %v/%v sends %d/%d repairs %d/%d",
			a.Latency, b.Latency, a.Sends, b.Sends, a.Adoptions, b.Adoptions)
	}
}

// TestHostLinkKillPartitions: killing a destination's only link is a true
// partition — that host is abandoned with a typed error, everyone else
// completes byte-exactly.
func TestHostLinkKillPartitions(t *testing.T) {
	sys := irregular64(1)
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 0, Dests: seqDests(1, 63), Packets: 4, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	payload := payloadFor(4, cfg.Params, 61)

	// Sever a leaf destination so no subtree rides on it.
	victim := -1
	for _, d := range spec.Dests {
		if len(plan.Tree.Children(d)) == 0 {
			victim = d
			break
		}
	}
	if victim < 0 {
		t.Fatal("tree has no leaf destination")
	}
	link := sys.Net.HostLink(victim).ID
	res, err := repro.DeliverReliable(sys, plan, payload, cfg, fault.Plan{
		Kills: []fault.Kill{{Link: link, At: cfg.Params.THostSend}},
	})
	var de *reliable.DeliveryError
	if !errors.As(err, &de) {
		t.Fatalf("expected *reliable.DeliveryError, got %v", err)
	}
	if !de.Partitioned {
		t.Error("host-link kill not reported as partition")
	}
	if len(de.Orphaned) != 1 || de.Orphaned[0] != victim {
		t.Errorf("orphaned %v, want [%d]", de.Orphaned, victim)
	}
	var rest []int
	for _, d := range spec.Dests {
		if d != victim {
			rest = append(rest, d)
		}
	}
	checkPayloads(t, res, rest, payload)
}

// TestBridgeKillPartitions: a switch-switch bridge dies mid-flight. Its
// removal is a *topology.PartitionError, so the bridge stays in the
// degraded graph as a dead link and Reachable steers every repair away
// from the hosts beyond it: exactly those are orphaned, with Partitioned
// set, and everyone on the root's side — the binomial tree hangs some of
// them below the far side, so a repair re-grafts them — completes
// byte-exactly.
func TestBridgeKillPartitions(t *testing.T) {
	// The default testbed has no switch bridge at any small seed; capping
	// each switch at three inter-switch links leaves one at seed 2.
	topo := topology.DefaultIrregular()
	topo.ExtraDegree = 3
	sys := core.NewIrregularSystem(topo, 2)
	bridge := -1
	for _, l := range sys.Net.Links() {
		if l.A.Kind == topology.SwitchNode && l.B.Kind == topology.SwitchNode && !sys.Net.WithoutLink(l.ID).Connected() {
			bridge = l.ID
			break
		}
	}
	if bridge < 0 {
		t.Fatal("no switch bridge in this topology")
	}
	// near: the switches the root's switch reaches without the bridge.
	cut := sys.Net.WithoutLink(bridge)
	near := map[int]bool{sys.Net.HostSwitch(0): true}
	for stack := []int{sys.Net.HostSwitch(0)}; len(stack) > 0; {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, o := range cut.SwitchNeighbors(s) {
			if !near[o] {
				near[o] = true
				stack = append(stack, o)
			}
		}
	}
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 0, Dests: seqDests(1, 63), Packets: 8, Policy: core.BinomialTree}
	plan := sys.Plan(spec)
	payload := payloadFor(8, cfg.Params, 81)
	var far, rest []int
	for _, d := range spec.Dests {
		if near[sys.Net.HostSwitch(d)] {
			rest = append(rest, d)
		} else {
			far = append(far, d)
		}
	}
	res, err := repro.DeliverReliable(sys, plan, payload, cfg, fault.Plan{
		Kills: []fault.Kill{{Link: bridge, At: cfg.Params.THostSend + 5}},
	})
	var de *reliable.DeliveryError
	if !errors.As(err, &de) || !de.Partitioned {
		t.Fatalf("error %v, want a partitioned *reliable.DeliveryError", err)
	}
	if res.Faults.DeadSends == 0 || res.Adoptions == 0 {
		t.Errorf("%d dead-link sends, %d repairs: the kill did not reach the repair path", res.Faults.DeadSends, res.Adoptions)
	}
	if !reflect.DeepEqual(res.Orphaned, far) {
		t.Errorf("orphaned %v, want the far side %v", res.Orphaned, far)
	}
	checkPayloads(t, res, rest, payload)
}

// TestDoubleKillRepair: two links dying at different times force repeated
// repair rounds.
func TestDoubleKillRepair(t *testing.T) {
	sys := irregular64(1)
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 0, Dests: seqDests(1, 63), Packets: 8, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	payload := payloadFor(8, cfg.Params, 71)
	first := killableDataLink(t, sys, plan)

	// Second victim: another killable switch-switch data link, distinct
	// from the first and still removable after it.
	second := -1
	for _, e := range plan.Tree.Edges() {
		for _, c := range sys.Router.Route(e.Parent, e.Child).Channels {
			link := sys.Net.Link(c / 2)
			if link.ID == first ||
				link.A.Kind != topology.SwitchNode || link.B.Kind != topology.SwitchNode {
				continue
			}
			deg, err := sys.WithoutLinkChecked(first)
			if err != nil {
				continue
			}
			cur, ok := topology.LinkIDAfterRemoval(link.ID, first)
			if !ok {
				continue
			}
			if _, err := deg.WithoutLinkChecked(cur); err == nil {
				second = link.ID
			}
			break
		}
		if second >= 0 {
			break
		}
	}
	if second < 0 {
		t.Skip("no second independently killable link on the data path")
	}
	res, err := repro.DeliverReliable(sys, plan, payload, cfg, fault.Plan{
		Kills: []fault.Kill{{Link: first, At: 25}, {Link: second, At: 60}},
	})
	if err != nil {
		t.Fatalf("delivery failed: %v", err)
	}
	if res.Adoptions == 0 {
		t.Error("no repairs despite two kills")
	}
	checkPayloads(t, res, spec.Dests, payload)
}
