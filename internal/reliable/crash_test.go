package reliable_test

import (
	"bytes"
	"errors"
	"reflect"
	"repro"
	"repro/internal/reliable"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/live/link"
)

// deliverGuarded runs Deliver under a watchdog: a crash scenario must
// terminate, never hang the event loop.
func deliverGuarded(t *testing.T, sys *core.System, plan *core.Plan, payload []byte, cfg reliable.Config, fp fault.Plan) (*repro.ReliableResult, error) {
	t.Helper()
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
		return o.res, o.err
	case <-time.After(30 * time.Second):
		t.Fatal("delivery hung under crash faults")
		return nil, nil
	}
}

// TestCrashStopFirstChild is the acceptance scenario: the root's first
// child crash-stops mid-broadcast. The run must terminate with either full
// delivery to the survivors via adoption or DeliveredPartial — never a
// hang or silent loss — and every survivor's payload must be byte-exact.
func TestCrashStopFirstChild(t *testing.T) {
	sys := irregular64(3)
	cfg := reliable.DefaultConfig()
	cfg.Quorum = 1
	spec := core.Spec{Source: 0, Dests: seqDests(1, 63), Packets: 8, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	victim := plan.Tree.Children(plan.Tree.Root())[0]
	if len(plan.Tree.Children(victim)) == 0 {
		t.Fatalf("host %d has no subtree; scenario needs orphans to adopt", victim)
	}
	payload := payloadFor(8, cfg.Params, 42)
	fp := fault.Plan{Crashes: []fault.Crash{{Host: victim, At: 20}}}
	res, err := deliverGuarded(t, sys, plan, payload, cfg, fp)
	if err != nil {
		t.Fatalf("quorum 1 must tolerate one crash: %v", err)
	}
	if res.Status != reliable.DeliveredPartial {
		t.Errorf("status %v, want delivered-partial (crash-stop host cannot complete)", res.Status)
	}
	if !reflect.DeepEqual(res.Orphaned, []int{victim}) {
		t.Errorf("orphaned %v, want exactly the crashed host %d", res.Orphaned, victim)
	}
	if !reflect.DeepEqual(res.Crashed, []int{victim}) {
		t.Errorf("crashed %v, want [%d]", res.Crashed, victim)
	}
	if res.Adoptions == 0 {
		t.Error("no adoption despite the crashed host having a subtree")
	}
	if res.Epoch != 2 || len(res.Views) != 2 {
		t.Errorf("epoch %d with %d views, want epoch 2 after one confirmation", res.Epoch, len(res.Views))
	}
	for _, v := range res.Views[1].Members {
		if v == victim {
			t.Errorf("crashed host %d still in view %d", victim, res.Views[1].Epoch)
		}
	}
	var survivors []int
	for _, d := range spec.Dests {
		if d != victim {
			survivors = append(survivors, d)
		}
	}
	checkPayloads(t, res, survivors, payload)
	if rec := res.Hosts[victim]; rec.Data != nil || rec.DoneAt != 0 {
		t.Error("crashed host has a completion time")
	}
}

// TestReceiveCopyCut: a destination completes t_r after its NI, the
// host's receive copy. A crash-stop that lands during that copy cuts the
// delivery: no payload, no completion time, undelivered in the verdict.
// The same crash just after the copy leaves the destination delivered, and
// so does one long after the run: a crash-stop due in the future is not
// down now. Either way the run ends after its last copy.
func TestReceiveCopyCut(t *testing.T) {
	sys := irregular64(3)
	cfg := reliable.DefaultConfig()
	cfg.Quorum = 1
	spec := core.Spec{Source: 0, Dests: seqDests(1, 15), Packets: 4, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	payload := payloadFor(4, cfg.Params, 3)
	// The leaves that complete first and last. Once its NI has completed,
	// the first holds no run open, so the others keep it running past the
	// crash.
	lossless, err := repro.DeliverReliable(sys, plan, payload, cfg, fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	first, last := -1, -1
	for _, v := range spec.Dests {
		if len(plan.Tree.Children(v)) > 0 {
			continue
		}
		if first < 0 || lossless.Hosts[v].DoneAt < lossless.Hosts[first].DoneAt {
			first = v
		}
		if last < 0 || lossless.Hosts[v].DoneAt > lossless.Hosts[last].DoneAt {
			last = v
		}
	}
	done := func(leaf int) float64 { return link.US(lossless.Hosts[leaf].DoneAt) }
	crashAt := func(leaf int, at float64) *repro.ReliableResult {
		res, _ := deliverGuarded(t, sys, plan, payload, cfg, fault.Plan{Crashes: []fault.Crash{{Host: leaf, At: at}}})
		if res == nil {
			t.Fatalf("crash of leaf %d at %f us: no result", leaf, at)
		}
		if res.Wall < res.Latency {
			t.Errorf("crash of leaf %d at %f us: the run ends at %v, before its last copy at %v", leaf, at, res.Wall, res.Latency)
		}
		return res
	}

	for _, c := range []struct {
		name string
		leaf int
		at   float64
	}{
		{"just after the receive copy", first, done(first) + 0.001},
		{"at 1e6 us, long after the run", last, 1e6},
	} {
		res := crashAt(c.leaf, c.at)
		if rec := res.Hosts[c.leaf]; !bytes.Equal(rec.Data, payload) || link.US(rec.DoneAt) != done(c.leaf) {
			t.Errorf("crash %s: leaf %d holds %d bytes, done at %v; want the payload at %f us",
				c.name, c.leaf, len(rec.Data), rec.DoneAt, done(c.leaf))
		}
		if res.Status != reliable.Delivered || len(res.Orphaned) != 0 {
			t.Errorf("crash %s: status %v, orphaned %v; want delivered", c.name, res.Status, res.Orphaned)
		}
	}

	during := crashAt(first, done(first)-cfg.Params.THostRecv/2)
	rec := during.Hosts[first]
	if rec.Recvs != during.Packets {
		t.Fatalf("leaf %d's NI accepted %d of %d packets before its crash: the crash must land after the NI completes",
			first, rec.Recvs, during.Packets)
	}
	if rec.Data != nil || rec.DoneAt != 0 {
		t.Errorf("crash during the receive copy: leaf %d holds %d bytes, done at %v; want neither", first, len(rec.Data), rec.DoneAt)
	}
	if during.Status != reliable.DeliveredPartial || !reflect.DeepEqual(during.Orphaned, []int{first}) {
		t.Errorf("crash during the receive copy: status %v, orphaned %v; want delivered-partial without %d",
			during.Status, during.Orphaned, first)
	}
}

// TestCrashRecoveryRejoin: a host down long enough to be confirmed crashed
// recovers, rejoins in a fresh epoch, and has the full message replayed —
// the run ends fully Delivered.
func TestCrashRecoveryRejoin(t *testing.T) {
	sys := irregular64(3)
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 0, Dests: seqDests(1, 31), Packets: 6, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	victim := plan.Tree.Children(plan.Tree.Root())[0]
	payload := payloadFor(6, cfg.Params, 7)
	// Confirmation lands around 48-60 us (16+12 us timeouts, <= 25% jitter);
	// recovering at 90 exercises the full rejoin path.
	fp := fault.Plan{Crashes: []fault.Crash{{Host: victim, At: 20, RecoverAt: 90}}}
	res, err := deliverGuarded(t, sys, plan, payload, cfg, fp)
	if err != nil {
		t.Fatalf("recovered host should not fail the run: %v", err)
	}
	if res.Status != reliable.Delivered {
		t.Errorf("status %v, want delivered after rejoin replay", res.Status)
	}
	if res.Faults.Crashes != 1 || res.Faults.Recoveries != 1 {
		t.Errorf("fault counters crashes=%d recoveries=%d, want 1/1",
			res.Faults.Crashes, res.Faults.Recoveries)
	}
	if res.Epoch != 3 {
		t.Errorf("epoch %d, want 3 (initial, confirmation, rejoin)", res.Epoch)
	}
	if len(res.Crashed) != 0 {
		t.Errorf("hosts still down at end: %v", res.Crashed)
	}
	checkPayloads(t, res, spec.Dests, payload)
}

// TestCrashShortOutage: an outage shorter than suspicion+confirmation is
// invisible to the group — no view change — but the host's wiped buffers
// are replenished by a silent fresh re-graft, so delivery is still exact.
func TestCrashShortOutage(t *testing.T) {
	sys := irregular64(3)
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 0, Dests: seqDests(1, 31), Packets: 6, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	victim := plan.Tree.Children(plan.Tree.Root())[0]
	payload := payloadFor(6, cfg.Params, 7)
	fp := fault.Plan{Crashes: []fault.Crash{{Host: victim, At: 20, RecoverAt: 26}}}
	res, err := deliverGuarded(t, sys, plan, payload, cfg, fp)
	if err != nil {
		t.Fatalf("short outage should not fail the run: %v", err)
	}
	if res.Status != reliable.Delivered {
		t.Errorf("status %v, want delivered", res.Status)
	}
	if res.Epoch != 1 || len(res.Views) != 1 {
		t.Errorf("epoch %d views %d — a 6 us outage must not change the view",
			res.Epoch, len(res.Views))
	}
	if res.Adoptions == 0 {
		t.Error("no re-graft after the unconfirmed outage; wiped buffers would stay empty")
	}
	checkPayloads(t, res, spec.Dests, payload)
}

// TestRootCrashFails: the source going down fails the operation with a
// typed *CrashError regardless of quorum.
func TestRootCrashFails(t *testing.T) {
	sys := irregular64(3)
	cfg := reliable.DefaultConfig()
	cfg.Quorum = 1
	spec := core.Spec{Source: 0, Dests: seqDests(1, 31), Packets: 6, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	payload := payloadFor(6, cfg.Params, 7)
	fp := fault.Plan{Crashes: []fault.Crash{{Host: 0, At: 20}}}
	res, err := deliverGuarded(t, sys, plan, payload, cfg, fp)
	var ce *reliable.CrashError
	if !errors.As(err, &ce) || !ce.RootCrashed {
		t.Fatalf("error %v, want *reliable.CrashError with RootCrashed", err)
	}
	if res.Status != reliable.Failed {
		t.Errorf("status %v, want failed", res.Status)
	}
}

// TestQuorumSemantics: the same two crash-stops pass with a loose quorum
// and fail with a strict one, with consistent typed errors.
func TestQuorumSemantics(t *testing.T) {
	sys := irregular64(3)
	spec := core.Spec{Source: 0, Dests: seqDests(1, 7), Packets: 4, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	cfg := reliable.DefaultConfig()
	payload := payloadFor(4, cfg.Params, 5)
	fp := fault.Plan{Crashes: []fault.Crash{
		{Host: spec.Dests[0], At: 15},
		{Host: spec.Dests[1], At: 15},
	}}

	cfg.Quorum = 5
	res, err := deliverGuarded(t, sys, plan, payload, cfg, fp)
	if err != nil {
		t.Fatalf("quorum 5 of 7 with 2 crashes should hold: %v", err)
	}
	if res.Status != reliable.DeliveredPartial || len(res.Orphaned) != 2 {
		t.Errorf("status %v orphaned %v, want delivered-partial with both crash-stops undelivered",
			res.Status, res.Orphaned)
	}

	cfg.Quorum = 0 // require all destinations
	res, err = deliverGuarded(t, sys, plan, payload, cfg, fp)
	var ce *reliable.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v, want *reliable.CrashError when quorum requires all", err)
	}
	if ce.Delivered != 5 || ce.Quorum != 7 || len(ce.Undelivered) != 2 {
		t.Errorf("crash error %+v, want 5 delivered of quorum 7 with 2 undelivered", ce)
	}
	if res.Status != reliable.Failed {
		t.Errorf("status %v, want failed", res.Status)
	}
}

// TestCrashDeterminism: crash runs (with background loss) replay exactly,
// field for field, including the new epoch/view/adoption state.
func TestCrashDeterminism(t *testing.T) {
	sys := irregular64(8)
	cfg := reliable.DefaultConfig()
	cfg.Quorum = 1
	spec := core.Spec{Source: 0, Dests: seqDests(1, 63), Packets: 8, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	payload := payloadFor(8, cfg.Params, 23)
	fp := fault.Plan{
		Seed:     77,
		DropRate: 0.05,
		Crashes: []fault.Crash{
			{Host: plan.Tree.Children(plan.Tree.Root())[0], At: 18},
			{Host: spec.Dests[len(spec.Dests)-1], At: 30, RecoverAt: 95},
		},
	}
	a, errA := deliverGuarded(t, sys, plan, payload, cfg, fp)
	b, errB := deliverGuarded(t, sys, plan, payload, cfg, fp)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("error mismatch: %v vs %v", errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two crash runs with identical inputs diverged")
	}
}

// TestEpochStampsMonotone: the accepted-packet epoch trace never goes
// backwards — stale-epoch traffic is fenced, not delivered.
func TestEpochStampsMonotone(t *testing.T) {
	sys := irregular64(8)
	cfg := reliable.DefaultConfig()
	cfg.Quorum = 1
	spec := core.Spec{Source: 0, Dests: seqDests(1, 63), Packets: 8, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	payload := payloadFor(8, cfg.Params, 23)
	fp := fault.Plan{
		Seed:     9,
		DropRate: 0.03,
		Crashes:  []fault.Crash{{Host: plan.Tree.Children(plan.Tree.Root())[0], At: 18, RecoverAt: 100}},
	}
	res, _ := deliverGuarded(t, sys, plan, payload, cfg, fp)
	if len(res.Accepts) == 0 {
		t.Fatal("crash run recorded no epoch stamps")
	}
	prev := 0
	for i, s := range res.Accepts {
		if s.Epoch < prev {
			t.Fatalf("accept %d at t=%v regressed to epoch %d after %d", i, s.At, s.Epoch, prev)
		}
		prev = s.Epoch
	}
	if prev > res.Epoch {
		t.Errorf("last accepted epoch %d exceeds final epoch %d", prev, res.Epoch)
	}
}

// TestNoCrashNoMembership: without crash faults the membership plane never
// arms — epoch 0, no views, no epoch stamps — so the data plane replays
// its crash-free schedule untouched.
func TestNoCrashNoMembership(t *testing.T) {
	sys := irregular64(5)
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 0, Dests: seqDests(1, 31), Packets: 4, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	payload := payloadFor(4, cfg.Params, 13)
	res, err := repro.DeliverReliable(sys, plan, payload, cfg, fault.Plan{Seed: 2, DropRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 0 || res.Views != nil || res.Accepts != nil || res.Status != reliable.Delivered {
		t.Errorf("membership artifacts on a crash-free run: epoch=%d views=%d accepts=%d status=%v",
			res.Epoch, len(res.Views), len(res.Accepts), res.Status)
	}
}
