package reliable_test

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"repro"
	"repro/internal/reliable"
	"strings"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// payloadFor builds a deterministic payload spanning exactly m packets
// under the given params.
func payloadFor(m int, p sim.Params, seed uint64) []byte {
	chunk := p.PacketBytes - message.HeaderSize
	data := make([]byte, m*chunk)
	rng := workload.NewRNG(seed)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	return data
}

func irregular64(seed uint64) *core.System {
	return core.NewIrregularSystem(topology.DefaultIrregular(), seed)
}

// TestLosslessMatchesSim is the zero-fault acceptance gate: under an empty
// fault plan the reliable runtime, run over the switched network, must
// reproduce the lossless engine's schedule exactly — same latency, same
// per-host completion times, same injection count, zero retransmissions.
// The run's clock ticks in nanoseconds and the simulator's constants are
// whole nanoseconds, so the engine's times are compared rounded to the
// nanosecond, with no other tolerance: a real schedule difference is at
// least a router delay.
func TestLosslessMatchesSim(t *testing.T) {
	cfg := reliable.DefaultConfig()
	systems := []struct {
		name string
		sys  *core.System
	}{
		{"irregular-seed1", irregular64(1)},
		{"irregular-seed7", irregular64(7)},
		{"cube-2x4", core.NewCubeSystem(2, 4)},
	}
	nanos := func(us float64) time.Duration { return time.Duration(math.Round(us * 1e3)) }
	for _, sc := range systems {
		for _, policy := range []core.TreePolicy{core.OptimalTree, core.BinomialTree, core.LinearTree} {
			for _, nd := range []int{7, 15} {
				spec := core.Spec{Source: 0, Dests: seqDests(1, nd), Packets: 4, Policy: policy}
				plan := sc.sys.Plan(spec)
				payload := payloadFor(4, cfg.Params, 42)
				res, err := repro.DeliverReliable(sc.sys, plan, payload, cfg, fault.Plan{})
				if err != nil {
					t.Fatalf("%s/%v/%d dests: %v", sc.name, policy, nd, err)
				}
				want := sim.Multicast(sc.sys.Router, plan.Tree, res.Packets, cfg.Params, stepsim.FPFS)
				if res.Latency != nanos(want.Latency) {
					t.Errorf("%s/%v/%d dests: latency %v, lossless engine %f us",
						sc.name, policy, nd, res.Latency, want.Latency)
				}
				for h, done := range want.HostDone {
					if got := res.Hosts[h].DoneAt; got != nanos(done) {
						t.Errorf("%s/%v/%d dests: host %d done at %v, lossless engine %f us",
							sc.name, policy, nd, h, got, done)
					}
				}
				if n := len(res.Hosts) - 1 - len(res.Orphaned); n != len(want.HostDone) {
					t.Errorf("%s/%v/%d dests: %d completions, lossless engine %d",
						sc.name, policy, nd, n, len(want.HostDone))
				}
				if res.Sends != want.Sends || res.Retransmits != 0 || res.Duplicates != 0 {
					t.Errorf("%s/%v/%d dests: sends=%d retransmits=%d duplicates=%d, lossless engine sends=%d",
						sc.name, policy, nd, res.Sends, res.Retransmits, res.Duplicates, want.Sends)
				}
				checkPayloads(t, res, spec.Dests, payload)
			}
		}
	}
}

func seqDests(lo, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func checkPayloads(t *testing.T, res *repro.ReliableResult, dests []int, payload []byte) {
	t.Helper()
	for _, d := range dests {
		got := res.Hosts[d].Data
		if got == nil {
			t.Fatalf("destination %d undelivered", d)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("destination %d payload differs from original", d)
		}
	}
}

// TestDropRecovery: under packet loss every destination still receives the
// message byte-exactly, with retransmissions doing the work.
func TestDropRecovery(t *testing.T) {
	sys := irregular64(3)
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 0, Dests: seqDests(1, 63), Packets: 8, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	payload := payloadFor(8, cfg.Params, 99)
	for _, p := range []float64{0.01, 0.05, 0.2} {
		res, err := repro.DeliverReliable(sys, plan, payload, cfg, fault.Plan{Seed: 5, DropRate: p})
		if err != nil {
			t.Fatalf("p=%f: %v", p, err)
		}
		if res.Faults.Dropped == 0 || res.Retransmits < res.Faults.Dropped {
			t.Errorf("p=%f: dropped=%d retransmits=%d — retransmission not engaged",
				p, res.Faults.Dropped, res.Retransmits)
		}
		checkPayloads(t, res, spec.Dests, payload)
	}
}

// TestExpectedSendsModel checks the 1/(1-p) closed form: mean injections
// per (edge, packet) over several seeds must match within 5%.
func TestExpectedSendsModel(t *testing.T) {
	sys := irregular64(2)
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 0, Dests: seqDests(1, 63), Packets: 16, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	payload := payloadFor(16, cfg.Params, 7)
	edges := plan.Tree.Size() - 1
	for _, p := range []float64{0.01, 0.05} {
		sends := 0
		runs := 6
		for seed := uint64(1); seed <= uint64(runs); seed++ {
			res, err := repro.DeliverReliable(sys, plan, payload, cfg, fault.Plan{Seed: seed, DropRate: p})
			if err != nil {
				t.Fatalf("p=%f seed=%d: %v", p, seed, err)
			}
			sends += res.Sends
		}
		got := float64(sends) / float64(runs)
		want := analytic.ExpectedTreeSends(edges, plan.Spec.Packets, p)
		if dev := math.Abs(got-want) / want; dev > 0.05 {
			t.Errorf("p=%f: mean sends %f, model %f (deviation %.1f%%)", p, got, want, 100*dev)
		}
	}
}

// TestCorruptionNacked: a corrupted copy fails the receiving NI's
// checksum and is dropped unacknowledged, and the sender's retransmission
// timer resends it (no NACK: the timer is the one recovery path); the
// message still arrives intact.
func TestCorruptionNacked(t *testing.T) {
	sys := irregular64(4)
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 2, Dests: seqDests(3, 31), Packets: 8, Policy: core.BinomialTree}
	plan := sys.Plan(spec)
	payload := payloadFor(8, cfg.Params, 11)
	res, err := repro.DeliverReliable(sys, plan, payload, cfg, fault.Plan{Seed: 9, CorruptRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Corrupted == 0 {
		t.Fatal("fault plan injected no corruption")
	}
	if res.Retransmits < res.Faults.Corrupted {
		t.Errorf("%d corrupted copies but %d retransmissions: a damaged copy was accepted or never resent",
			res.Faults.Corrupted, res.Retransmits)
	}
	if want := (len(spec.Dests))*res.Packets + res.Retransmits; res.Sends != want {
		t.Errorf("sends=%d, want first attempts + retransmits = %d", res.Sends, want)
	}
	checkPayloads(t, res, spec.Dests, payload)
}

// TestAckLossDuplicates: lost ACKs force redundant retransmissions that
// receivers must suppress; delivery stays byte-exact. A run ends once every
// destination holds the message, and its timeout is one lossless multicast,
// so only a lost ACK whose timer fires before then is resent: the plan also
// drops data, which keeps the run open past its first timeouts.
func TestAckLossDuplicates(t *testing.T) {
	sys := irregular64(5)
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 0, Dests: seqDests(1, 31), Packets: 6, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	payload := payloadFor(6, cfg.Params, 13)
	res, err := repro.DeliverReliable(sys, plan, payload, cfg, fault.Plan{Seed: 21, DropRate: 0.05, AckDropRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.AcksDropped == 0 {
		t.Fatal("fault plan lost no ACKs")
	}
	if res.Duplicates == 0 {
		t.Error("lost ACKs produced no suppressed duplicates")
	}
	checkPayloads(t, res, spec.Dests, payload)
}

// TestRetryBudgetExhaustion: without any killed link, budget exhaustion
// under extreme loss re-grafts like any other until the regraft cap
// abandons hosts, with a typed error that is not a partition.
func TestRetryBudgetExhaustion(t *testing.T) {
	sys := irregular64(6)
	cfg := reliable.DefaultConfig()
	cfg.RetryBudget = 1
	spec := core.Spec{Source: 0, Dests: seqDests(1, 7), Packets: 2, Policy: core.LinearTree}
	plan := sys.Plan(spec)
	payload := payloadFor(2, cfg.Params, 17)
	res, err := repro.DeliverReliable(sys, plan, payload, cfg, fault.Plan{Seed: 3, DropRate: 0.9})
	if err == nil {
		t.Skip("seed delivered despite 90% loss; pick another seed")
	}
	var de *reliable.DeliveryError
	if !errors.As(err, &de) {
		t.Fatalf("error %v is not a *reliable.DeliveryError", err)
	}
	if de.Partitioned {
		t.Error("pure loss misreported as partition")
	}
	if len(de.Orphaned) == 0 || !reflect.DeepEqual(de.Orphaned, res.Orphaned) {
		t.Errorf("orphan lists inconsistent: err=%v result=%v", de.Orphaned, res.Orphaned)
	}
	for _, d := range res.Orphaned {
		if res.Hosts[d].Data != nil {
			t.Errorf("host %d both orphaned and delivered", d)
		}
	}
}

// TestDeterminism: identical inputs produce identical results, field for
// field — the protocol has no hidden entropy.
func TestDeterminism(t *testing.T) {
	sys := irregular64(8)
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 0, Dests: seqDests(1, 63), Packets: 8, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	payload := payloadFor(8, cfg.Params, 23)
	fp := fault.Plan{Seed: 77, DropRate: 0.05, CorruptRate: 0.01, AckDropRate: 0.05}
	a, errA := repro.DeliverReliable(sys, plan, payload, cfg, fp)
	b, errB := repro.DeliverReliable(sys, plan, payload, cfg, fp)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("error mismatch: %v vs %v", errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two runs with identical inputs diverged")
	}
}

// TestParallelDeliver exercises concurrent independent deliveries for the
// race detector: runs share no mutable state.
func TestParallelDeliver(t *testing.T) {
	sys := irregular64(9)
	cfg := reliable.DefaultConfig()
	spec := core.Spec{Source: 0, Dests: seqDests(1, 31), Packets: 4, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	payload := payloadFor(4, cfg.Params, 29)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		seed := uint64(i + 1)
		go func() {
			_, err := repro.DeliverReliable(sys, plan, payload, cfg, fault.Plan{Seed: seed, DropRate: 0.02})
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestConfigValidation rejects broken configs and plans.
func TestConfigValidation(t *testing.T) {
	sys := irregular64(1)
	spec := core.Spec{Source: 0, Dests: seqDests(1, 3), Packets: 1, Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	bad := reliable.DefaultConfig()
	bad.RetryBudget = 0
	if _, err := repro.DeliverReliable(sys, plan, []byte{1}, bad, fault.Plan{}); err == nil {
		t.Error("zero retry budget accepted")
	}
	cfg := reliable.DefaultConfig()
	if _, err := repro.DeliverReliable(sys, plan, []byte{1}, cfg, fault.Plan{DropRate: 1.5}); err == nil {
		t.Error("invalid fault plan accepted")
	}
}

// TestDeliverRefusesWhatTheRunLacks: a plan naming a link the network does
// not have, or a host outside the tree, is refused before the run — not
// reported delivered with nothing dead, or with a phantom crash — and so is
// a field virtual time cannot carry out, by type.
func TestDeliverRefusesWhatTheRunLacks(t *testing.T) {
	sys := irregular64(1) // 95 links
	cfg := reliable.DefaultConfig()
	plan := sys.Plan(core.Spec{Source: 0, Dests: seqDests(1, 15), Packets: 4, Policy: core.OptimalTree})
	payload := payloadFor(4, cfg.Params, 3)
	for _, c := range []struct {
		name, want string
		fp         fault.Plan
		refused    bool
	}{
		{"kill-link-95", "kill link 95 out of range (network has links 0..94)", fault.Plan{Kills: []fault.Kill{{Link: 95, At: 10}}}, false},
		{"kill-link-99999", "kill link 99999 out of range", fault.Plan{Kills: []fault.Kill{{Link: 99999, At: 10}}}, false},
		{"crash-host-99999", "crash of host 99999 outside the tree", fault.Plan{Crashes: []fault.Crash{{Host: 99999, At: 10}}}, false},
		{"crash-host-40", "crash of host 40 outside the tree", fault.Plan{Crashes: []fault.Crash{{Host: 40, At: 10}}}, false},
		{"pair-kill", "Kills (host pair)", fault.Plan{Kills: []fault.Kill{{Link: fault.Pair, From: 0, To: 1}}}, true},
		{"reorder", "ReorderRate", fault.Plan{ReorderRate: 0.1}, true},
		{"jitter", "MaxJitter", fault.Plan{MaxJitter: 1000}, true},
	} {
		res, err := repro.DeliverReliable(sys, plan, payload, cfg, c.fp)
		var re *fault.RefusedError
		if res != nil || err == nil || !strings.Contains(err.Error(), c.want) || errors.As(err, &re) != c.refused {
			t.Errorf("%s: Deliver = %v, %v; want a refusal naming %q (typed: %v)", c.name, res, err, c.want, c.refused)
		}
	}
}
