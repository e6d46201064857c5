package reliable_test

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/reliable"
	"repro/internal/topology"
	"repro/internal/workload"
)

// switchedBlock numbers the runs of TestSwitchedChaos in one test binary,
// so each `go test -count=N` pass sweeps fresh seeds: tier-1's one run
// sweeps seeds 1-25 and `make virtual-soak`'s -count=20 1-500.
var switchedBlock atomic.Int64

// TestSwitchedChaos sweeps the reliable runtime over the switched network
// (repro.DeliverReliable) on the 64-host irregular testbed, each seed a
// broadcast under loss, corruption, one mid-flight link kill on a tree
// route and one crash (stop or recovery): the run must settle, and every
// destination that does not crash-stop must hold the byte-exact message.
// Virtual time: a failure replays from its seed.
func TestSwitchedChaos(t *testing.T) {
	sys := irregular64(1)
	first := 25*int(switchedBlock.Add(1)-1) + 1
	var retransmits, adoptions, dead int
	for seed := first; seed < first+25; seed++ {
		res := switchedRun(t, sys, uint64(seed))
		retransmits += res.Retransmits
		adoptions += res.Adoptions
		dead += res.Faults.DeadSends
	}
	t.Logf("seeds %d-%d: %d retransmits, %d adoptions, %d dead-link sends", first, first+24, retransmits, adoptions, dead)
	if retransmits == 0 || adoptions == 0 || dead == 0 {
		t.Fatal("the sweep never retransmitted, adopted or lost a frame to a dead link: its fault plans do not bite")
	}
}

// switchedRun draws one broadcast and fault plan from the seed, runs it
// and judges the outcome.
func switchedRun(t *testing.T, sys *core.System, seed uint64) *repro.ReliableResult {
	t.Helper()
	rng := workload.NewRNG(seed * 0x9e37_79b9)
	cfg := reliable.DefaultConfig()
	cfg.RetryBudget, cfg.Quorum = 20, 1
	set := workload.DestSet(rng, sys.Net.NumHosts(), 8+rng.Intn(56))
	m := 1 + rng.Intn(8)
	policy := []core.TreePolicy{core.OptimalTree, core.BinomialTree, core.LinearTree}[rng.Intn(3)]
	spec := core.Spec{Source: set[0], Dests: set[1:], Packets: m, Policy: policy}
	plan := sys.Plan(spec)
	payload := payloadFor(m, cfg.Params, seed)
	span := sys.Simulate(plan, cfg.Params, repro.FPFS).Latency
	fp := fault.Plan{Seed: seed, DropRate: 0.1 * rng.Float64(), CorruptRate: 0.03 * rng.Float64()}
	// One switch-switch link on a tree edge's route, whose removal leaves
	// the switch graph connected, dies mid-flight.
	for _, e := range plan.Tree.Edges() {
		for _, c := range sys.Router.Route(e.Parent, e.Child).Channels {
			if l := sys.Net.Link(c / 2); len(fp.Kills) == 0 &&
				l.A.Kind == topology.SwitchNode && l.B.Kind == topology.SwitchNode {
				if _, err := sys.WithoutLinkChecked(l.ID); err == nil {
					fp.Kills = append(fp.Kills, fault.Kill{Link: l.ID, At: span * rng.Float64()})
				}
			}
		}
	}
	victim := spec.Dests[rng.Intn(len(spec.Dests))]
	crash := fault.Crash{Host: victim, At: cfg.Params.THostSend + span*rng.Float64()}
	if rng.Intn(2) == 0 {
		crash.RecoverAt = crash.At + 10 + 2*span*rng.Float64()
	}
	fp.Crashes = []fault.Crash{crash}
	res, err := repro.DeliverReliable(sys, plan, payload, cfg, fp)
	if res == nil {
		t.Fatalf("seed %d: no result: %v", seed, err)
	}
	if res.Wall < res.Latency {
		t.Fatalf("seed %d: the run ends at %v, before its last completion at %v", seed, res.Wall, res.Latency)
	}
	for _, d := range spec.Dests {
		if d == victim && crash.RecoverAt == 0 {
			continue
		}
		if !bytes.Equal(res.Hosts[d].Data, payload) {
			t.Fatalf("seed %d: destination %d does not hold the message (status %v, orphaned %v, err %v)",
				seed, d, res.Status, res.Orphaned, err)
		}
	}
	return res
}
