package check

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/live"
	"repro/internal/message"
)

// chaosInvariantIDs are the four chaos-plane invariants added with the
// faulty live engine. make chaos-soak sweeps exactly these.
var chaosInvariantIDs = []string{
	"live-faulty-terminates",
	"live-survivor-bytes",
	"live-epoch-monotone",
	"live-faulty-lossless-identity",
}

// TestLiveFaultyInvariant250Cases is the chaos acceptance gate: 250 seeded
// harness instances — lossy, crashing, and lossless alike — run through
// the fault-decorated reliable live engine in virtual time (RunVirtual),
// checking termination, survivor payload bytes, epoch monotonicity, and
// p=0 identity with the plain live engine. The faulty run is memoized per
// instance, so the four invariants share a single execution; a failure
// replays bit-exact from its token.
func TestLiveFaultyInvariant250Cases(t *testing.T) {
	sweepChaos(t, nil)
}

// TestLiveFaultyWallClock250Cases holds the same 250 instances to the same
// four invariants on the wall-clock engine (RunReliable): real goroutines,
// timers and sleeps, whose interleavings virtual time does not explore.
// make chaos-soak runs it under -race.
func TestLiveFaultyWallClock250Cases(t *testing.T) {
	sweepChaos(t, live.RunReliable)
}

// sweepChaos checks the four chaos invariants on cases 0-249 of seed 3,
// each instance's faulty live run made by run (nil: the harness's own,
// in virtual time).
func sweepChaos(t *testing.T, run func(live.Session, live.ReliableConfig) (*live.ReliableResult, error)) {
	const cases = 250
	failed := 0
	for c := 0; c < cases; c++ {
		inst := Generate(3, c)
		w, err := safeBuild(inst)
		if err != nil {
			t.Fatalf("case %d: build: %v", c, err)
		}
		if run != nil {
			w.liveRel.get(func() (*live.ReliableResult, error) {
				pkts, err := message.Packetize(1, w.plan.Spec.Source, inst.livePayload(), livePacketBytes)
				if err != nil {
					t.Fatal(err)
				}
				return run(live.Session{Tree: w.plan.Tree, Packets: pkts, MsgID: 1}, inst.liveReliableConfig())
			})
		}
		for _, id := range chaosInvariantIDs {
			inv, ok := InvariantByID(id)
			if !ok {
				t.Fatalf("%s invariant not registered", id)
			}
			if err := safeCheck(inv, w); err != nil {
				failed++
				t.Errorf("case %d [%s] (replay: mcastcheck -seed 3 -case %d): %v", c, id, c, err)
				if failed >= 5 {
					t.Fatal("stopping after 5 chaos failures")
				}
			}
		}
	}
}

// TestLiveFaultyReplaysBySeed: the faulty live arm is a function of its
// instance. Every lossy or crashing case among the sweep's 250 runs three
// times — twice at GOMAXPROCS 1 and once at 2 — from a fresh world, and
// the three results agree in status, per-host completion time, send,
// retransmit, duplicate and fence counts, epochs and loss patterns.
func TestLiveFaultyReplaysBySeed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	replayed := 0
	for c := 0; c < 250; c++ {
		inst := Generate(3, c)
		if inst.DropRate == 0 && len(inst.Crashes) == 0 {
			continue
		}
		var prints []string
		for _, procs := range []int{1, 2, 1} {
			runtime.GOMAXPROCS(procs)
			w, err := safeBuild(inst)
			if err != nil {
				t.Fatalf("case %d: build: %v", c, err)
			}
			prints = append(prints, fingerprint(w.liveFaultyRun()))
		}
		if prints[0] != prints[1] || prints[0] != prints[2] {
			t.Fatalf("case %d (replay: mcastcheck -seed 3 -case %d) did not replay:\n%s\nthen at GOMAXPROCS 2:\n%s\nthen:\n%s",
				c, c, prints[0], prints[1], prints[2])
		}
		replayed++
	}
	if replayed < 100 {
		t.Fatalf("only %d lossy or crashing cases replayed", replayed)
	}
}

// fingerprint renders what a replay must reproduce of one faulty live run.
func fingerprint(res *live.ReliableResult, err error) string {
	if res == nil {
		return fmt.Sprintf("no result: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v (%v): %d sends, %d retransmits, %d duplicates, %d fenced, epoch %d, views %v, accepts %v, losses %v, crashed %v, orphaned %v",
		res.Status, err, res.Sends, res.Retransmits, res.Duplicates, res.Fenced, res.Epoch, res.Views, res.Accepts,
		res.Losses, res.Crashed, res.Orphaned)
	var hosts []int
	for h := range res.Hosts {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	for _, h := range hosts {
		r := res.Hosts[h]
		fmt.Fprintf(&b, "\nhost %d: done at %v, %d recvs, %d sends", h, r.DoneAt, r.Recvs, r.Sends)
	}
	return b.String()
}

// TestLiveFaultySweepSpread pins the fault-plan derivation: the sweep must
// exercise lossy, crashing, and perfectly lossless instances, or the
// identity arm (and therefore decorator transparency) goes untested.
func TestLiveFaultySweepSpread(t *testing.T) {
	lossy, crashing, clean := 0, 0, 0
	for c := 0; c < 250; c++ {
		inst := Generate(3, c)
		switch {
		case inst.DropRate > 0 && len(inst.Crashes) > 0:
			lossy++
			crashing++
		case inst.DropRate > 0:
			lossy++
		case len(inst.Crashes) > 0:
			crashing++
		default:
			clean++
		}
	}
	if lossy == 0 || crashing == 0 || clean == 0 {
		t.Fatalf("sweep is degenerate: %d lossy / %d crashing / %d clean", lossy, crashing, clean)
	}
}

// TestSelectFilter pins the Select/Active contract the mcastcheck -only
// flag builds on.
func TestSelectFilter(t *testing.T) {
	defer Select()
	if err := Select("live-faulty-terminates", "tree-structure"); err != nil {
		t.Fatal(err)
	}
	act := Active()
	if len(act) != 2 || act[0].ID != "tree-structure" || act[1].ID != "live-faulty-terminates" {
		t.Fatalf("Active() = %v, want catalogue-ordered selection", act)
	}
	if vs := Check(Generate(1, 0)); len(vs) != 0 {
		t.Fatalf("filtered Check failed: %v", vs)
	}
	if err := Select("bogus"); err == nil {
		t.Fatal("unknown ID accepted")
	}
	if len(Active()) != 2 {
		t.Fatal("failed Select clobbered the filter")
	}
	if err := Select(); err != nil {
		t.Fatal(err)
	}
	if len(Active()) != len(Invariants) {
		t.Fatal("empty Select did not restore the catalogue")
	}
}
