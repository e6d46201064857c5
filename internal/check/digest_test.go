package check

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/reliable"
)

// digestCases is how many seed-1 harness instances the digest pin covers.
const digestCases = 1000

// reliableDigests runs the crash arm (crashRun) and the lossy arm (the
// reliable-loss-agreement plan) of every covered instance that has one and
// returns one line per run: the case, the arm and a digest of everything
// live.Deliver returned.
func reliableDigests() []string {
	var out []string
	for c := 0; c < digestCases; c++ {
		w := build(Generate(1, c))
		digest := func(arm string, res *reliable.Result, err error) {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%+v|%v", *res, err)))
			out = append(out, fmt.Sprintf("%d %s %x", c, arm, sum[:8]))
		}
		if len(w.inst.Crashes) > 0 {
			res, err := w.crashRun()
			digest("crash", res, err)
		}
		if p := w.inst.DropRate; p > 0 {
			res, err := live.Deliver(w.sys, w.plan, w.inst.payload(), reliableConfig(),
				fault.Plan{Seed: w.inst.FaultSeed, DropRate: p})
			digest("lossy", res, err)
		}
	}
	return out
}

// TestReliableDigest holds the reliable runtime's switched-network runs
// (live.Deliver, the facade's DeliverReliable) to
// testdata/reliable-digest.txt: a line that differs names the instance
// (mcastcheck -seed 1 -case C) whose Result changed. It pins the shipped
// runtime. It was recorded on the virtual-time machine this runtime
// replaced, and re-recorded when the machine was deleted — the same 807
// runs. Side by side before the deletion, all 499 lossy runs kept their
// Status, orphans, sends and retransmits, and the 213 without a
// retransmission their latency; the rest finish later, a loss costing one
// lossless multicast (the runtime's RTO) instead of the machine's timer
// derived from the channel reservation. Of the 308 crash runs, 256 kept
// Status and orphan set; in the other 52, 57 crash-stopped hosts that
// completed before their crash count as delivered, where the machine
// forgot any completion on a crash. Every destination the machine
// delivered is delivered byte-exact. Never rewrite it for a change that
// moves a run.
func TestReliableDigest(t *testing.T) {
	f, err := os.Open("testdata/reliable-digest.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	got := reliableDigests()
	if len(got) != len(want) {
		t.Fatalf("%d runs, the pin has %d", len(got), len(want))
	}
	var diff []string
	for i := range got {
		if got[i] != want[i] {
			diff = append(diff, fmt.Sprintf("got %s, want %s", got[i], want[i]))
		}
	}
	if len(diff) > 0 {
		t.Fatalf("%d of %d runs changed:\n%s", len(diff), len(got), strings.Join(diff, "\n"))
	}
}
