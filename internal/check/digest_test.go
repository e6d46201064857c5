package check

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/reliable"
)

// digestCases is how many seed-1 harness instances the digest pin covers.
const digestCases = 1000

// reliableDigests runs the crash arm (crashRun) and the lossy arm (the
// reliable-loss-agreement plan) of every covered instance that has one and
// returns one line per run: the case, the arm and a digest of everything
// reliable.Deliver returned.
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
			res, err := reliable.Deliver(w.sys, w.plan, w.inst.payload(), reliableConfig(),
				fault.Plan{Seed: w.inst.FaultSeed, DropRate: p})
			digest("lossy", res, err)
		}
	}
	return out
}

// TestReliableDigest holds the virtual-time machine's crash and lossy runs
// to testdata/reliable-digest.txt: a line that differs names the instance
// (mcastcheck -seed 1 -case C) whose Result changed. The pin was recorded
// before the machine's repairs moved into reliable.Brain, and re-recorded
// once, when Result lost its two always-zero bounded-buffer fields
// (BackpressureWait, PeakBuffered): every line's hash changed with the
// rendering, and the 807 full renderings matched the previous build's,
// with those two fields cut out, byte for byte. It was re-recorded a second
// time when one fault plane (internal/fault) gave every edge incarnation
// its own loss stream in place of the run-wide one: every hash changed
// with the rendering (FaultStats became fault.Stats, AcksLost AcksDropped,
// plus Reordered and Result.Losses). Against the previous build's full
// renderings, with that mapped, 317 runs matched byte for byte (180 crash,
// 137 lossy, every run without loss among them), and each of the 490 that
// moved draws from a loss stream (DropRate > 0). Never rewrite it for a
// change that moves a run.
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
