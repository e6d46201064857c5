package check

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/live"
)

// digestCases is how many seed-1 harness instances the digest pin covers.
const digestCases = 1000

// digestRun is one pinned run: its digest line and the rendering hashed.
type digestRun struct{ line, rendering string }

// reliableDigests runs the crash arm (crashRun) and the lossy arm
// (lossyRun) of every covered instance that has one and returns one line
// per run: the case, the arm and a digest of everything live.Deliver
// returned, rendered by render.
func reliableDigests() []digestRun {
	var out []digestRun
	for c := 0; c < digestCases; c++ {
		w := build(Generate(1, c))
		digest := func(arm string, res *live.ReliableResult, err error) {
			r := render(res, err)
			sum := sha256.Sum256([]byte(r))
			out = append(out, digestRun{fmt.Sprintf("%d %s %x", c, arm, sum[:8]), r})
		}
		if len(w.inst.Crashes) > 0 {
			res, err := w.crashRun()
			digest("crash", res, err)
		}
		if w.inst.DropRate > 0 {
			res, err := w.lossyRun()
			digest("lossy", res, err)
		}
	}
	return out
}

// render writes a run by value: the result without its host map, the
// error, then each host's record in ascending host order, its payload as
// a length and hash.
func render(res *live.ReliableResult, err error) string {
	var b strings.Builder
	top := *res
	top.Hosts = nil
	fmt.Fprintf(&b, "%+v\nerr: %v", top, err)
	hosts := make([]int, 0, len(res.Hosts))
	for h := range res.Hosts {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	for _, h := range hosts {
		rec := *res.Hosts[h]
		data := rec.Data
		rec.Data = nil
		fmt.Fprintf(&b, "\nhost %+v data %d B %x", rec, len(data), sha256.Sum256(data))
	}
	return b.String()
}

// TestReliableDigest holds the reliable runtime's switched-network runs
// (live.Deliver, the facade's DeliverReliable) to
// testdata/reliable-digest.txt: a line that differs names the instance
// (mcastcheck -seed 1 -case C) whose result changed, and the first such
// run is printed as render writes it. It pins the shipped runtime. It was
// recorded on the virtual-time machine this runtime replaced, re-recorded
// when the machine was deleted — the same 807 runs, whose differences are
// told in CHANGES.md — and re-recorded once more when live.Deliver began
// to return the runtime's own result: a crosswalk of all 807 runs found
// every verdict, error, counter, view, loss pattern, accept and delivered
// host's completion time and payload equal. It was re-recorded again when
// a switched run began to charge the receive copy itself and a future
// crash-stop stopped counting as down; that crosswalk sorted every changed
// run under one of the two, as CHANGES.md tells. Never rewrite it for a
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
	first := -1
	for i := range got {
		if got[i].line != want[i] {
			diff = append(diff, fmt.Sprintf("got %s, want %s", got[i].line, want[i]))
			if first < 0 {
				first = i
			}
		}
	}
	if first >= 0 {
		c, _, _ := strings.Cut(got[first].line, " ")
		t.Fatalf("%d of %d runs changed:\n%s\nfirst changed run (mcastcheck -seed 1 -case %s), as hashed now:\n%s",
			len(diff), len(got), strings.Join(diff, "\n"), c, got[first].rendering)
	}
}
