package reliable

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/tree"
)

// fakeRuntime records the brain's Install/Retire calls and answers its
// five questions from plain sets the script fills: no goroutine, no timer,
// no socket. Chains are ascending unless descending is set.
type fakeRuntime struct {
	log                 []string
	down, crashed, done map[int]bool
	dead                map[[2]int]bool
	descending          bool
}

func newFake() *fakeRuntime {
	return &fakeRuntime{down: map[int]bool{}, crashed: map[int]bool{}, done: map[int]bool{}, dead: map[[2]int]bool{}}
}

func (f *fakeRuntime) Install(a, b int) { f.log = append(f.log, fmt.Sprintf("+%d>%d", a, b)) }
func (f *fakeRuntime) Retire(a, b int)  { f.log = append(f.log, fmt.Sprintf("-%d>%d", a, b)) }
func (f *fakeRuntime) Alive(v int) bool { return !f.down[v] && !f.crashed[v] }
func (f *fakeRuntime) Member(v int) bool {
	return !f.crashed[v]
}
func (f *fakeRuntime) Done(v int) bool { return f.done[v] }
func (f *fakeRuntime) Chain(adopter int, orphans []int) []int {
	chain := append([]int{adopter}, orphans...)
	slices.Sort(chain[1:])
	if f.descending {
		slices.Reverse(chain[1:])
	}
	return chain
}
func (f *fakeRuntime) Reachable(a, v int) bool { return !f.dead[[2]int{a, v}] }

// crash marks h confirmed-crashed the way a detector would before the
// driver calls Confirmed.
func (f *fakeRuntime) crash(hs ...int) {
	for _, h := range hs {
		f.crashed[h] = true
	}
}

func chain(n int) *tree.Tree {
	t := tree.New(0)
	for v := 1; v < n; v++ {
		t.AddChild(v-1, v)
	}
	return t
}

func star(n int) *tree.Tree {
	t := tree.New(0)
	for v := 1; v < n; v++ {
		t.AddChild(0, v)
	}
	return t
}

// TestBrainScript drives the brain through event scripts and compares the
// exact Install/Retire sequence it asked of the runtime.
func TestBrainScript(t *testing.T) {
	for _, tc := range []struct {
		name      string
		tree      *tree.Tree
		regrafts  int
		script    func(b *Brain, f *fakeRuntime)
		want      string
		abandoned []int
		adoptions int
	}{
		{
			// 0-1-2-3-4, host 2 dies: its subtree {3,4} hangs under the
			// nearest live ancestor 1 as the Fig.-11 tree over [1,3,4],
			// which at fanout 1 is the chain 1-3-4.
			name: "interior-confirm-adopts-under-nearest-live-ancestor",
			tree: chain(5), regrafts: 4,
			script: func(b *Brain, f *fakeRuntime) { f.crash(2); b.Confirmed(2) },
			want:   "-1>2 -2>3 -3>4 +1>3 +3>4", adoptions: 1,
		},
		{
			// The parent of the dead host is confirmed dead as well: the
			// walk continues to the root. A descendant that is not alive
			// stays where it is (3 keeps feeding 4) until its own
			// confirmation or rejoin; the live host behind it is moved.
			name: "confirm-skips-crashed-ancestors-and-down-descendants",
			tree: chain(6), regrafts: 4,
			script: func(b *Brain, f *fakeRuntime) {
				f.crash(1, 2)
				f.down[4] = true
				b.Confirmed(2)
			},
			want: "-1>2 -2>3 -4>5 +0>3 +3>5", adoptions: 1,
		},
		{
			// 0-1-2-3-4 with 3 complete, host 2 dies: the completed interior
			// host is left alone, and only its incomplete child 4 moves under
			// the nearest live ancestor 1.
			name: "confirm-leaves-completed-interior-host-and-grafts-its-child",
			tree: chain(5), regrafts: 4,
			script: func(b *Brain, f *fakeRuntime) { f.done[3] = true; f.crash(2); b.Confirmed(2) },
			want:   "-1>2 -2>3 -3>4 +1>4", adoptions: 1,
		},
		{
			// Host 1 is a member but not alive (Suspect): the adoption of 2's
			// subtree skips it and goes to the root.
			name: "confirm-skips-a-suspect-ancestor",
			tree: chain(5), regrafts: 4,
			script: func(b *Brain, f *fakeRuntime) { f.down[1] = true; f.crash(2); b.Confirmed(2) },
			want:   "-1>2 -2>3 -3>4 +0>3 +3>4", adoptions: 1,
		},
		{
			// The runtime's chain order, not ascending order, shapes the
			// Fig.-11 tree: descending, 3 leads and 2 hangs under it.
			name: "chain-order-shapes-the-graft",
			tree: func() *tree.Tree { t := chain(2); t.AddChild(1, 2); t.AddChild(1, 3); return t }(), regrafts: 4,
			script: func(b *Brain, f *fakeRuntime) { f.descending = true; f.crash(1); b.Confirmed(1) },
			want:   "-0>1 -1>2 -1>3 +0>3 +3>2", adoptions: 1,
		},
		{
			// Host 5 dies and its children 2, 3, 4 go under 1 as the tree
			// 1>3>4, 1>2. The pair 1->3 cannot carry packets, so 3 falls
			// back to a root edge; 3->4 and 1->2 install as built.
			name: "dead-non-root-pair-falls-back-while-live-pairs-install",
			tree: func() *tree.Tree {
				t := chain(2)
				t.AddChild(1, 5)
				for _, v := range []int{2, 3, 4} {
					t.AddChild(5, v)
				}
				return t
			}(), regrafts: 4,
			script: func(b *Brain, f *fakeRuntime) { f.dead[[2]int{1, 3}] = true; f.crash(5); b.Confirmed(5) },
			want:   "-1>5 -5>2 -5>3 -5>4 +0>3 +3>4 +1>2", adoptions: 1,
		},
		{
			// A root edge dies: the repair under the root cannot use the
			// dead pair and the fallback is the root itself, so the
			// destination is abandoned; nothing is installed, so nothing
			// counts as an adoption.
			name: "dead-root-pair-abandons",
			tree: star(4), regrafts: 4,
			script:    func(b *Brain, f *fakeRuntime) { f.dead[[2]int{0, 2}] = true; b.Exhausted(0, 2) },
			want:      "-0>2",
			abandoned: []int{2},
		},
		{
			// 0-2-3 with 0->2 dead: 2 is abandoned, and 3 — which the
			// rebuilt chain put under 2 — gets a direct root edge instead
			// of an edge out of a host nobody feeds any more.
			name: "child-of-a-host-abandoned-mid-graft-falls-back-to-root",
			tree: func() *tree.Tree { t := star(3); t.AddChild(2, 3); return t }(), regrafts: 4,
			script:    func(b *Brain, f *fakeRuntime) { f.dead[[2]int{0, 2}] = true; b.Exhausted(0, 2) },
			want:      "-0>2 -2>3 +0>3",
			abandoned: []int{2}, adoptions: 1,
		},
		{
			// 0-1-2-3: edge 1->2 dies. The repair under 1 cannot use the
			// dead pair 1->2, so 2 falls back to a direct root edge; 3
			// follows 2 in the rebuilt chain.
			name: "dead-pair-falls-back-to-root-edge",
			tree: chain(4), regrafts: 4,
			script: func(b *Brain, f *fakeRuntime) { f.dead[[2]int{1, 2}] = true; b.Exhausted(1, 2) },
			want:   "-1>2 -2>3 +0>2 +2>3", adoptions: 1,
		},
		{
			// A destination re-grafted more often than the bound is
			// abandoned, and both its edge sets are retired.
			name: "max-regrafts-abandons-and-retires-both-edge-sets",
			tree: chain(4), regrafts: 1,
			script: func(b *Brain, f *fakeRuntime) {
				b.Graft(0, []int{2}) // first graft: allowed
				f.log = append(f.log, "|")
				b.Graft(1, []int{2}) // second: over the bound
			},
			want:      "-1>2 +0>2 | -0>2 -2>3",
			abandoned: []int{2}, adoptions: 1,
		},
		{
			// A rejoined host is re-admitted directly under the root.
			name: "rejoin-grafts-under-root",
			tree: chain(4), regrafts: 4,
			script: func(b *Brain, f *fakeRuntime) { b.Rejoined(3) },
			want:   "-2>3 +0>3", adoptions: 1,
		},
		{
			// The receiver behind the dead edge is a leaf that already
			// holds the message: the edge is retired, nothing is grafted.
			name: "exhausted-edge-behind-completed-leaf",
			tree: chain(3), regrafts: 4,
			script: func(b *Brain, f *fakeRuntime) { f.done[2] = true; b.Exhausted(1, 2) },
			want:   "-1>2",
		},
		{
			// The sender of the dead edge is itself not alive: the repair
			// goes under its nearest live ancestor instead.
			name: "exhausted-edge-from-dead-sender-repairs-under-ancestor",
			tree: chain(4), regrafts: 4,
			script: func(b *Brain, f *fakeRuntime) { f.crash(1); b.Exhausted(1, 2) },
			want:   "-1>2 -2>3 +0>2 +2>3", adoptions: 1,
		},
		{
			// An edge the shape does not hold (a replayed or foreign
			// report) retires nothing.
			name: "exhausted-unknown-edge-retires-nothing",
			tree: chain(3), regrafts: 4,
			script: func(b *Brain, f *fakeRuntime) { f.done[2] = true; b.Exhausted(0, 2) },
			want:   "",
		},
		{
			// The same with the receiver incomplete: the stale pair must not
			// retire the healthy edge 1->2 nor abandon host 2.
			name: "exhausted-stale-pair-leaves-incomplete-receiver-alone",
			tree: chain(3), regrafts: 4,
			script: func(b *Brain, f *fakeRuntime) { b.Exhausted(0, 2) },
			want:   "",
		},
		{
			// An edge sender checks its cancel flag, then reports: a Retire
			// can land in between. Host 1's confirmation already moved 2 under
			// the root, so the late report for 1->2 repairs nothing and
			// charges no second adoption.
			name: "late-exhaustion-after-confirm-repairs-nothing",
			tree: chain(4), regrafts: 4,
			script: func(b *Brain, f *fakeRuntime) {
				f.crash(1)
				b.Confirmed(1)
				f.log = append(f.log, "|")
				b.Exhausted(1, 2)
			},
			want: "-0>1 -1>2 -2>3 +0>2 +2>3 |", adoptions: 1,
		},
		{
			// A report naming a host outside the tree (a corrupted ctl
			// frame) is the same case.
			name: "exhausted-foreign-host-repairs-nothing",
			tree: chain(3), regrafts: 4,
			script: func(b *Brain, f *fakeRuntime) { b.Exhausted(1, 9) },
			want:   "",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFake()
			b := NewBrain(tc.tree, tc.regrafts, f)
			tc.script(b, f)
			if got := strings.Join(f.log, " "); got != tc.want {
				t.Errorf("runtime calls\n got  %q\n want %q", got, tc.want)
			}
			var abandoned []int
			for _, v := range tc.tree.Nodes() {
				if b.Abandoned(v) {
					abandoned = append(abandoned, v)
				}
			}
			if !reflect.DeepEqual(abandoned, tc.abandoned) {
				t.Errorf("abandoned %v, want %v", abandoned, tc.abandoned)
			}
			if b.Adoptions() != tc.adoptions {
				t.Errorf("adoptions %d, want %d", b.Adoptions(), tc.adoptions)
			}
		})
	}
}

// The shape the brain reports follows the calls it made.
func TestBrainShapeFollowsCalls(t *testing.T) {
	f := newFake()
	b := NewBrain(chain(5), 4, f)
	f.crash(2)
	b.Confirmed(2)
	for v, want := range map[int]int{1: 0, 2: -1, 3: 1, 4: 3} {
		if got := b.Parent(v); got != want {
			t.Errorf("parent of %d = %d, want %d", v, got, want)
		}
	}
	if got := b.LiveAncestor(2); got != 0 {
		t.Errorf("a detached host's live ancestor = %d, want the root", got)
	}
}

// TestVerdictTable pins the one verdict all three engines settle with.
// Every row states which engine produced it before the merge; the only
// row on which they differed is the last, where the virtual-time
// machine's ordering (everything delivered wins) is kept.
func TestVerdictTable(t *testing.T) {
	type crash = CrashError
	for _, tc := range []struct {
		name               string
		dests              int
		orphaned, crashed  []int
		quorum, epoch      int
		armed, rootCrashed bool
		status             Status
		wantCrash          *crash
		wantDelivery       bool
	}{
		{name: "all-delivered (machine, live, mcastd)", dests: 3, armed: true, epoch: 1, status: Delivered},
		{name: "all-delivered-unarmed (machine, live)", dests: 3, status: Delivered},
		{name: "crash-free-orphan is a DeliveryError (machine, live)", dests: 3, orphaned: []int{2},
			status: Failed, wantDelivery: true},
		{name: "quorum-held is partial (machine, live, mcastd)", dests: 3, orphaned: []int{2}, crashed: []int{2},
			quorum: 2, epoch: 2, armed: true, status: DeliveredPartial},
		{name: "quorum-missed (machine, live, mcastd)", dests: 3, orphaned: []int{1, 2}, crashed: []int{1, 2},
			quorum: 2, epoch: 3, armed: true, status: Failed,
			wantCrash: &crash{Crashed: []int{1, 2}, Undelivered: []int{1, 2}, Delivered: 1, Quorum: 2, Epoch: 3}},
		{name: "quorum-zero means all (machine, live, mcastd)", dests: 3, orphaned: []int{3}, crashed: []int{3},
			epoch: 2, armed: true, status: Failed,
			wantCrash: &crash{Crashed: []int{3}, Undelivered: []int{3}, Delivered: 2, Quorum: 3, Epoch: 2}},
		{name: "quorum-above-dests is clamped (machine, live, mcastd)", dests: 2, orphaned: []int{1}, crashed: []int{1},
			quorum: 9, epoch: 2, armed: true, status: Failed,
			wantCrash: &crash{Crashed: []int{1}, Undelivered: []int{1}, Delivered: 1, Quorum: 2, Epoch: 2}},
		{name: "root-crash fails whatever the quorum (machine, live)", dests: 3, orphaned: []int{3}, crashed: []int{0},
			quorum: 1, epoch: 2, armed: true, rootCrashed: true, status: Failed,
			wantCrash: &crash{Crashed: []int{0}, Undelivered: []int{3}, Delivered: 2, Quorum: 1, Epoch: 2, RootCrashed: true}},
		{name: "root-crash after everything arrived (machine; live raced it)", dests: 3, crashed: []int{0},
			epoch: 2, armed: true, rootCrashed: true, status: Delivered},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Verdict(tc.dests, tc.orphaned, tc.crashed, tc.quorum, tc.epoch, tc.armed, tc.rootCrashed)
			if st != tc.status {
				t.Errorf("status %v, want %v", st, tc.status)
			}
			var ce *CrashError
			var de *DeliveryError
			switch {
			case tc.wantCrash != nil:
				if !errors.As(err, &ce) || !reflect.DeepEqual(ce, tc.wantCrash) {
					t.Errorf("err = %#v, want %#v", err, tc.wantCrash)
				}
			case tc.wantDelivery:
				if !errors.As(err, &de) || !reflect.DeepEqual(de.Orphaned, tc.orphaned) || de.Partitioned {
					t.Errorf("err = %#v, want a DeliveryError over %v", err, tc.orphaned)
				}
			case err != nil:
				t.Errorf("err = %v, want nil", err)
			}
		})
	}
}
