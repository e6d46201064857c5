package reliable

import (
	"repro/internal/tree"
)

// This file is the repair brain of the reliable runtime, whichever driver
// runs it (live.RunReliable, live.Deliver, mcastd.RunReliable): the
// overlay's tree shape and every decision that reshapes it — crash
// adoption, rejoin re-admission, dead-edge repair, abandonment. Each repair
// is the paper's Fig.-11 k-binomial construction re-run over the survivors
// under a live ancestor. The brain has no clock, goroutine or socket: it is
// a pure function of the calls made on it and of what the Runtime answers,
// so the same event script always yields the same Install/Retire sequence,
// and it is tested without a wall clock. Only a run's geometry differs,
// and the Runtime (the supervisor) carries it: over a switched network
// the chain is cut from the system's ordering and reachability read off
// the degraded switch graph (Geometry); without one the chain is
// ascending and an exhausted transport pair is unreachable.

// Runtime is what the brain needs from the engine hosting it: a way to
// bring tree edges up and down, and five questions.
type Runtime interface {
	// Install brings up a fresh incarnation of edge a->b; the parent
	// replays every packet it already holds into it.
	Install(a, b int)
	// Retire tears down the current incarnation of edge a->b.
	Retire(a, b int)
	// Alive reports whether v can take part in a repair right now.
	Alive(v int) bool
	// Member reports whether v is in the current membership view, i.e.
	// has not been confirmed crashed.
	Member(v int) bool
	// Done reports whether v holds the complete message.
	Done(v int) bool
	// Chain orders a repair's participants for the Fig.-11 construction,
	// adopter first.
	Chain(adopter int, orphans []int) []int
	// Reachable reports whether an edge a->v can carry packets.
	Reachable(a, v int) bool
}

// Brain owns the overlay's shape and repair bookkeeping. It is not safe
// for concurrent use: one goroutine drives it.
type Brain struct {
	rt           Runtime
	root, k      int
	regraftLimit int
	parent       map[int]int
	children     map[int][]int
	regrafts     map[int]int
	abandoned    map[int]bool
	adoptions    int

	// Logf, when non-nil, receives one line per abandonment.
	Logf func(format string, args ...any)
}

// NewBrain starts from the planned tree; its edges are assumed up (the
// engines wire them before any packet moves). The plan's fanout is reused
// by every Fig.-11 regraft, and a destination grafted more than
// maxRegrafts times is abandoned.
func NewBrain(t *tree.Tree, maxRegrafts int, rt Runtime) *Brain {
	b := &Brain{
		rt:           rt,
		root:         t.Root(),
		k:            t.MaxDegree(),
		regraftLimit: maxRegrafts,
		parent:       map[int]int{},
		children:     map[int][]int{},
		regrafts:     map[int]int{},
		abandoned:    map[int]bool{},
	}
	for _, v := range t.Nodes() {
		b.parent[v] = -1
	}
	for _, e := range t.Edges() {
		b.parent[e.Child] = e.Parent
		b.children[e.Parent] = append(b.children[e.Parent], e.Child)
	}
	return b
}

// Parent returns v's current parent, -1 when v hangs off no edge.
func (b *Brain) Parent(v int) int { return b.parent[v] }

// Abandoned reports whether the brain gave up on v.
func (b *Brain) Abandoned(v int) bool { return b.abandoned[v] }

// Adoptions counts the grafts that installed an edge so far.
func (b *Brain) Adoptions() int { return b.adoptions }

// Confirmed handles a confirmed crash of h: its edges are retired and its
// subtree's orphans re-grafted under its nearest live ancestor. h itself
// and descendants that are not alive stay detached; their own
// confirmation or rejoin resolves them.
func (b *Brain) Confirmed(h int) {
	adopter := b.LiveAncestor(h)
	orphans := b.orphans(b.children[h])
	b.retireInto(h)
	b.retireOutOf(h)
	b.Graft(adopter, orphans)
}

// Rejoined re-admits h under the root with a full replay unless it holds
// the message: a rejoined host is amnesiac, or was falsely confirmed, and
// needs a live parent again either way; duplicate suppression absorbs
// whatever it still holds.
func (b *Brain) Rejoined(h int) {
	if !b.rt.Done(h) {
		b.Graft(b.root, []int{h})
	}
}

// Exhausted handles edge a->c running out of retry budget (or its
// transport dying): the incarnation is retired and the orphans behind it
// re-grafted under the sending endpoint, or under a's nearest live
// ancestor when a is not alive itself. A pair that is not the current edge
// into c — a report that lost the race with the repair that retired it, or
// one naming a host outside the tree — changes nothing: c hangs off
// another parent or none, or is no host.
func (b *Brain) Exhausted(a, c int) {
	if p, ok := b.parent[c]; !ok || p != a {
		return
	}
	b.retire(a, c)
	adopter := a
	if !b.rt.Alive(a) {
		adopter = b.LiveAncestor(a)
	}
	b.Graft(adopter, b.orphans([]int{c}))
}

// Graft re-parents the orphans onto a fresh k-binomial subtree under
// adopter — the paper's Fig.-11 contention-free construction over the
// survivors, in the runtime's chain order. An edge the runtime cannot
// carry, or one out of a parent abandoned on the way, falls back to a
// direct root edge; a destination the root cannot reach either, or one
// re-grafted too often, is abandoned.
func (b *Brain) Graft(adopter int, orphans []int) {
	var keep []int
	for _, v := range orphans {
		if v == adopter || b.abandoned[v] {
			continue
		}
		b.regrafts[v]++
		if b.regrafts[v] > b.regraftLimit {
			b.Abandon(v)
			continue
		}
		b.retireInto(v)
		keep = append(keep, v)
	}
	if len(keep) == 0 {
		return
	}
	installed := false
	for _, e := range tree.KBinomial(b.rt.Chain(adopter, keep), b.k).Edges() {
		a, c := e.Parent, e.Child
		if !b.rt.Reachable(a, c) || b.abandoned[a] { // a: abandoned earlier in this loop
			if a == b.root || !b.rt.Reachable(b.root, c) {
				b.Abandon(c)
				continue
			}
			a = b.root
		}
		b.parent[c] = a
		b.children[a] = append(b.children[a], c)
		b.rt.Install(a, c)
		installed = true
	}
	if installed {
		b.adoptions++
	}
}

// Abandon gives up on destination v permanently: both its edge sets are
// retired and no later graft touches it.
func (b *Brain) Abandon(v int) {
	if b.abandoned[v] {
		return
	}
	if b.Logf != nil {
		b.Logf("abandoning host %d after %d regrafts", v, b.regrafts[v])
	}
	b.abandoned[v] = true
	b.retireInto(v)
	b.retireOutOf(v)
}

// LiveAncestor walks up from h to the nearest ancestor that is in the
// membership view, alive and not abandoned; a detached chain ends at the
// root.
func (b *Brain) LiveAncestor(h int) int {
	v := b.parent[h]
	for v >= 0 && v != b.root && (!b.rt.Member(v) || !b.rt.Alive(v) || b.abandoned[v]) {
		v = b.parent[v]
	}
	if v < 0 {
		return b.root
	}
	return v
}

// orphans lists the hosts of the subtrees rooted at roots, preorder, that
// a repair must re-graft: alive and not yet holding the message.
func (b *Brain) orphans(roots []int) []int {
	var out []int
	for _, r := range roots {
		for _, v := range b.subtree(r) {
			if b.rt.Alive(v) && !b.rt.Done(v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// subtree collects the nodes currently rooted at h, h first, preorder.
func (b *Brain) subtree(h int) []int {
	out := []int{h}
	for _, c := range b.children[h] {
		out = append(out, b.subtree(c)...)
	}
	return out
}

func (b *Brain) retireInto(v int) {
	if p := b.parent[v]; p >= 0 {
		b.retire(p, v)
	}
}

func (b *Brain) retireOutOf(v int) {
	for _, c := range append([]int(nil), b.children[v]...) {
		b.retire(v, c)
	}
}

// retire drops edge a->c from the shape and has the runtime tear its
// incarnation down; an edge not in the shape is left alone.
func (b *Brain) retire(a, c int) {
	if p, ok := b.parent[c]; !ok || p != a {
		return
	}
	for i, x := range b.children[a] {
		if x == c {
			b.children[a] = append(b.children[a][:i], b.children[a][i+1:]...)
			break
		}
	}
	b.parent[c] = -1
	b.rt.Retire(a, c)
}
