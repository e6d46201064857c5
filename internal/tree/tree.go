// Package tree constructs and inspects multicast trees over an ordered
// chain of participating nodes.
//
// Nodes are identified by opaque non-negative integer IDs (host IDs in the
// network packages, or plain indices in the analytic packages). A tree is
// built over a chain — an ordering of the participants with the multicast
// source first. When the chain is a contention-free ordering of the nodes
// (package ordering), the segment-recursive construction used here yields
// depth-contention-free trees: every subtree spans a contiguous chain
// segment, so concurrent tree edges never cross (Fig. 11 of the paper).
package tree

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/ktree"
)

// Tree is a rooted multicast tree. Children of every vertex are stored in
// send order: the first child listed is the first child served.
type Tree struct {
	root     int
	children map[int][]int
	parent   map[int]int
	size     int
	// nodes and flat memoize the ascending node list behind Nodes and the
	// view behind Flat; AddChild clears both. Atomic because a built tree
	// is read from many goroutines (live NIs, scheduler shards): two first
	// callers may both build, and either result is the same.
	nodes atomic.Pointer[[]int]
	flat  atomic.Pointer[Flat]
}

// Flat is a tree read without map lookups: the nodes in ascending order
// and, per position i, the node's parent and its children in send order.
// It is shared by every caller of Flat and must not be modified.
type Flat struct {
	Nodes  []int // ascending
	Parent []int // Parent[i] is the parent of Nodes[i]; -1 at the root
	// Kids[KidsAt[i]:KidsAt[i+1]] are the children of Nodes[i].
	Kids   []int
	KidsAt []int
}

// New returns a tree containing only the root.
func New(root int) *Tree { return sized(root, 1) }

// sized is New with room for n nodes, about half of them parents.
func sized(root, n int) *Tree {
	t := &Tree{
		root:     root,
		children: make(map[int][]int, n/2),
		parent:   make(map[int]int, n),
		size:     1,
	}
	t.parent[root] = -1
	return t
}

// Root returns the tree's root node ID.
func (t *Tree) Root() int { return t.root }

// Size returns the number of nodes in the tree, root included.
func (t *Tree) Size() int { return t.size }

// Children returns the children of node v in send order. The returned slice
// is owned by the tree and must not be modified.
func (t *Tree) Children(v int) []int { return t.children[v] }

// Parent returns the parent of node v and true, or -1 and false for the
// root or an unknown node.
func (t *Tree) Parent(v int) (int, bool) {
	p, ok := t.parent[v]
	if !ok || p < 0 {
		return -1, false
	}
	return p, true
}

// Contains reports whether node v is part of the tree.
func (t *Tree) Contains(v int) bool {
	_, ok := t.parent[v]
	return ok
}

// AddChild appends child c to parent p's child list. It panics if p is not
// in the tree or c already is: trees grow strictly outward.
func (t *Tree) AddChild(p, c int) {
	if _, ok := t.parent[p]; !ok {
		panic(fmt.Sprintf("tree: parent %d not in tree", p))
	}
	if _, ok := t.parent[c]; ok {
		panic(fmt.Sprintf("tree: node %d already in tree", c))
	}
	t.children[p] = append(t.children[p], c)
	t.parent[c] = p
	t.size++
	t.nodes.Store(nil)
	t.flat.Store(nil)
}

// Nodes returns all node IDs in the tree in ascending order. The slice is
// the caller's: it is a copy of a list sorted once per tree shape, not
// once per call.
func (t *Tree) Nodes() []int { return slices.Clone(t.sorted()) }

func (t *Tree) sorted() []int {
	p := t.nodes.Load()
	if p == nil {
		sorted := make([]int, 0, t.size)
		for v := range t.parent {
			sorted = append(sorted, v)
		}
		sort.Ints(sorted)
		p = &sorted
		t.nodes.Store(p)
	}
	return *p
}

// Flat returns the tree's flat view, built once per tree shape.
func (t *Tree) Flat() *Flat {
	if f := t.flat.Load(); f != nil {
		return f
	}
	nodes := t.sorted()
	f := &Flat{
		Nodes:  nodes,
		Parent: make([]int, len(nodes)),
		Kids:   make([]int, 0, len(nodes)-1),
		KidsAt: make([]int, len(nodes)+1),
	}
	for i, v := range nodes {
		f.Parent[i] = t.parent[v]
		f.Kids = append(f.Kids, t.children[v]...)
		f.KidsAt[i+1] = len(f.Kids)
	}
	t.flat.Store(f)
	return f
}

// RootDegree returns the number of children of the root — the pipeline
// interval c_R of Theorem 1.
func (t *Tree) RootDegree() int { return len(t.children[t.root]) }

// MaxDegree returns the largest child count over all vertices.
func (t *Tree) MaxDegree() int {
	d := 0
	for _, cs := range t.children {
		if len(cs) > d {
			d = len(cs)
		}
	}
	return d
}

// Depth returns the maximum edge distance from the root to any node.
func (t *Tree) Depth() int {
	var walk func(v int) int
	walk = func(v int) int {
		d := 0
		for _, c := range t.children[v] {
			if cd := walk(c) + 1; cd > d {
				d = cd
			}
		}
		return d
	}
	return walk(t.root)
}

// Edges returns all (parent, child) pairs in deterministic preorder,
// children in send order.
type Edge struct{ Parent, Child int }

// Edges returns the tree's edges in preorder.
func (t *Tree) Edges() []Edge {
	out := make([]Edge, 0, t.size-1)
	var walk func(v int)
	walk = func(v int) {
		for _, c := range t.children[v] {
			out = append(out, Edge{v, c})
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// SubtreeNodes returns v and every descendant of v in preorder, children in
// send order — the set of hosts severed when the edge into v dies. It
// returns nil if v is not in the tree.
func (t *Tree) SubtreeNodes(v int) []int {
	if !t.Contains(v) {
		return nil
	}
	var out []int
	var walk func(u int)
	walk = func(u int) {
		out = append(out, u)
		for _, c := range t.children[u] {
			walk(c)
		}
	}
	walk(v)
	return out
}

// Validate checks structural invariants: exactly the given participants are
// present, parent/child maps agree, and there are no cycles. It returns an
// error describing the first violation found.
func (t *Tree) Validate(participants []int) error {
	if len(participants) != t.size {
		return fmt.Errorf("tree has %d nodes, want %d", t.size, len(participants))
	}
	for _, p := range participants {
		if !t.Contains(p) {
			return fmt.Errorf("participant %d missing from tree", p)
		}
	}
	seen := map[int]bool{}
	var walk func(v int) error
	walk = func(v int) error {
		if seen[v] {
			return fmt.Errorf("node %d reached twice (cycle or shared child)", v)
		}
		seen[v] = true
		for _, c := range t.children[v] {
			if p := t.parent[c]; p != v {
				return fmt.Errorf("node %d: parent map says %d, child list says %d", c, p, v)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return err
	}
	if len(seen) != t.size {
		return fmt.Errorf("only %d of %d nodes reachable from root", len(seen), t.size)
	}
	return nil
}

// Linear builds the linear chain tree (k = 1): chain[0] → chain[1] → … .
// The chain must be non-empty and duplicate-free.
func Linear(chain []int) *Tree {
	checkChain(chain)
	t := New(chain[0])
	for i := 1; i < len(chain); i++ {
		t.AddChild(chain[i-1], chain[i])
	}
	return t
}

// Binomial builds the conventional binomial tree over the chain using
// recursive doubling (McKinley et al.): equivalent to KBinomial with
// k = ceil(log2 n).
func Binomial(chain []int) *Tree {
	checkChain(chain)
	if len(chain) == 1 {
		return New(chain[0])
	}
	return KBinomial(chain, ktree.CeilLog2(len(chain)))
}

// KBinomial builds a k-binomial tree over the chain following the
// contention-free construction of Fig. 11: the root's i-th child heads the
// contiguous segment of (at most) N(s-i, k) nodes counted from the right end
// of the chain, where s is the minimum step count covering the chain; each
// segment recursively becomes a k-binomial tree.
//
// KBinomial panics if k < 1 or the chain is empty or has duplicates.
func KBinomial(chain []int, k int) *Tree {
	checkChain(chain)
	if k < 1 {
		panic(fmt.Sprintf("tree: invalid fanout bound k=%d", k))
	}
	t := sized(chain[0], len(chain))
	buildSegment(t, chain, k)
	return t
}

// buildSegment attaches chain[1:] under chain[0], which is already in t.
func buildSegment(t *Tree, chain []int, k int) {
	rest := chain[1:]
	if len(rest) == 0 {
		return
	}
	s := ktree.Steps1(len(chain), k)
	for i := 1; len(rest) > 0; i++ {
		if s-i < 0 {
			// Cannot happen when s = Steps1(len(chain), k): the segment
			// capacities sum to N(s,k)-1 >= len(rest). Guard anyway.
			panic(fmt.Sprintf("tree: segment overflow at k=%d chain=%d", k, len(chain)))
		}
		cap := ktree.Coverage(s-i, k)
		take := cap
		if take > len(rest) {
			take = len(rest)
		}
		seg := rest[len(rest)-take:]
		rest = rest[:len(rest)-take]
		t.AddChild(chain[0], seg[0])
		buildSegment(t, seg, k)
	}
}

// OptimalCongested builds the k-binomial tree for an m-packet multicast
// over the chain under the simultaneous-multicast objective: among the
// candidate fanout bounds it minimizes
//
//	Steps(n, m, k) + sum over candidate edges of load(edge)
//
// where load reports, per directed (parent, child) pair, how many
// in-flight trees currently carry that edge (a scheduler's live edge
// census). Every tree already resident on an edge charges one step —
// reusing a hot link delays both the resident sessions and the new one,
// so the planner is steered toward trees that spread across idle links
// and away from piling deeper onto already-shared ones. With zero load
// everywhere (an idle fabric) the objective, the tie-break, and therefore
// the constructed tree reduce exactly to KBinomial at ktree.OptimalK's k.
//
// It returns the tree and the selected k. load must be non-nil; for a
// single-node chain it returns the trivial tree and k = 1.
func OptimalCongested(chain []int, m int, load func(parent, child int) int) (*Tree, int) {
	checkChain(chain)
	if load == nil {
		panic("tree: nil load function")
	}
	if len(chain) == 1 {
		return New(chain[0]), 1
	}
	kMax := ktree.CeilLog2(len(chain))
	candidates := make([]*Tree, kMax+1)
	k, _ := ktree.OptimalKPenalized(len(chain), m, func(k int) int {
		t := KBinomial(chain, k)
		candidates[k] = t
		overlap := 0
		for _, e := range t.Edges() {
			if l := load(e.Parent, e.Child); l > 0 {
				overlap += l
			}
		}
		return overlap
	})
	return candidates[k], k
}

// SegmentSpans reports, for a tree built over chain by KBinomial, whether
// every subtree spans a contiguous segment of the chain — the structural
// property that makes the tree contention-free on a contention-free
// ordering. It is exported for tests and diagnostics.
func SegmentSpans(t *Tree, chain []int) bool {
	pos := make(map[int]int, len(chain))
	for i, v := range chain {
		pos[v] = i
	}
	ok := true
	var span func(v int) (lo, hi int)
	span = func(v int) (int, int) {
		lo, hi := pos[v], pos[v]
		count := 1
		for _, c := range t.Children(v) {
			clo, chi := span(c)
			if clo < lo {
				lo = clo
			}
			if chi > hi {
				hi = chi
			}
			count += chi - clo + 1
		}
		if hi-lo+1 != count {
			ok = false
		}
		return lo, hi
	}
	span(t.Root())
	return ok
}

func checkChain(chain []int) {
	if len(chain) == 0 {
		panic("tree: empty chain")
	}
	seen := make(map[int]bool, len(chain))
	for _, v := range chain {
		if v < 0 {
			panic(fmt.Sprintf("tree: negative node ID %d", v))
		}
		if seen[v] {
			panic(fmt.Sprintf("tree: duplicate node %d in chain", v))
		}
		seen[v] = true
	}
}
