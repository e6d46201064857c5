package tree

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ktree"
)

func chainN(n int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = i
	}
	return c
}

func TestNewSingleton(t *testing.T) {
	tr := New(7)
	if tr.Root() != 7 || tr.Size() != 1 || tr.Depth() != 0 || tr.RootDegree() != 0 {
		t.Errorf("singleton tree malformed: root=%d size=%d", tr.Root(), tr.Size())
	}
	if err := tr.Validate([]int{7}); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestLinearShape(t *testing.T) {
	tr := Linear(chainN(5))
	if tr.Depth() != 4 || tr.RootDegree() != 1 || tr.MaxDegree() != 1 {
		t.Errorf("linear tree: depth=%d rootDeg=%d maxDeg=%d", tr.Depth(), tr.RootDegree(), tr.MaxDegree())
	}
	for i := 1; i < 5; i++ {
		if p, ok := tr.Parent(i); !ok || p != i-1 {
			t.Errorf("Parent(%d) = %d,%v, want %d", i, p, ok, i-1)
		}
	}
	if err := tr.Validate(chainN(5)); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBinomialShape(t *testing.T) {
	// A binomial tree over 2^d nodes has depth d and root degree d.
	for d := 1; d <= 6; d++ {
		n := 1 << d
		tr := Binomial(chainN(n))
		if err := tr.Validate(chainN(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Depth() != d {
			t.Errorf("n=%d: depth=%d, want %d", n, tr.Depth(), d)
		}
		if tr.RootDegree() != d {
			t.Errorf("n=%d: root degree=%d, want %d", n, tr.RootDegree(), d)
		}
	}
}

func TestKBinomialCoversChainExactly(t *testing.T) {
	for n := 1; n <= 130; n++ {
		for k := 1; k <= 7; k++ {
			tr := KBinomial(chainN(n), k)
			if err := tr.Validate(chainN(n)); err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
		}
	}
}

func TestKBinomialDegreeBound(t *testing.T) {
	// Definition 1: every vertex has at most k children.
	for n := 1; n <= 130; n++ {
		for k := 1; k <= 7; k++ {
			tr := KBinomial(chainN(n), k)
			if d := tr.MaxDegree(); d > k {
				t.Errorf("n=%d k=%d: max degree %d exceeds k", n, k, d)
			}
		}
	}
}

func TestKBinomialDepthMatchesSteps1(t *testing.T) {
	// A single-packet multicast over the constructed tree must complete in
	// Steps1(n,k) steps; since each tree edge consumes at least one step,
	// the tree depth can never exceed Steps1.
	for n := 2; n <= 130; n++ {
		for k := 1; k <= 6; k++ {
			tr := KBinomial(chainN(n), k)
			if d, s := tr.Depth(), ktree.Steps1(n, k); d > s {
				t.Errorf("n=%d k=%d: depth %d > Steps1 %d", n, k, d, s)
			}
		}
	}
}

func TestKBinomialFullTreeShape(t *testing.T) {
	// When n = N(s,k) exactly, the root must have exactly min(s,k) children
	// and the first (earliest-sent) child heads the largest subtree.
	for k := 1; k <= 5; k++ {
		for s := 1; s <= 7; s++ {
			n := ktree.Coverage(s, k)
			if n > 4096 {
				continue
			}
			tr := KBinomial(chainN(n), k)
			wantDeg := k
			if s < k {
				wantDeg = s
			}
			if tr.RootDegree() != wantDeg {
				t.Errorf("k=%d s=%d n=%d: root degree %d, want %d", k, s, n, tr.RootDegree(), wantDeg)
			}
			kids := tr.Children(0)
			sizes := make([]int, len(kids))
			for i, c := range kids {
				sizes[i] = subtreeSize(tr, c)
			}
			for i := 1; i < len(sizes); i++ {
				if sizes[i] > sizes[i-1] {
					t.Errorf("k=%d s=%d: child subtree sizes not non-increasing: %v", k, s, sizes)
				}
			}
		}
	}
}

func TestKBinomialK1IsLinear(t *testing.T) {
	for n := 1; n <= 40; n++ {
		a, b := KBinomial(chainN(n), 1), Linear(chainN(n))
		ea, eb := a.Edges(), b.Edges()
		if len(ea) != len(eb) {
			t.Fatalf("n=%d: edge counts differ", n)
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Errorf("n=%d: edge %d differs: %v vs %v", n, i, ea[i], eb[i])
			}
		}
	}
}

func TestKBinomialLargeKIsBinomial(t *testing.T) {
	// For k >= ceil(log2 n), the k-binomial tree is the binomial tree.
	for n := 2; n <= 64; n++ {
		k := ktree.CeilLog2(n)
		a, b := KBinomial(chainN(n), k), Binomial(chainN(n))
		ea, eb := a.Edges(), b.Edges()
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("n=%d: edge %d differs: %v vs %v", n, i, ea[i], eb[i])
			}
		}
	}
}

func TestSegmentSpansProperty(t *testing.T) {
	// Contention-freeness prerequisite: every subtree spans a contiguous
	// chain segment (Fig. 11).
	for n := 1; n <= 100; n++ {
		for k := 1; k <= 6; k++ {
			tr := KBinomial(chainN(n), k)
			if !SegmentSpans(tr, chainN(n)) {
				t.Errorf("n=%d k=%d: subtree spans non-contiguous segment", n, k)
			}
		}
	}
}

func TestSegmentSpansDetectsViolation(t *testing.T) {
	// A hand-built tree whose subtree {1,3} skips node 2 must fail.
	tr := New(0)
	tr.AddChild(0, 1)
	tr.AddChild(0, 2)
	tr.AddChild(1, 3)
	if SegmentSpans(tr, []int{0, 1, 2, 3}) {
		t.Error("SegmentSpans accepted a non-contiguous subtree")
	}
}

// TestOptimalSelectsK: on an idle fabric the planner selects the paper's k.
func TestOptimalSelectsK(t *testing.T) {
	idle := func(int, int) int { return 0 }
	for _, c := range []struct{ n, m, wantK int }{
		{16, 1, 4}, // binomial for single packet
		{16, 4, 2}, // paper Fig. 12(b)
		{64, 8, 2},
	} {
		chain := chainN(c.n)
		tr, k := OptimalCongested(chain, c.m, idle)
		if k != c.wantK {
			t.Errorf("OptimalCongested(n=%d,m=%d) idle k=%d, want %d", c.n, c.m, k, c.wantK)
		}
		if err := tr.Validate(chain); err != nil {
			t.Errorf("OptimalCongested(n=%d,m=%d): %v", c.n, c.m, err)
		}
	}
	if tr, k := OptimalCongested([]int{9}, 5, idle); k != 1 || tr.Size() != 1 {
		t.Error("OptimalCongested on singleton chain malformed")
	}
}

func TestArbitraryNodeIDs(t *testing.T) {
	// The chain need not be 0..n-1.
	chain := []int{42, 7, 99, 3, 1000, 56, 12}
	tr := KBinomial(chain, 2)
	if err := tr.Validate(chain); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.Root() != 42 {
		t.Errorf("root = %d, want 42", tr.Root())
	}
	if !SegmentSpans(tr, chain) {
		t.Error("segment property violated on arbitrary IDs")
	}
}

func TestEdgesPreorderDeterministic(t *testing.T) {
	chain := chainN(17)
	a := KBinomial(chain, 3).Edges()
	b := KBinomial(chain, 3).Edges()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Edges not deterministic")
		}
	}
	if len(a) != 16 {
		t.Errorf("edge count = %d, want 16", len(a))
	}
}

func TestValidateCatchesMissingParticipant(t *testing.T) {
	tr := Linear([]int{0, 1, 2})
	if err := tr.Validate([]int{0, 1, 2, 3}); err == nil {
		t.Error("Validate accepted missing participant")
	}
	if err := tr.Validate([]int{0, 1}); err == nil {
		t.Error("Validate accepted wrong size")
	}
}

func TestAddChildPanics(t *testing.T) {
	tr := New(0)
	tr.AddChild(0, 1)
	for _, f := range []func(){
		func() { tr.AddChild(5, 2) }, // unknown parent
		func() { tr.AddChild(0, 1) }, // duplicate child
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestConstructorPanics(t *testing.T) {
	for i, f := range []func(){
		func() { Linear(nil) },
		func() { Binomial([]int{}) },
		func() { KBinomial(chainN(4), 0) },
		func() { KBinomial([]int{1, 2, 1}, 2) },
		func() { KBinomial([]int{-1, 2}, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestQuickKBinomialInvariants(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(2 + r.Intn(200)) // n
			vals[1] = reflect.ValueOf(1 + r.Intn(8))   // k
		},
	}
	if err := quick.Check(func(n, k int) bool {
		chain := chainN(n)
		tr := KBinomial(chain, k)
		return tr.Validate(chain) == nil &&
			tr.MaxDegree() <= k &&
			tr.Depth() <= ktree.Steps1(n, k) &&
			SegmentSpans(tr, chain)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func subtreeSize(t *Tree, v int) int {
	n := 1
	for _, c := range t.Children(v) {
		n += subtreeSize(t, c)
	}
	return n
}

func TestSubtreeNodes(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for k := 1; k <= 4; k++ {
			tr := KBinomial(chainN(n), k)
			// The root's subtree is the whole tree, in the same preorder
			// Edges walks.
			all := tr.SubtreeNodes(tr.Root())
			want := []int{tr.Root()}
			for _, e := range tr.Edges() {
				want = append(want, e.Child)
			}
			if !reflect.DeepEqual(all, want) {
				t.Fatalf("n=%d k=%d: root subtree %v, want preorder %v", n, k, all, want)
			}
			// Every node's subtree contains exactly the nodes whose
			// parent chain passes through it, and starts at the node.
			for v := 0; v < n; v++ {
				sub := tr.SubtreeNodes(v)
				if len(sub) == 0 || sub[0] != v {
					t.Fatalf("n=%d k=%d: subtree of %d = %v, must start at %d", n, k, v, sub, v)
				}
				in := make(map[int]bool, len(sub))
				for _, u := range sub {
					in[u] = true
				}
				for u := 0; u < n; u++ {
					want := false
					for w := u; ; {
						if w == v {
							want = true
							break
						}
						p, ok := tr.Parent(w)
						if !ok {
							break
						}
						w = p
					}
					if in[u] != want {
						t.Fatalf("n=%d k=%d: subtree of %d contains %d = %v, want %v", n, k, v, u, in[u], want)
					}
				}
			}
		}
	}
	if got := KBinomial(chainN(5), 2).SubtreeNodes(99); got != nil {
		t.Fatalf("subtree of absent node = %v, want nil", got)
	}
}

func TestOptimalCongestedIdleReducesToOptimal(t *testing.T) {
	idle := func(int, int) int { return 0 }
	for n := 1; n <= 40; n++ {
		for m := 1; m <= 6; m++ {
			k0 := 1 // the singleton chain's trivial tree
			if n > 1 {
				k0, _ = ktree.OptimalK(n, m)
			}
			t0 := KBinomial(chainN(n), k0)
			t1, k1 := OptimalCongested(chainN(n), m, idle)
			if k1 != k0 {
				t.Fatalf("n=%d m=%d: idle congested k=%d, ktree.OptimalK k=%d", n, m, k1, k0)
			}
			e0, e1 := t0.Edges(), t1.Edges()
			if len(e0) != len(e1) {
				t.Fatalf("n=%d m=%d: edge counts differ", n, m)
			}
			for i := range e0 {
				if e0[i] != e1[i] {
					t.Fatalf("n=%d m=%d: edge %d: %v vs %v", n, m, i, e1[i], e0[i])
				}
			}
		}
	}
}

func TestOptimalCongestedMinimizesObjective(t *testing.T) {
	// Load every edge of the idle-optimal tree 50 times over; the planner
	// must pick the k minimizing Steps + overlap, which an exhaustive scan
	// over candidate fanouts verifies (tie-break: larger k, matching
	// ktree.OptimalK).
	for _, n := range []int{5, 8, 13, 24, 40} {
		for _, m := range []int{1, 2, 4, 8} {
			k0, _ := ktree.OptimalK(n, m)
			hot := KBinomial(chainN(n), k0)
			loaded := map[Edge]int{}
			for _, e := range hot.Edges() {
				loaded[e] = 50
			}
			load := func(p, c int) int { return loaded[Edge{p, c}] }
			got, gotK := OptimalCongested(chainN(n), m, load)
			kMax := ktree.CeilLog2(n)
			overlap := func(tr *Tree) int {
				o := 0
				for _, e := range tr.Edges() {
					o += load(e.Parent, e.Child)
				}
				return o
			}
			bestK, best := kMax, ktree.Steps(n, m, kMax)+overlap(KBinomial(chainN(n), kMax))
			for k := kMax - 1; k >= 1; k-- {
				if c := ktree.Steps(n, m, k) + overlap(KBinomial(chainN(n), k)); c < best {
					bestK, best = k, c
				}
			}
			if gotK != bestK {
				t.Fatalf("n=%d m=%d: congested k=%d, exhaustive argmin k=%d", n, m, gotK, bestK)
			}
			if got := ktree.Steps(n, m, gotK) + overlap(got); got != best {
				t.Fatalf("n=%d m=%d: returned tree costs %d, argmin costs %d", n, m, got, best)
			}
			if err := got.Validate(chainN(n)); err != nil {
				t.Fatalf("n=%d m=%d: congested tree invalid: %v", n, m, err)
			}
		}
	}
}

// TestNodesMemoIsInvisible pins the two ways the memoized node list could
// leak: a node added after a Nodes call must show up in the next one, and
// a caller scribbling on a returned slice must not change later results.
func TestNodesMemoIsInvisible(t *testing.T) {
	tr := New(5)
	tr.AddChild(5, 9)
	if got := tr.Nodes(); !reflect.DeepEqual(got, []int{5, 9}) {
		t.Fatalf("Nodes = %v, want [5 9]", got)
	}
	tr.AddChild(9, 2)
	got := tr.Nodes()
	if !reflect.DeepEqual(got, []int{2, 5, 9}) {
		t.Fatalf("Nodes after AddChild = %v, want [2 5 9]", got)
	}
	got[0], got[2] = 99, -1
	if again := tr.Nodes(); !reflect.DeepEqual(again, []int{2, 5, 9}) {
		t.Fatalf("Nodes after caller mutation = %v, want [2 5 9]", again)
	}
	// First calls racing on a cold memo (as live's per-NI goroutines do)
	// must be clean under -race.
	cold := Linear([]int{3, 1, 2})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := cold.Nodes(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
				t.Errorf("concurrent Nodes = %v, want [1 2 3]", got)
			}
		}()
	}
	wg.Wait()
}

// TestFlatMatchesTree holds the flat view to Nodes, Parent and Children,
// and pins its memo the way TestNodesMemoIsInvisible pins Nodes': a node
// added after a Flat call shows up in the next one.
func TestFlatMatchesTree(t *testing.T) {
	check := func(tr *Tree) {
		t.Helper()
		f := tr.Flat()
		if !reflect.DeepEqual(f.Nodes, tr.Nodes()) || len(f.KidsAt) != len(f.Nodes)+1 {
			t.Fatalf("Flat nodes %v (%d offsets), Nodes %v", f.Nodes, len(f.KidsAt), tr.Nodes())
		}
		for i, v := range f.Nodes {
			if p, ok := tr.Parent(v); f.Parent[i] != p || ok != (f.Parent[i] >= 0) {
				t.Fatalf("Flat parent of %d = %d, Parent = %d, %v", v, f.Parent[i], p, ok)
			}
			if kids := f.Kids[f.KidsAt[i]:f.KidsAt[i+1]]; !reflect.DeepEqual(kids, tr.Children(v)) && len(kids)+len(tr.Children(v)) > 0 {
				t.Fatalf("Flat children of %d = %v, Children = %v", v, kids, tr.Children(v))
			}
		}
	}
	chain := []int{7, 3, 11, 0, 5, 9, 2, 8, 4, 6}
	check(KBinomial(chain, 2))
	tr := New(5)
	tr.AddChild(5, 9)
	check(tr)
	tr.AddChild(9, 2)
	tr.AddChild(5, 1)
	check(tr)
}
