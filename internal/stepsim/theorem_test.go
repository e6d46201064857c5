package stepsim

import (
	"testing"

	"repro/internal/ktree"
	"repro/internal/tree"
)

// orderedTrees returns every ordered tree on the nodes 0..n-1, numbered in
// preorder: node i hangs off a node on the rightmost path of the tree
// over 0..i-1, and the choices enumerate the Catalan(n-1) shapes.
func orderedTrees(n int) []*tree.Tree {
	var out []*tree.Tree
	parent := make([]int, n)
	var grow func(i int, path []int)
	grow = func(i int, path []int) {
		if i == n {
			t := tree.New(0)
			for v := 1; v < n; v++ {
				t.AddChild(parent[v], v)
			}
			out = append(out, t)
			return
		}
		for d := range path {
			parent[i] = path[d]
			grow(i+1, append(path[:d+1:d+1], i))
		}
	}
	grow(1, []int{0})
	return out
}

// TestTheorem3AgainstEveryTree runs FPFS over every ordered tree with
// 2 <= n <= 10 nodes (6,917 trees) at m in {1, 2, 3, 4, 6, 8, 16, 32}, and
// checks what the paper's title claims beyond the k-binomial family:
//   - (i) no tree beats Theorem 3: the fewest steps over all trees are
//     ktree.OptimalK's, and tree.KBinomial at that k takes them;
//   - (ii) Theorems 1-2's Steps(tr, 1) + (m-1)*c_R is exact, c_R the
//     root's fan-out, on every tree whose root has the largest fan-out.
//
// A counterexample is a finding about the paper (EXPERIMENTS.md), never a
// reason to loosen this test.
func TestTheorem3AgainstEveryTree(t *testing.T) {
	ms := []int{1, 2, 3, 4, 6, 8, 16, 32}
	for n := 2; n <= 10; n++ {
		trees := orderedTrees(n)
		steps1 := make([]int, len(trees))
		for i, tr := range trees {
			steps1[i] = Steps(tr, 1, FPFS)
		}
		for _, m := range ms {
			best := -1
			for i, tr := range trees {
				s := Steps(tr, m, FPFS)
				if best < 0 || s < best {
					best = s
				}
				if d := tr.RootDegree(); d == tr.MaxDegree() && s != steps1[i]+(m-1)*d {
					t.Errorf("n=%d m=%d tree %v: %d steps, Theorems 1-2 say %d+%d*%d", n, m, tr.Edges(), s, steps1[i], m-1, d)
				}
			}
			k, opt := ktree.OptimalK(n, m)
			if best != opt {
				t.Errorf("n=%d m=%d: the best of all trees takes %d steps, Theorem 3's k=%d %d", n, m, best, k, opt)
			}
			if s := Steps(tree.KBinomial(chainN(n), k), m, FPFS); s != opt {
				t.Errorf("n=%d m=%d: the %d-binomial tree takes %d steps, Theorem 3 says %d", n, m, k, s, opt)
			}
		}
	}
}
