package flitsim

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"repro/internal/netiface"
	"repro/internal/routing"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/tree"
	"repro/internal/workload"
)

var disciplines = []stepsim.Discipline{stepsim.FPFS, stepsim.FCFS, stepsim.Conventional}

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

// flitShape is one multicast of TestFlitConservationOnMesh or
// TestMulticastCompletesAllShapes.
type flitShape struct {
	name string
	r    routing.Router
	tr   *tree.Tree
	m    int
	p    Params
}

// flitShapes returns three of the shapes this package's tests run, the
// cheapest on which FCFS and FPFS differ.
func flitShapes() []flitShape {
	p := DefaultParams()
	net := topology.Mesh(4, 2)
	out := []flitShape{{"mesh", routing.NewMeshDimOrder(net, 4, 2), tree.KBinomial([]int{0, 5, 10, 15, 3, 12}, 2), 3, p}}
	_, r, o := testSystem(2)
	rng := workload.NewRNG(7)
	for trial := 0; trial < 6; trial++ {
		destCount := 3 + rng.Intn(12)
		m := 1 + rng.Intn(4)
		k := 1 + rng.Intn(4)
		set := workload.DestSet(rng, 64, destCount)
		if trial == 3 || trial == 5 {
			out = append(out, flitShape{fmt.Sprintf("all-shapes-%d", trial), r, tree.KBinomial(o.Chain(set[0], set[1:]), k), m, p})
		}
	}
	return out
}

// serviceDigest renders what the engines' NI service order decides:
// stepsim's sends over every ordered tree with n <= 7 nodes (one hash per
// n, m and discipline), netiface's trace for 1-4 children and 1-8 packets
// under back-to-back and pipelined arrivals (one hash per case), and
// flitsim's completion on three of the shapes its tests run.
func serviceDigest() []string {
	var lines []string
	for n := 1; n <= 7; n++ {
		trees := orderedTrees(n)
		for _, m := range []int{1, 2, 3, 5} {
			for _, d := range disciplines {
				h := sha256.New()
				for _, tr := range trees {
					fmt.Fprintln(h, stepsim.Run(tr, m, d).Sends)
				}
				lines = append(lines, fmt.Sprintf("stepsim n=%d trees=%d m=%d %v %x", n, len(trees), m, d, h.Sum(nil)[:8]))
			}
		}
	}
	const tsq = 1.5
	for _, pattern := range []string{"zero-delay", "pipelined"} {
		for c := 1; c <= 4; c++ {
			for m := 1; m <= 8; m++ {
				arr := netiface.ZeroDelayArrivals(m, 0)
				if pattern == "pipelined" {
					arr = netiface.PipelineArrivals(m, 2, tsq)
				}
				for _, d := range disciplines {
					sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *netiface.Forward(d, c, arr, tsq))))
					lines = append(lines, fmt.Sprintf("netiface %s c=%d m=%d %v %x", pattern, c, m, d, sum[:8]))
				}
			}
		}
	}
	for _, s := range flitShapes() {
		for _, d := range disciplines {
			res := MulticastDisc(s.r, s.tr, s.m, s.p, d)
			lines = append(lines, fmt.Sprintf("flitsim %s m=%d %v cycles=%d hold=%d done=%v", s.name, s.m, d, res.Cycles, res.PeakChannelHold, res.HostDone))
		}
	}
	return lines
}

// TestServiceDigest holds the (packet, child) order in which the NIs of
// stepsim, netiface and flitsim serve their copies, under all three
// disciplines, to testdata/service-digest.txt. It was recorded before
// those engines took their order from stepsim's one release rule, and
// that change left it byte-identical. Never rewrite it for a change that
// moves a line.
func TestServiceDigest(t *testing.T) {
	f, err := os.Open("testdata/service-digest.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	got := serviceDigest()
	if len(got) != len(want) {
		t.Fatalf("%d lines, the pin has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}
