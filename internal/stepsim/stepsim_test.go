package stepsim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ktree"
	"repro/internal/tree"
)

func chainN(n int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = i
	}
	return c
}

func TestFig5BinomialVsLinear(t *testing.T) {
	// Paper Fig. 5: 3-packet message to 3 destinations. Binomial tree takes
	// 6 steps, linear tree takes 5 steps under FPFS.
	bin := tree.Binomial(chainN(4))
	lin := tree.Linear(chainN(4))
	if got := Steps(bin, 3, FPFS); got != 6 {
		t.Errorf("binomial FPFS steps = %d, want 6", got)
	}
	if got := Steps(lin, 3, FPFS); got != 5 {
		t.Errorf("linear FPFS steps = %d, want 5", got)
	}
}

func TestFig8PipelinedBreakup(t *testing.T) {
	// Paper Fig. 8: 3-packet multicast to 7 destinations over a binomial
	// tree completes in 9 steps; each packet lags the previous by exactly
	// 3 steps (the root's child count).
	bin := tree.Binomial(chainN(8))
	s := Run(bin, 3, FPFS)
	if s.TotalSteps != 9 {
		t.Errorf("total steps = %d, want 9", s.TotalSteps)
	}
	if got := s.PacketDone(0); got != 3 {
		t.Errorf("packet 0 done at %d, want 3", got)
	}
	for i, lag := range s.Lags() {
		if lag != 3 {
			t.Errorf("lag %d = %d, want 3", i, lag)
		}
	}
}

func TestSinglePacketEqualsSteps1(t *testing.T) {
	// m = 1: the schedule must complete in exactly Steps1(n, k) steps for
	// full k-binomial trees.
	for k := 1; k <= 5; k++ {
		for n := 2; n <= 120; n++ {
			tr := tree.KBinomial(chainN(n), k)
			got := Steps(tr, 1, FPFS)
			want := ktree.Steps1(n, k)
			if got != want {
				t.Errorf("n=%d k=%d: single-packet steps = %d, want %d", n, k, got, want)
			}
		}
	}
}

func TestTheorem1LagEqualsRootDegree(t *testing.T) {
	// Theorem 1: under FPFS on a full k-binomial tree (n = N(s,k), s >= k,
	// so the root is the bottleneck with c_R = k), successive packet
	// completions are separated by exactly c_R steps.
	for k := 1; k <= 5; k++ {
		for s := k; s <= k+4; s++ {
			n := ktree.Coverage(s, k)
			if n > 2048 {
				break
			}
			tr := tree.KBinomial(chainN(n), k)
			if tr.RootDegree() != k {
				t.Fatalf("n=%d k=%d s=%d: full tree root degree %d != k", n, k, s, tr.RootDegree())
			}
			sched := Run(tr, 5, FPFS)
			for i, lag := range sched.Lags() {
				if lag != k {
					t.Errorf("n=%d k=%d: lag %d = %d, want c_R=%d", n, k, i, lag, k)
				}
			}
		}
	}
}

func TestTheorem2TotalSteps(t *testing.T) {
	// Theorem 2: total steps = t1 + (m-1)*c_R on full k-binomial trees.
	// (On clamped trees — n < N(s,k) — the bottleneck vertex may sit below
	// the root and the paper's t1+(m-1)*k remains an upper bound; see
	// TestModelUpperBoundsSchedule.)
	for k := 1; k <= 5; k++ {
		for s := k; s <= k+4; s++ {
			n := ktree.Coverage(s, k)
			if n > 2048 {
				break
			}
			tr := tree.KBinomial(chainN(n), k)
			t1 := Steps(tr, 1, FPFS)
			if t1 != s {
				t.Fatalf("n=%d k=%d: t1=%d, want %d", n, k, t1, s)
			}
			for _, m := range []int{1, 2, 3, 8} {
				got := Steps(tr, m, FPFS)
				want := t1 + (m-1)*k
				if got != want {
					t.Errorf("n=%d k=%d m=%d: steps = %d, want t1+(m-1)cR = %d", n, k, m, got, want)
				}
			}
		}
	}
}

func TestTheorem3OptimalityAgainstSchedule(t *testing.T) {
	// The k chosen by ktree.OptimalK must produce a schedule at least as
	// fast as every other k-binomial tree (measured, not modeled).
	for _, n := range []int{4, 8, 16, 23, 32, 48, 64} {
		for _, m := range []int{1, 2, 4, 8, 16} {
			kOpt, _ := ktree.OptimalK(n, m)
			opt := Steps(tree.KBinomial(chainN(n), kOpt), m, FPFS)
			for k := 1; k <= ktree.CeilLog2(n); k++ {
				s := Steps(tree.KBinomial(chainN(n), k), m, FPFS)
				if s < opt {
					t.Errorf("n=%d m=%d: k=%d schedule (%d) beats optimal k=%d (%d)",
						n, m, k, s, kOpt, opt)
				}
			}
		}
	}
}

func TestModelUpperBoundsSchedule(t *testing.T) {
	// The paper's objective t1(k)+(m-1)k is an upper bound on the measured
	// schedule (the constructed root may have fewer than k children).
	for n := 2; n <= 80; n++ {
		for k := 1; k <= 6; k++ {
			for _, m := range []int{1, 3, 7} {
				got := Steps(tree.KBinomial(chainN(n), k), m, FPFS)
				bound := ktree.Steps(n, m, k)
				if got > bound {
					t.Errorf("n=%d k=%d m=%d: schedule %d exceeds model bound %d", n, k, m, got, bound)
				}
			}
		}
	}
}

func TestFPFSNeverSlowerThanFCFS(t *testing.T) {
	// FPFS forwards each packet at the earliest opportunity; FCFS delays
	// later children until the whole message has passed to earlier ones.
	for _, n := range []int{2, 4, 8, 16, 31, 64} {
		for k := 1; k <= 5; k++ {
			for _, m := range []int{1, 2, 5, 9} {
				tr := tree.KBinomial(chainN(n), k)
				fp := Steps(tr, m, FPFS)
				fc := Steps(tr, m, FCFS)
				if fp > fc {
					t.Errorf("n=%d k=%d m=%d: FPFS (%d) slower than FCFS (%d)", n, k, m, fp, fc)
				}
			}
		}
	}
}

func TestConventionalSlowestOnDeepTrees(t *testing.T) {
	// Whole-message store-and-forward at every level must be at least as
	// slow as FPFS, and strictly slower whenever an intermediate node has
	// to forward a multi-packet message.
	for _, n := range []int{4, 8, 16, 32} {
		tr := tree.Binomial(chainN(n))
		m := 4
		conv := Steps(tr, m, Conventional)
		fpfs := Steps(tr, m, FPFS)
		if conv <= fpfs {
			t.Errorf("n=%d: conventional (%d) not slower than FPFS (%d)", n, conv, fpfs)
		}
	}
	// Star tree (depth 1): no intermediate forwarding, so they tie.
	star := tree.New(0)
	for i := 1; i < 5; i++ {
		star.AddChild(0, i)
	}
	if c, f := Steps(star, 3, Conventional), Steps(star, 3, FPFS); c != f {
		t.Errorf("star: conventional %d != FPFS %d", c, f)
	}
}

func TestArrivalsInOrder(t *testing.T) {
	// Packets must arrive in index order at every node, whatever the
	// discipline.
	for _, d := range []Discipline{FPFS, FCFS, Conventional} {
		tr := tree.KBinomial(chainN(33), 3)
		s := Run(tr, 6, d)
		for v, arr := range s.Arrival {
			for j := 1; j < len(arr); j++ {
				if arr[j] < arr[j-1] {
					t.Errorf("%v: node %d: packet %d arrives (%d) before packet %d (%d)",
						d, v, j, arr[j], j-1, arr[j-1])
				}
			}
		}
	}
}

func TestNISerialInvariant(t *testing.T) {
	// No NI may inject two packets during the same step.
	for _, d := range []Discipline{FPFS, FCFS, Conventional} {
		tr := tree.KBinomial(chainN(40), 2)
		s := Run(tr, 5, d)
		busy := map[[2]int]bool{} // (sender, step)
		for _, snd := range s.Sends {
			key := [2]int{snd.From, snd.Step}
			if busy[key] {
				t.Fatalf("%v: node %d injected twice in step %d", d, snd.From, snd.Step)
			}
			busy[key] = true
		}
	}
}

func TestCausalityInvariant(t *testing.T) {
	// No node may forward a packet before the step after it arrived.
	for _, d := range []Discipline{FPFS, FCFS, Conventional} {
		tr := tree.KBinomial(chainN(50), 3)
		s := Run(tr, 4, d)
		root := tr.Root()
		for _, snd := range s.Sends {
			if snd.From == root {
				continue
			}
			arr := s.Arrival[snd.From][snd.Packet]
			if snd.Step <= arr {
				t.Fatalf("%v: node %d forwarded packet %d at step %d but received it at %d",
					d, snd.From, snd.Packet, snd.Step, arr)
			}
		}
	}
}

func TestSendCountExact(t *testing.T) {
	// Every discipline performs exactly (n-1)*m sends: one per edge per
	// packet.
	for _, d := range []Discipline{FPFS, FCFS, Conventional} {
		for _, n := range []int{2, 7, 16} {
			for _, m := range []int{1, 4} {
				tr := tree.KBinomial(chainN(n), 2)
				s := Run(tr, m, d)
				if want := (n - 1) * m; len(s.Sends) != want {
					t.Errorf("%v n=%d m=%d: %d sends, want %d", d, n, m, len(s.Sends), want)
				}
			}
		}
	}
}

func TestDisciplineString(t *testing.T) {
	if FPFS.String() != "FPFS" || FCFS.String() != "FCFS" || Conventional.String() != "Conventional" {
		t.Error("Discipline.String mismatch")
	}
	if Discipline(9).String() != "Discipline(9)" {
		t.Error("unknown Discipline.String mismatch")
	}
}

func TestRunPanics(t *testing.T) {
	tr := tree.Linear(chainN(3))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for m=0")
			}
		}()
		Run(tr, 0, FPFS)
	}()
	s := Run(tr, 2, FPFS)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range packet")
			}
		}()
		s.PacketDone(5)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for an unknown discipline")
			}
		}()
		Steps(tree.KBinomial(chainN(10), 2), 4, Discipline(9))
	}()
}

// TestReleaseOrder holds the service rule to the explicit enumerations:
// called for packets 0..m-1 in order, FPFS and Conventional release
// packet-major, FCFS child-major, and appending allocates nothing.
func TestReleaseOrder(t *testing.T) {
	for m := 1; m <= 5; m++ {
		for c := 0; c <= 5; c++ {
			var packetMajor, childMajor []Copy
			for j := 0; j < m; j++ {
				for ci := 0; ci < c; ci++ {
					packetMajor = append(packetMajor, Copy{int32(j), int32(ci)})
				}
			}
			for ci := 0; ci < c; ci++ {
				for j := 0; j < m; j++ {
					childMajor = append(childMajor, Copy{int32(j), int32(ci)})
				}
			}
			for d, want := range map[Discipline][]Copy{FPFS: packetMajor, FCFS: childMajor, Conventional: packetMajor} {
				got := make([]Copy, 0, m*c)
				allocs := testing.AllocsPerRun(1, func() {
					got = got[:0]
					for j := 0; j < m; j++ {
						got = d.Release(got, m, c, j, j == m-1)
					}
				})
				if !slices.Equal(got, want) || allocs != 0 {
					t.Errorf("%v m=%d c=%d: released %v (%v allocs), want %v", d, m, c, got, allocs, want)
				}
			}
		}
	}
}

func TestQuickScheduleInvariants(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(2 + r.Intn(100)) // n
			vals[1] = reflect.ValueOf(1 + r.Intn(6))   // k
			vals[2] = reflect.ValueOf(1 + r.Intn(10))  // m
		},
	}
	if err := quick.Check(func(n, k, m int) bool {
		tr := tree.KBinomial(chainN(n), k)
		s := Run(tr, m, FPFS)
		// Completion is monotone in m and bounded by the model.
		return s.TotalSteps <= ktree.Steps(n, m, k) &&
			s.TotalSteps >= ktree.Steps1(n, ktree.CeilLog2(max(n, 2))) // can't beat binomial t1 lower bound
	}, cfg); err != nil {
		t.Error(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
