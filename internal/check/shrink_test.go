package check

import (
	"testing"
)

// withSyntheticInvariant temporarily appends a fake invariant to the
// catalogue so the shrinker can be tested without breaking a real engine.
func withSyntheticInvariant(t *testing.T, inv Invariant, body func()) {
	t.Helper()
	Invariants = append(Invariants, inv)
	defer func() { Invariants = Invariants[:len(Invariants)-1] }()
	body()
}

// TestShrinkMinimizes plants a synthetic "bug" that fires whenever the
// instance still has at least 4 hosts and 2 packets, and checks the greedy
// shrinker drives a large failing instance down to (close to) that boundary
// — the same contract the acceptance criterion demands of a real off-by-one.
func TestShrinkMinimizes(t *testing.T) {
	synthetic := Invariant{
		ID:  "synthetic-bug",
		Doc: "fires on >=4 hosts and >=2 packets (shrinker test only)",
		Check: func(w *world) error {
			if w.inst.Hosts() >= 4 && w.inst.Packets >= 2 {
				return errBug
			}
			return nil
		},
	}
	withSyntheticInvariant(t, synthetic, func() {
		var big Instance
		for c := 0; ; c++ {
			big = Generate(11, c)
			if big.Hosts() >= 12 && big.Packets >= 4 {
				break
			}
		}
		small := Shrink(big, "synthetic-bug")
		if err := small.Validate(); err != nil {
			t.Fatalf("shrunk instance invalid: %v\n  %s", err, small)
		}
		// The shrunk instance must still reproduce the violation...
		if !hasViolation(Check(small), "synthetic-bug") {
			t.Fatalf("shrunk instance no longer fails: %s", small)
		}
		// ...and be minimal enough to read at a glance.
		if small.Hosts() > 8 || small.Packets > 3 {
			t.Fatalf("shrink left %d hosts, %d packets (want <=8, <=3): %s",
				small.Hosts(), small.Packets, small)
		}
		if small.DropRate != 0 || small.PayloadBytes != 0 {
			t.Fatalf("shrink kept an irrelevant fault plan / payload: %s", small)
		}
	})
}

// TestShrinkDeterministic pins that shrinking is a pure function of the
// starting instance — the other half of the replay-token contract.
func TestShrinkDeterministic(t *testing.T) {
	synthetic := Invariant{
		ID:  "synthetic-det",
		Doc: "fires on >=3 hosts (shrinker test only)",
		Check: func(w *world) error {
			if w.inst.Hosts() >= 3 {
				return errBug
			}
			return nil
		},
	}
	withSyntheticInvariant(t, synthetic, func() {
		big := Generate(5, 9)
		a := Shrink(big, "synthetic-det")
		b := Shrink(big, "synthetic-det")
		if a.String() != b.String() {
			t.Fatalf("shrink not deterministic:\n  %s\n  %s", a, b)
		}
	})
}

// TestShrinkNoReproduction checks the degenerate case: if no mutation
// reproduces the violation, the shrinker returns the original instance.
func TestShrinkNoReproduction(t *testing.T) {
	inst := Generate(1, 0) // passes the whole catalogue (TestSweep)
	got := Shrink(inst, "theorem2-bound")
	if got.String() != inst.String() {
		t.Fatalf("shrink of a passing instance changed it:\n  %s\n  %s", inst, got)
	}
}

// TestCandidatesValidOrRejected checks every proposed mutation either
// passes Validate or is cleanly rejected — the shrinker must never panic on
// its own candidates.
func TestCandidatesValidOrRejected(t *testing.T) {
	for c := 0; c < 25; c++ {
		inst := Generate(2, c)
		for _, cand := range candidates(inst) {
			if err := cand.Validate(); err != nil {
				continue // rejected, fine
			}
			// A panic while building is what Check reports as build-panic.
			if _, err := safeBuild(cand); err != nil {
				t.Fatalf("valid candidate panics on build: %s\n  from: %s\n  %v", cand, inst, err)
			}
		}
	}
}

// TestClampK pins that an oversized fanout bound is pulled back to the
// binomial bound when the destination set shrinks.
func TestClampK(t *testing.T) {
	inst := Instance{Dests: []int{1, 2, 3}, K: 9} // n=4, ceil(log2 4)=2
	if got := clampK(inst).K; got != 2 {
		t.Fatalf("clampK left k=%d, want 2", got)
	}
	inst = Instance{Dests: []int{1}, K: 1} // already minimal
	if got := clampK(inst).K; got != 1 {
		t.Fatalf("clampK changed a minimal k to %d", got)
	}
}

func hasViolation(vs []Violation, id string) bool {
	for _, v := range vs {
		if v.ID == id {
			return true
		}
	}
	return false
}

// errBug is the synthetic invariant failure used by the shrinker tests.
var errBug = errSentinel("synthetic failure")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }
