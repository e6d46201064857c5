package check

import (
	"sync/atomic"
	"testing"
)

// TestLiveInvariant250Cases is the differential acceptance gate for the
// live runtime: 250 seeded harness instances, each executed on real
// goroutine NIs and compared structurally against the FPFS step schedule
// (delivery order, parent edges, send/receive counts). CI runs the check
// package under -race, so this doubles as a concurrency validator.
func TestLiveInvariant250Cases(t *testing.T) {
	inv, ok := InvariantByID("live-matches-sim")
	if !ok {
		t.Fatal("live-matches-sim invariant not registered")
	}
	const cases = 250
	failed := 0
	for c := 0; c < cases; c++ {
		inst := Generate(3, c)
		w, err := safeBuild(inst)
		if err != nil {
			t.Fatalf("case %d: build: %v", c, err)
		}
		if err := safeCheck(inv, w); err != nil {
			failed++
			t.Errorf("case %d (replay: mcastcheck -seed 3 -case %d): %v", c, c, err)
			if failed >= 5 {
				t.Fatal("stopping after 5 differential failures")
			}
		}
	}
}

// TestLiveInvariantConfigSpread pins the deterministic config derivation:
// the sweep must exercise both bounded and unbounded buffers.
func TestLiveInvariantConfigSpread(t *testing.T) {
	bounded, unbounded := 0, 0
	for c := 0; c < 64; c++ {
		cfg := Generate(3, c).liveConfig()
		if cfg.BufferPackets == 0 {
			unbounded++
		} else {
			bounded++
		}
	}
	if bounded == 0 || unbounded == 0 {
		t.Fatalf("config derivation is degenerate: %d bounded / %d unbounded", bounded, unbounded)
	}
}

// virtualSeed numbers the runs of TestVirtualMatchesSimSoak in one test
// binary, so each `go test -count=N` pass sweeps a fresh seed: tier-1's
// one run sweeps seed 1001 and `make virtual-soak`'s -count=20 1001-1020.
var virtualSeed atomic.Int64

// TestVirtualMatchesSimSoak is the plain-session arm of make virtual-soak:
// virtual-matches-sim on 1,000 cases of the next seed, each two contending
// plain sessions on the live data plane in virtual time over the switched
// network, equal to sim to the nanosecond. A failure replays from its
// mcastcheck token.
func TestVirtualMatchesSimSoak(t *testing.T) {
	inv, ok := InvariantByID("virtual-matches-sim")
	if !ok {
		t.Fatal("virtual-matches-sim invariant not registered")
	}
	seed := uint64(1000 + virtualSeed.Add(1))
	for c := 0; c < 1000; c++ {
		w, err := safeBuild(Generate(seed, c))
		if err != nil {
			t.Fatalf("case %d: build: %v", c, err)
		}
		if err := safeCheck(inv, w); err != nil {
			t.Fatalf("replay: mcastcheck -seed %d -case %d: %v", seed, c, err)
		}
	}
}
