package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/1000 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared sanity check over 10 buckets; threshold is generous.
	r := NewRNG(99)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 30 { // df=9; 30 is far beyond the 99.9th percentile
		t.Errorf("chi2 = %f, distribution looks non-uniform: %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %f out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %f, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	for _, n := range []int{0, 1, 2, 10, 64} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := NewRNG(11)
	s := []int{5, 6, 7, 8, 9}
	r.Shuffle(s)
	sum := 0
	for _, v := range s {
		sum += v
	}
	if sum != 35 {
		t.Errorf("Shuffle changed multiset: %v", s)
	}
}

func TestDestSetProperties(t *testing.T) {
	r := NewRNG(21)
	for trial := 0; trial < 100; trial++ {
		set := DestSet(r, 64, 15)
		if len(set) != 16 {
			t.Fatalf("DestSet length %d, want 16", len(set))
		}
		seen := map[int]bool{}
		for _, v := range set {
			if v < 0 || v >= 64 || seen[v] {
				t.Fatalf("invalid destination set: %v", set)
			}
			seen[v] = true
		}
	}
}

func TestDestSetCoversAllHostsEventually(t *testing.T) {
	r := NewRNG(77)
	seen := map[int]bool{}
	for trial := 0; trial < 400; trial++ {
		for _, v := range DestSet(r, 16, 7) {
			seen[v] = true
		}
	}
	if len(seen) != 16 {
		t.Errorf("only %d/16 hosts ever sampled", len(seen))
	}
}

func TestSweepSeedsDistinctAndStable(t *testing.T) {
	s := DefaultSweep()
	if s.Trials != 30 || s.Topologies != 10 {
		t.Fatalf("DefaultSweep = %+v, want 30 trials x 10 topologies", s)
	}
	seeds := map[uint64]bool{}
	for i := 0; i < s.Topologies; i++ {
		seed := s.TopologySeed(i)
		if seeds[seed] {
			t.Fatalf("duplicate topology seed at %d", i)
		}
		seeds[seed] = true
		if seed != s.TopologySeed(i) {
			t.Fatal("TopologySeed not stable")
		}
	}
	a := s.TrialRNG(0, 0).Uint64()
	b := s.TrialRNG(0, 1).Uint64()
	c := s.TrialRNG(1, 0).Uint64()
	if a == b || a == c || b == c {
		t.Error("trial RNG streams collide")
	}
	if a != s.TrialRNG(0, 0).Uint64() {
		t.Error("TrialRNG not stable")
	}
}

func TestPanics(t *testing.T) {
	r := NewRNG(1)
	s := DefaultSweep()
	for i, f := range []func(){
		func() { r.Intn(0) },
		func() { r.Intn(-3) },
		func() { DestSet(r, 8, 0) },
		func() { DestSet(r, 8, 8) },
		func() { s.TopologySeed(-1) },
		func() { s.TopologySeed(10) },
		func() { s.TrialRNG(0, 30) },
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

func TestQuickIntnInRange(t *testing.T) {
	r := NewRNG(123)
	if err := quick.Check(func(n uint16) bool {
		nn := int(n%1000) + 1
		v := r.Intn(nn)
		return v >= 0 && v < nn
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestClusteredDestSetProperties(t *testing.T) {
	r := NewRNG(55)
	for trial := 0; trial < 50; trial++ {
		set := ClusteredDestSetBy(r, 64, 15, func(h int) int { return h / 16 })
		if len(set) != 16 {
			t.Fatalf("length %d, want 16", len(set))
		}
		seen := map[int]bool{}
		for _, h := range set {
			if h < 0 || h >= 64 || seen[h] {
				t.Fatalf("invalid clustered set: %v", set)
			}
			seen[h] = true
		}
	}
}

func TestClusteredDestSetIsClustered(t *testing.T) {
	// Destinations clustered by index block must occupy no more groups
	// than strictly necessary (plus one for the partially-filled group).
	r := NewRNG(66)
	const clusterSize = 16
	for trial := 0; trial < 30; trial++ {
		set := ClusteredDestSetBy(r, 64, 15, func(h int) int { return h / clusterSize })
		groups := map[int]bool{}
		for _, h := range set[1:] {
			groups[h/clusterSize] = true
		}
		// 15 dests over groups of ~16 hosts: at most 2 groups (the first
		// group may lose one slot to the source).
		if len(groups) > 2 {
			t.Fatalf("trial %d: %d groups used: %v", trial, len(groups), set)
		}
	}
	// Uniform sets, by contrast, nearly always span 3+ groups.
	spread := 0
	for trial := 0; trial < 30; trial++ {
		set := DestSet(r, 64, 15)
		groups := map[int]bool{}
		for _, h := range set[1:] {
			groups[h/clusterSize] = true
		}
		if len(groups) >= 3 {
			spread++
		}
	}
	if spread < 20 {
		t.Errorf("uniform sets unexpectedly clustered (%d/30 spread)", spread)
	}
}

func TestClusteredDestSetPanics(t *testing.T) {
	r := NewRNG(1)
	for i, f := range []func(){
		func() { ClusteredDestSetBy(r, 8, 0, func(h int) int { return h / 2 }) },
		func() { ClusteredDestSetBy(r, 8, 8, func(h int) int { return h / 2 }) },
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

func TestClusteredDestSetByGroups(t *testing.T) {
	// Group by h%16 (the irregular testbed's switch assignment): 15 dests
	// must land on at most ceil(15/4)=4 switches (4 hosts per switch, one
	// possibly lost to the source).
	r := NewRNG(88)
	for trial := 0; trial < 30; trial++ {
		set := ClusteredDestSetBy(r, 64, 15, func(h int) int { return h % 16 })
		groups := map[int]bool{}
		for _, h := range set[1:] {
			groups[h%16] = true
		}
		if len(groups) > 5 {
			t.Fatalf("trial %d: %d switches used: %v", trial, len(groups), set)
		}
	}
}
