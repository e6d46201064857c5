// Package workload provides deterministic random workload generation for
// the multicast experiments: a small seedable RNG, destination-set
// sampling, and the sweep definitions the paper's evaluation uses
// (30 random destination sets on each of 10 random topologies per point).
package workload

import "fmt"

// RNG is a splitmix64 pseudo-random generator. It is tiny, fast, has no
// shared state, and — unlike math/rand's default source — its sequence is
// stable across Go releases, which keeps every experiment reproducible
// from its seed alone.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("workload: Intn(%d)", n))
	}
	// Lemire's multiply-shift rejection method for unbiased bounded draws.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) via Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes s in place.
func (r *RNG) Shuffle(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (aLo*bHi+t&mask)>>32
	return hi, lo
}

// DestSet draws a multicast set over hosts [0, numHosts): a uniform random
// source plus destCount distinct destinations, source excluded. The source
// is element 0 of the returned slice.
func DestSet(r *RNG, numHosts, destCount int) []int {
	if destCount < 1 || destCount >= numHosts {
		panic(fmt.Sprintf("workload: destCount %d out of range for %d hosts", destCount, numHosts))
	}
	p := r.Perm(numHosts)
	set := make([]int, destCount+1)
	copy(set, p[:destCount+1])
	return set
}

// ClusteredDestSetBy draws a multicast set whose destinations occupy as
// few host groups as possible, where groupOf assigns each host to a group
// (e.g. its switch). Groups are visited in random order and drained
// completely before the next group contributes. Element 0 is the source,
// drawn uniformly.
func ClusteredDestSetBy(r *RNG, numHosts, destCount int, groupOf func(int) int) []int {
	if destCount < 1 || destCount >= numHosts {
		panic(fmt.Sprintf("workload: destCount %d out of range for %d hosts", destCount, numHosts))
	}
	source := r.Intn(numHosts)
	members := map[int][]int{}
	var groupIDs []int
	for h := 0; h < numHosts; h++ {
		if h == source {
			continue
		}
		g := groupOf(h)
		if _, ok := members[g]; !ok {
			groupIDs = append(groupIDs, g)
		}
		members[g] = append(members[g], h)
	}
	r.Shuffle(groupIDs)
	set := []int{source}
	for _, g := range groupIDs {
		hosts := members[g]
		r.Shuffle(hosts)
		for _, h := range hosts {
			if len(set) == destCount+1 {
				return set
			}
			set = append(set, h)
		}
	}
	return set
}

// Sweep describes one experiment axis: for every point, Trials destination
// sets are drawn on each of Topologies random networks and the latencies
// averaged. The paper's defaults are 30 trials x 10 topologies.
type Sweep struct {
	Trials     int
	Topologies int
	BaseSeed   uint64
}

// DefaultSweep mirrors the paper's Section 5.2 methodology.
func DefaultSweep() Sweep {
	return Sweep{Trials: 30, Topologies: 10, BaseSeed: 0x9700_1c99}
}

// TopologySeed returns the deterministic seed for topology index t.
func (s Sweep) TopologySeed(t int) uint64 {
	if t < 0 || t >= s.Topologies {
		panic(fmt.Sprintf("workload: topology index %d out of range [0,%d)", t, s.Topologies))
	}
	return s.BaseSeed ^ (0x51_7cc1b7_2722_0a95 * uint64(t+1))
}

// TrialRNG returns the deterministic RNG for trial i on topology t, so each
// (topology, trial) cell is independent of evaluation order.
func (s Sweep) TrialRNG(t, i int) *RNG {
	if i < 0 || i >= s.Trials {
		panic(fmt.Sprintf("workload: trial index %d out of range [0,%d)", i, s.Trials))
	}
	return NewRNG(s.TopologySeed(t) ^ (0xbf58_476d_1ce4_e5b9 * uint64(i+1)))
}
