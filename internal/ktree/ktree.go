// Package ktree implements the core mathematics of the k-binomial multicast
// tree from Kesavan & Panda, "Optimal Multicast with Packetization and
// Network Interface Support" (ICPP 1997).
//
// A k-binomial tree is a recursively doubling multicast tree in which every
// vertex has at most k children. Under the First-Packet-First-Served (FPFS)
// smart network interface discipline, an m-packet multicast over a tree T
// completes in
//
//	t1(T) + (m-1) * cR(T)
//
// steps, where t1 is the number of steps for a single-packet multicast and
// cR is the number of children of the root (Theorems 1 and 2 of the paper).
// The k-binomial tree minimizing that expression over k in [1, ceil(log2 n)]
// is the optimal multicast tree (Theorem 3).
package ktree

import (
	"fmt"
	"math"
	"math/bits"
)

// Coverage returns N(s, k): the number of nodes (including the source)
// covered in s steps by a k-binomial tree (Lemma 1 of the paper):
//
//	N(s, k) = 2^s                          if s <= k
//	N(s, k) = 1 + sum_{i=1..k} N(s-i, k)   if s >  k
//
// Values saturate at math.MaxInt, a size no in-memory chain can reach.
//
// Coverage panics if s < 0 or k < 1.
func Coverage(s, k int) int {
	if s < 0 {
		panic(fmt.Sprintf("ktree: negative step count %d", s))
	}
	if k < 1 {
		panic(fmt.Sprintf("ktree: invalid fanout bound k=%d", k))
	}
	if s <= k {
		return pow2(s)
	}
	_, n := climb(k, s, math.MaxInt)
	return n
}

// Steps1 returns t1(n, k): the minimum number of steps for a single-packet
// multicast to reach n nodes (source included) with a k-binomial tree, i.e.
// the smallest s with N(s, k) >= n.
//
// Steps1 panics if n < 1 or k < 1.
func Steps1(n, k int) int {
	if n < 1 {
		panic(fmt.Sprintf("ktree: invalid multicast set size n=%d", n))
	}
	if k < 1 {
		panic(fmt.Sprintf("ktree: invalid fanout bound k=%d", k))
	}
	// Within the binomial prefix (s <= k), N doubles every step.
	if n <= pow2(k) {
		return CeilLog2(n)
	}
	s, _ := climb(k, math.MaxInt, n)
	return s
}

// climb advances the Lemma-1 recurrence past the binomial prefix: from
// the window N(1..k, k) = 2^1..2^k it computes N(step, k) for step = k+1,
// k+2, ... and returns the first step, with its coverage, at which
// step == s or N(step, k) >= n. Coverage grows strictly until it
// saturates at math.MaxInt, so climb returns for every n.
func climb(k, s, n int) (step, cover int) {
	// window holds N(step-k .. step-1, k).
	window := make([]int, k)
	for i := range window {
		window[i] = pow2(i + 1)
	}
	for step = k + 1; ; step++ {
		cover = 1
		for _, v := range window {
			if v > math.MaxInt-cover {
				cover = math.MaxInt
				break
			}
			cover += v
		}
		if step == s || cover >= n {
			return step, cover
		}
		copy(window, window[1:])
		window[k-1] = cover
	}
}

// pow2 returns 2^s saturated at math.MaxInt.
func pow2(s int) int {
	if s >= bits.UintSize-1 {
		return math.MaxInt
	}
	return 1 << s
}

// Steps returns the total number of steps for an m-packet multicast to n
// nodes using a k-binomial tree under the FPFS discipline, per Theorem 2:
// t1(n,k) + (m-1)*k.
//
// The paper's objective charges the full fanout bound k as the pipeline
// interval even when the constructed root has fewer children; see
// ScheduledSteps in package tree for the achieved value.
func Steps(n, m, k int) int {
	if m < 1 {
		panic(fmt.Sprintf("ktree: invalid packet count m=%d", m))
	}
	return Steps1(n, k) + (m-1)*k
}

// CeilLog2 returns ceil(log2(n)) for n >= 1.
func CeilLog2(n int) int {
	if n < 1 {
		panic(fmt.Sprintf("ktree: CeilLog2 of %d", n))
	}
	if n == 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// OptimalK returns the fanout bound k minimizing the m-packet FPFS step
// count Steps(n, m, k) over k in [1, ceil(log2 n)], together with that
// minimum step count (Theorem 3). Ties are broken toward the larger k,
// which matches the paper's Fig. 12(a) anchor that m = 1 always selects
// the binomial tree (k = ceil(log2 n)); smaller tied k would minimize the
// same objective with less NI buffer residency, a trade-off callers can
// make themselves via Steps.
//
// n is the multicast set size including the source; n >= 2 and m >= 1.
func OptimalK(n, m int) (k, steps int) {
	return argminK(n, m, func(k int) int { return Steps(n, m, k) })
}

// OptimalKPenalized generalizes OptimalK to the simultaneous-multicast
// objective (Haeupler/Hershkowitz/Wajc): it selects the fanout bound k
// minimizing Steps(n, m, k) + penalty(k), where penalty charges a
// candidate plan for the congestion it would add to traffic already in
// flight (typically: steps-per-overlapped-edge against the trees of the
// sessions a scheduler currently runs). penalty must be non-negative;
// a zero penalty function reduces exactly to OptimalK, including its
// larger-k tie-break.
func OptimalKPenalized(n, m int, penalty func(k int) int) (k, cost int) {
	return argminK(n, m, func(k int) int {
		p := penalty(k)
		if p < 0 {
			panic(fmt.Sprintf("ktree: negative congestion penalty %d at k=%d", p, k))
		}
		return Steps(n, m, k) + p
	})
}

// argminK is the Theorem 3 search: it scans k = ceil(log2 n) down to 1
// and returns the k of least cost(k) with that cost. The strict
// comparison keeps the larger k on ties.
func argminK(n, m int, cost func(k int) int) (k, best int) {
	if n < 2 {
		panic(fmt.Sprintf("ktree: optimal-k search needs n >= 2, got %d", n))
	}
	if m < 1 {
		panic(fmt.Sprintf("ktree: optimal-k search needs m >= 1, got %d", m))
	}
	k = CeilLog2(n)
	best = cost(k)
	for c := k - 1; c >= 1; c-- {
		if v := cost(c); v < best {
			k, best = c, v
		}
	}
	return k, best
}

// CrossoverM returns the smallest packet count m at which the linear chain
// (k = 1) becomes an optimal tree for multicast set size n. The paper notes
// (Section 5.1) that this crossover arrives sooner for smaller n.
func CrossoverM(n int) int {
	if n < 2 {
		panic(fmt.Sprintf("ktree: CrossoverM needs n >= 2, got %d", n))
	}
	for m := 1; ; m++ {
		if k, _ := OptimalK(n, m); k == 1 {
			return m
		}
	}
}
