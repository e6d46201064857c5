// Package netiface models a single smart network interface in isolation:
// a coprocessor draining a send queue at a fixed per-copy cost t_sq, fed
// by a multicast packet stream, under either forwarding discipline (FCFS
// or FPFS).
//
// Its send queue is the order of stepsim's Discipline.Release, the one
// service rule every engine's NI follows; this package exposes the NI
// alone so the Section 3.3 buffer-requirement analysis can be studied and
// tested directly against the closed forms in package analytic, for any
// inter-arrival pattern — including the zero-delay best case the paper
// assumes and the bursty or delayed arrivals it argues make FCFS strictly
// worse.
package netiface

import (
	"fmt"
	"math"

	"repro/internal/stepsim"
)

// Trace is the per-packet residency report of one simulated NI.
type Trace struct {
	Discipline stepsim.Discipline
	Children   int
	Packets    int
	// Arrive[j] is the (given) arrival time of packet j at the NI.
	Arrive []float64
	// FirstServed[j] is when the coprocessor began injecting packet j's
	// first copy.
	FirstServed []float64
	// Freed[j] is when packet j's last copy finished injecting, i.e. when
	// its buffer slot is released.
	Freed []float64
	// Residency[j] = Freed[j] - Arrive[j]: how long the packet occupies NI
	// memory.
	Residency []float64
	// ServiceResidency[j] = Freed[j] - FirstServed[j]: the paper's Section
	// 3.3.2 interval, measured from when the coprocessor reads the packet.
	ServiceResidency []float64
	// PeakBuffered is the largest number of packets simultaneously
	// resident.
	PeakBuffered int
	// Makespan is when the final copy left the NI.
	Makespan float64
}

// MaxResidency returns the largest per-packet residency.
func (t *Trace) MaxResidency() float64 {
	max := 0.0
	for _, r := range t.Residency {
		if r > max {
			max = r
		}
	}
	return max
}

// Forward simulates one intermediate-node NI forwarding an m-packet
// multicast message to c children. arrivals[j] is the time packet j is
// fully received (must be non-decreasing); tsq is the time to inject one
// packet copy. The send queue is served in the order the discipline
// releases copies; an injection cannot start before the packet has arrived.
func Forward(d stepsim.Discipline, c int, arrivals []float64, tsq float64) *Trace {
	if c < 1 {
		panic(fmt.Sprintf("netiface: child count %d < 1", c))
	}
	if len(arrivals) == 0 {
		panic("netiface: no packets")
	}
	if tsq <= 0 {
		panic(fmt.Sprintf("netiface: t_sq %f <= 0", tsq))
	}
	m := len(arrivals)
	for j := 1; j < m; j++ {
		if arrivals[j] < arrivals[j-1] {
			panic(fmt.Sprintf("netiface: arrivals not monotone at %d", j))
		}
	}

	// Conventional host forwarding hands the NI the whole message per
	// child, so its queue is FCFS's with the whole message present.
	rule := d
	if d == stepsim.Conventional {
		rule = stepsim.FCFS
	}
	var queue []stepsim.Copy
	for j := 0; j < m; j++ {
		queue = rule.Release(queue, m, c, j, j == m-1)
	}

	tr := &Trace{
		Discipline:       d,
		Children:         c,
		Packets:          m,
		Arrive:           append([]float64(nil), arrivals...),
		FirstServed:      make([]float64, m),
		Freed:            make([]float64, m),
		Residency:        make([]float64, m),
		ServiceResidency: make([]float64, m),
	}
	copies := make([]int, m)
	now := 0.0
	for _, o := range queue {
		j := o.Packet
		start := math.Max(now, arrivals[j])
		now = start + tsq
		copies[j]++
		if copies[j] == 1 {
			tr.FirstServed[j] = start
		}
		if copies[j] == c {
			tr.Freed[j] = now
		}
	}
	tr.Makespan = now
	for j := 0; j < m; j++ {
		tr.Residency[j] = tr.Freed[j] - arrivals[j]
		tr.ServiceResidency[j] = tr.Freed[j] - tr.FirstServed[j]
	}

	// Peak simultaneous residency: sweep the [arrive, freed) intervals.
	type edge struct {
		t     float64
		delta int
	}
	edges := make([]edge, 0, 2*m)
	for j := 0; j < m; j++ {
		edges = append(edges, edge{arrivals[j], +1}, edge{tr.Freed[j], -1})
	}
	// Insertion sort by time, releases before arrivals at equal times.
	for i := 1; i < len(edges); i++ {
		for k := i; k > 0; k-- {
			a, b := edges[k-1], edges[k]
			if b.t < a.t || (b.t == a.t && b.delta < a.delta) {
				edges[k-1], edges[k] = b, a
			} else {
				break
			}
		}
	}
	cur := 0
	for _, e := range edges {
		cur += e.delta
		if cur > tr.PeakBuffered {
			tr.PeakBuffered = cur
		}
	}
	return tr
}

// ZeroDelayArrivals builds the paper's best-case arrival pattern: all m
// packets available back-to-back starting at time 0 with inter-arrival
// delta (delta = 0 reproduces the Section 3.3.2 assumption exactly).
func ZeroDelayArrivals(m int, delta float64) []float64 {
	if m < 1 {
		panic(fmt.Sprintf("netiface: packet count %d < 1", m))
	}
	if delta < 0 {
		panic(fmt.Sprintf("netiface: negative inter-arrival %f", delta))
	}
	out := make([]float64, m)
	for j := range out {
		out[j] = float64(j) * delta
	}
	return out
}

// PipelineArrivals builds the arrival pattern an intermediate node sees in
// a k-binomial multicast: the parent serves cParent copies per packet, so
// packets arrive every cParent*tsq.
func PipelineArrivals(m, cParent int, tsq float64) []float64 {
	if cParent < 1 {
		panic(fmt.Sprintf("netiface: parent fanout %d < 1", cParent))
	}
	return ZeroDelayArrivals(m, float64(cParent)*tsq)
}
