// Package sim is a deterministic discrete-event simulator of packetized
// multicast over switch-based wormhole networks with network-interface
// (NI) support, in continuous time (microseconds).
//
// The model follows the paper's cost structure:
//
//   - the source host pays the software start-up overhead t_s once to move
//     the message into its NI;
//   - every packet copy costs the sending NI t_ns of injection overhead
//     (NIs are serial servers);
//   - a packet then occupies its route's directed channels wormhole-style:
//     channel i of the path is held during [T + i*routerDelay,
//     T + i*routerDelay + wireTime], where T is the earliest time every
//     channel on the path is free (contention = waiting for the
//     latest-freed channel);
//   - the receiving NI pays t_nr per packet;
//   - each destination host pays the software receive overhead t_r once,
//     after its last packet arrives.
//
// Forwarding at intermediate nodes follows one of the three disciplines of
// the paper: smart FPFS, smart FCFS, or conventional host-level
// store-and-forward. NI buffer residency is tracked per node so the
// Section 3.3.2 buffer-requirement comparison can be measured rather than
// merely derived.
//
// The package has one packet-level session model and two schedulers for
// it. The model (model.go) is the dense per-session tables, the three NI
// disciplines' queueing, and the resolution of every shared-state effect:
// path reservation, fault draws, seq numbers, trace records, result
// assembly. Concurrent, ConcurrentTraced, ConcurrentFaulty and Multicast
// drive it with the serial loop (sessions.go): pop one event from one
// queue, process it, resolve its effects at once. ConcurrentWindowed
// (windowed.go; package psim is its exported door) drives the same model
// with a worker pool over conservative lookahead windows and resolves the
// merged effects at each window barrier, in the serial loop's order — so
// the two are bit-identical at any worker count. Engine, the closure-
// scheduling event loop below, is what package collectives and the
// reliable runtime's virtual-time driver (live.RunVirtual) run on; it
// shares the session model's event queue and path reservation.
package sim

import (
	"fmt"
	"math"

	"repro/internal/routing"
)

// Params holds the system and technology constants. All times are in
// microseconds, sizes in bytes.
type Params struct {
	THostSend   float64 // t_s: host software send start-up overhead
	THostRecv   float64 // t_r: host software receive overhead
	TNISend     float64 // t_ns: NI overhead to inject one packet copy
	TNIRecv     float64 // t_nr: NI overhead to receive one packet
	PacketBytes int     // fixed packet size
	LinkBytesUS float64 // link bandwidth in bytes per microsecond
	RouterDelay float64 // per-hop switch latency
	// NIPorts is the number of packet copies a network interface can have
	// in flight concurrently (independent injection DMA engines). Zero
	// means 1, the paper's model: a serial coprocessor whose per-copy cost
	// t_ns is exactly what makes tree fanout expensive. Values > 1 model
	// hypothetical multi-engine NIs (see the abl-ports experiment).
	NIPorts int
}

// Ports returns the effective concurrent-injection count (min 1).
func (p Params) Ports() int {
	if p.NIPorts < 1 {
		return 1
	}
	return p.NIPorts
}

// DefaultParams mirrors the paper's Section 5.2 defaults: t_s = t_r =
// 12.5 us, 64-byte packets, t_ns = 3.0 us, t_nr = 2.0 us. Link bandwidth
// and router delay reflect Myrinet-class hardware of the era (160 MB/s,
// 0.2 us per switch).
func DefaultParams() Params {
	return Params{
		THostSend:   12.5,
		THostRecv:   12.5,
		TNISend:     3.0,
		TNIRecv:     2.0,
		PacketBytes: 64,
		LinkBytesUS: 160,
		RouterDelay: 0.2,
	}
}

// WireTime returns the serialization time of one packet on a link.
func (p Params) WireTime() float64 {
	if p.LinkBytesUS <= 0 {
		panic("sim: non-positive link bandwidth")
	}
	return float64(p.PacketBytes) / p.LinkBytesUS
}

// StepTime returns the paper's t_step: the NI-to-NI cost of one
// uncontended packet transmission across an average route of the given hop
// count: t_ns + propagation + t_nr.
func (p Params) StepTime(hops int) float64 {
	return p.TNISend + float64(hops)*p.RouterDelay + p.WireTime() + p.TNIRecv
}

// Validate reports the first invalid field. Non-finite floats are
// rejected explicitly: NaN compares false against every threshold below,
// so without this guard a Params{LinkBytesUS: math.NaN()} would pass and
// poison every computed time downstream.
func (p Params) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"THostSend", p.THostSend},
		{"THostRecv", p.THostRecv},
		{"TNISend", p.TNISend},
		{"TNIRecv", p.TNIRecv},
		{"LinkBytesUS", p.LinkBytesUS},
		{"RouterDelay", p.RouterDelay},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sim: non-finite %s %v", f.name, f.v)
		}
	}
	switch {
	case p.THostSend < 0 || p.THostRecv < 0 || p.TNISend <= 0 || p.TNIRecv < 0:
		return fmt.Errorf("sim: negative overhead in %+v", p)
	case p.PacketBytes <= 0:
		return fmt.Errorf("sim: packet size %d", p.PacketBytes)
	case p.LinkBytesUS <= 0:
		return fmt.Errorf("sim: link bandwidth %f", p.LinkBytesUS)
	case p.RouterDelay < 0:
		return fmt.Errorf("sim: router delay %f", p.RouterDelay)
	}
	return nil
}

// Engine is the closure-scheduling event loop plus channel state. Its
// events wait on the session model's queue, so equal times run in At order.
type Engine struct {
	now      float64
	events   eventQueue[func()]
	chanFree []float64 // directed channel -> earliest free time
}

// NewEngine creates an engine for a network with the given channel count.
func NewEngine(numChannels int) *Engine {
	e := &Engine{chanFree: make([]float64, numChannels)}
	e.events.reset()
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn at absolute time t (>= now, so never NaN).
func (e *Engine) At(t float64, fn func()) {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: scheduling at %v, before now %v", t, e.now))
	}
	e.events.push(t, fn)
}

// Run processes events until none remain, returning the final time.
func (e *Engine) Run() float64 {
	for !e.events.empty() {
		e.now = e.events.min()
		e.events.pop()()
	}
	return e.now
}

// ReservePath books every channel of the route for one packet starting no
// earlier than earliest: channel i is held [T+i*router, T+i*router+wire],
// with T minimal such that all holds begin at or after each channel's free
// time. It returns T and the packet's full arrival time at the far NI
// input (T + lastOffset + wire).
func (e *Engine) ReservePath(route routing.Route, earliest, wire, router float64) (start, arrival float64) {
	return reservePath(e.chanFree, route.Channels, earliest, wire, router)
}

// reservePath is ReservePath on an explicit channel-occupancy table and a
// route's channel sequence; the session model keeps its own table and
// passes the channels stored in its session tables.
func reservePath(chanFree []float64, chans []int, earliest, wire, router float64) (start, arrival float64) {
	T := earliest
	for i, c := range chans {
		if need := chanFree[c] - float64(i)*router; need > T {
			T = need
		}
	}
	for i, c := range chans {
		chanFree[c] = T + float64(i)*router + wire
	}
	last := float64(len(chans)-1) * router
	return T, T + last + wire
}
