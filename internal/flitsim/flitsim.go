// Package flitsim is a cycle-accurate flit-level wormhole network
// simulator: packets are sequences of flits that snake through switch
// input buffers, the head flit acquiring each channel of the route and
// the tail releasing it, with true head-of-line blocking — a blocked worm
// keeps every channel it holds.
//
// The packet-granularity simulator (package sim) approximates wormhole
// contention by atomic path reservation; this package provides the ground
// truth that approximation is validated against (see the flit-validation
// tests and the `flitcheck` experiment). All three NI forwarding
// disciplines are supported (FPFS, FCFS, conventional host forwarding);
// Multicast defaults to FPFS, the one the paper's optimal trees target.
//
// Model, per cycle (fixed deterministic order):
//
//  1. every destination host consumes arrived flits; a packet whose tail
//     has arrived is delivered to the NI after its receive overhead, and
//     forwarding copies are enqueued per the discipline;
//  2. every directed channel moves at most one flit from its upstream
//     stage (an NI inject stage or the buffer of the previous channel) to
//     its downstream buffer, if the buffer has space; a free channel is
//     acquired by the lowest-ID competing head flit, an owned channel
//     only passes its owner's flits in order;
//  3. every NI inject stage counts down its per-copy overhead and offers
//     the next flit of the copy it is injecting.
package flitsim

import (
	"fmt"
	"sort"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/tree"
)

// Params holds the flit-level technology constants. Times are in cycles;
// CycleUS converts to microseconds for comparison with package sim.
type Params struct {
	FlitsPerPacket int     // flits per packet, header included
	CycleUS        float64 // microseconds per cycle
	NISendCycles   int     // coprocessor overhead per packet copy
	NIRecvCycles   int     // overhead per packet receive
	HostSendCycles int     // t_s at the source host
	HostRecvCycles int     // t_r at each destination host
	BufferFlits    int     // input buffer depth per channel
}

// DefaultParams mirrors sim.DefaultParams at a 25 ns cycle (40 MHz
// LANai-class coprocessor): 64-byte packets of 8-byte flits plus a header
// flit; 3.0 us NI send = 120 cycles; 2.0 us receive = 80 cycles; 12.5 us
// host overheads = 500 cycles; 4-flit input buffers.
func DefaultParams() Params {
	return Params{
		FlitsPerPacket: 9,
		CycleUS:        0.025,
		NISendCycles:   120,
		NIRecvCycles:   80,
		HostSendCycles: 500,
		HostRecvCycles: 500,
		BufferFlits:    4,
	}
}

// PacketParams converts the flit-level constants to the equivalent
// packet-level sim.Params (64-byte packets), so the two network models
// can be compared on matched technology.
func (p Params) PacketParams() sim.Params {
	return sim.Params{
		THostSend:   float64(p.HostSendCycles) * p.CycleUS,
		THostRecv:   float64(p.HostRecvCycles) * p.CycleUS,
		TNISend:     float64(p.NISendCycles) * p.CycleUS,
		TNIRecv:     float64(p.NIRecvCycles) * p.CycleUS,
		PacketBytes: 64,
		LinkBytesUS: 64 / (float64(p.FlitsPerPacket) * p.CycleUS),
		RouterDelay: p.CycleUS,
	}
}

// Validate reports the first invalid field.
func (p Params) Validate() error {
	switch {
	case p.FlitsPerPacket < 1:
		return fmt.Errorf("flitsim: %d flits per packet", p.FlitsPerPacket)
	case p.CycleUS <= 0:
		return fmt.Errorf("flitsim: cycle %f us", p.CycleUS)
	case p.NISendCycles < 1 || p.NIRecvCycles < 0 || p.HostSendCycles < 0 || p.HostRecvCycles < 0:
		return fmt.Errorf("flitsim: negative overhead in %+v", p)
	case p.BufferFlits < 1:
		return fmt.Errorf("flitsim: buffer depth %d", p.BufferFlits)
	}
	return nil
}

// Result reports one flit-level multicast.
type Result struct {
	// Latency in microseconds: source host start to last destination host
	// completion (host overheads included).
	Latency float64
	// Cycles is the raw cycle count of the same span.
	Cycles int
	// HostDone is the completion cycle per destination host.
	HostDone map[int]int
	// Injections counts packet copies injected.
	Injections int
	// PeakChannelHold is the longest time (cycles) any single packet held
	// its full path, a head-of-line blocking indicator.
	PeakChannelHold int
}

// worm is one packet copy in flight or queued.
type worm struct {
	id       int
	route    routing.Route
	pktIdx   int // logical packet index within the message
	dest     int
	flitsIn  int // flits that have left the NI inject stage
	arrived  int // flits consumed at the destination
	headIdx  int // route index of the furthest channel acquired (-1 none)
	acquired int // cycle the head acquired the first channel
}

// flit is one buffered flit.
type flit struct {
	w       *worm
	isHead  bool
	isTail  bool
	nextHop int // index into w.route.Channels of the next channel to cross
	movedAt int // cycle of the flit's last move (single-move-per-cycle)
}

// niState is the inject side of one host's network interface.
type niState struct {
	queue     []*worm // copies awaiting injection, FIFO
	overhead  int     // remaining overhead cycles before flits flow
	current   *worm
	available map[int]bool // logical packets present at this NI (source: all)
}

// Multicast runs an m-packet FPFS multicast over tr at flit granularity.
func Multicast(router routing.Router, tr *tree.Tree, m int, p Params) *Result {
	return MulticastDisc(router, tr, m, p, stepsim.FPFS)
}

// MulticastDisc runs an m-packet multicast at flit granularity under the
// given NI forwarding discipline (FPFS, FCFS, or Conventional).
func MulticastDisc(router routing.Router, tr *tree.Tree, m int, p Params, disc stepsim.Discipline) *Result {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if m < 1 {
		panic(fmt.Sprintf("flitsim: invalid packet count m=%d", m))
	}
	if err := disc.Validate(); err != nil {
		panic("flitsim: " + err.Error())
	}
	s := &state{
		router:  router,
		tr:      tr,
		m:       m,
		p:       p,
		disc:    disc,
		bufs:    make([][]flit, router.Network().NumChannels()),
		owner:   make([]*worm, router.Network().NumChannels()),
		nis:     map[int]*niState{},
		recvAt:  map[int]map[int]int{},
		gotPkts: map[int]int{},
		res:     &Result{HostDone: map[int]int{}},
	}
	for _, v := range tr.Nodes() {
		s.nis[v] = &niState{available: map[int]bool{}}
		s.recvAt[v] = map[int]int{}
	}
	s.run()
	return s.res
}

type state struct {
	router  routing.Router
	tr      *tree.Tree
	m       int
	p       Params
	disc    stepsim.Discipline
	cycle   int
	wormSeq int
	bufs    [][]flit // per channel: downstream buffer, FIFO
	owner   []*worm  // per channel: holding worm or nil
	nis     map[int]*niState
	recvAt  map[int]map[int]int // host -> packet -> cycle tail arrived
	gotPkts map[int]int         // host -> packets fully received
	active  int                 // worms injected but not fully delivered
	res     *Result
	pending []timed        // scheduled callbacks (NI receive overheads etc.)
	copies  []stepsim.Copy // enqueueCopies' scratch
}

type timed struct {
	at int
	fn func()
}

func (s *state) schedule(delay int, fn func()) {
	s.pending = append(s.pending, timed{at: s.cycle + delay, fn: fn})
}

// enqueueWorm queues one forwarding copy of logical packet pktIdx from v
// toward child c.
func (s *state) enqueueWorm(v, c, pktIdx int) {
	s.wormSeq++
	w := &worm{
		id:      s.wormSeq,
		route:   s.router.Route(v, c),
		pktIdx:  pktIdx,
		dest:    c,
		headIdx: -1,
	}
	s.nis[v].queue = append(s.nis[v].queue, w)
	s.active++
}

// enqueueCopies queues the forwarding copies that the discipline releases
// at node v once logical packet pktIdx is available there. Callers invoke
// it once per packet as the packet becomes available at v (in index
// order).
func (s *state) enqueueCopies(v, pktIdx int) {
	children := s.tr.Children(v)
	if len(children) == 0 {
		return
	}
	if s.disc == stepsim.Conventional && v != s.tr.Root() {
		// Host store-and-forward: nothing leaves an intermediate node
		// until the whole message is up at the host; the host then pays
		// t_s per child.
		if pktIdx == s.m-1 {
			base := s.p.HostRecvCycles
			for i := range children {
				c := children[i]
				s.schedule(base+(i+1)*s.p.HostSendCycles, func() {
					for j := 0; j < s.m; j++ {
						s.enqueueWorm(v, c, j)
					}
				})
			}
		}
		return
	}
	s.copies = s.disc.Release(s.copies[:0], s.m, len(children), pktIdx, pktIdx == s.m-1)
	for _, c := range s.copies {
		s.enqueueWorm(v, children[c.Child], int(c.Packet))
	}
}

func (s *state) run() {
	root := s.tr.Root()
	// The source host loads the message into its NI after t_s.
	s.schedule(s.p.HostSendCycles, func() {
		for j := 0; j < s.m; j++ {
			s.nis[root].available[j] = true
			s.enqueueCopies(root, j)
		}
		if s.tr.Size() == 1 {
			return
		}
	})

	idle := 0
	for limit := 0; ; limit++ {
		if limit > 100_000_000 {
			panic("flitsim: cycle limit exceeded (deadlock?)")
		}
		s.cycle++
		progressed := s.fire()
		progressed = s.deliver() || progressed
		progressed = s.transfer() || progressed
		progressed = s.inject() || progressed
		if s.done() {
			break
		}
		if progressed || len(s.pending) > 0 {
			// Pending timers (host overheads, NI receive latencies) will
			// fire and make progress; only a quiet system with nothing
			// scheduled can be deadlocked.
			idle = 0
		} else {
			idle++
			if idle > s.p.HostSendCycles+s.p.NISendCycles+s.p.NIRecvCycles+s.p.HostRecvCycles+16 {
				panic(fmt.Sprintf("flitsim: no progress for %d cycles with %d worms active", idle, s.active))
			}
		}
	}
	// Completion is the last host's t_r expiry, which may lie past the
	// loop-exit cycle (the loop ends when the last tail is received).
	last := s.cycle
	for _, done := range s.res.HostDone {
		if done > last {
			last = done
		}
	}
	s.res.Cycles = last
	s.res.Latency = float64(last) * s.p.CycleUS
}

// done reports whether every destination host has completed.
func (s *state) done() bool {
	return len(s.res.HostDone) == s.tr.Size()-1
}

// fire runs scheduled callbacks due this cycle, including callbacks that
// due callbacks schedule for the same cycle (host-overhead chains).
func (s *state) fire() bool {
	progressed := false
	var rest []timed
	queue := s.pending
	s.pending = nil
	for len(queue) > 0 {
		batch := queue
		queue = nil
		for _, t := range batch {
			if t.at <= s.cycle {
				t.fn()
				progressed = true
			} else {
				rest = append(rest, t)
			}
		}
		// Callbacks may have scheduled more work; drain it too.
		queue = append(queue, s.pending...)
		s.pending = nil
	}
	s.pending = rest
	return progressed
}

// deliver consumes flits that have crossed their final channel.
func (s *state) deliver() bool {
	progressed := false
	for c := range s.bufs {
		if len(s.bufs[c]) == 0 {
			continue
		}
		f := s.bufs[c][0]
		if f.nextHop < len(f.w.route.Channels) {
			continue // not at destination yet
		}
		// Consume one flit per cycle per delivery channel.
		s.bufs[c] = s.bufs[c][1:]
		f.w.arrived++
		progressed = true
		if f.isTail {
			s.completeWorm(f.w)
		}
	}
	return progressed
}

func (s *state) completeWorm(w *worm) {
	s.active--
	dst := w.dest
	pkt := w.pktIdx
	if hold := s.cycle - w.acquired; hold > s.res.PeakChannelHold {
		s.res.PeakChannelHold = hold
	}
	s.schedule(s.p.NIRecvCycles, func() {
		s.recvAt[dst][pkt] = s.cycle
		s.gotPkts[dst]++
		s.nis[dst].available[pkt] = true
		s.enqueueCopies(dst, pkt)
		if s.gotPkts[dst] == s.m {
			s.res.HostDone[dst] = s.cycle + s.p.HostRecvCycles
		}
	})
}

// transfer moves at most one flit across every channel.
func (s *state) transfer() bool {
	progressed := false
	for c := 0; c < len(s.owner); c++ {
		// Capacity check at the downstream buffer of c.
		if len(s.bufs[c]) >= s.p.BufferFlits {
			continue
		}
		if w := s.owner[c]; w != nil {
			// Owned: pass the owner's next flit waiting to cross c.
			if f, ok := s.takeUpstream(c, w); ok {
				s.place(c, f)
				progressed = true
			}
			continue
		}
		// Free: head flits compete; lowest worm ID wins (deterministic).
		cands := s.headCandidates(c)
		if len(cands) == 0 {
			continue
		}
		best := cands[0]
		f, ok := s.takeUpstream(c, best)
		if !ok {
			continue
		}
		s.owner[c] = best
		if best.headIdx < 0 {
			best.acquired = s.cycle
		}
		best.headIdx = f.nextHop
		s.place(c, f)
		progressed = true
	}
	return progressed
}

// place puts f into c's downstream buffer, advancing its hop pointer and
// releasing c if f is the tail.
func (s *state) place(c int, f flit) {
	f.nextHop++
	f.movedAt = s.cycle
	s.bufs[c] = append(s.bufs[c], f)
	if f.isTail {
		s.owner[c] = nil
	}
}

// takeUpstream removes and returns w's next flit waiting to cross channel
// c, looking at the inject stage (first hop) or the previous channel's
// buffer head. A flit only moves once per cycle: flits placed this cycle
// are at the buffer tail, and we only ever take heads, which is safe
// because a buffer head placed this cycle implies an empty buffer that the
// capacity check on the *previous* channel already accounted for — to keep
// single-move semantics strict we tag flits with the cycle they moved.
func (s *state) takeUpstream(c int, w *worm) (flit, bool) {
	hop := s.hopIndex(c, w)
	if hop < 0 {
		return flit{}, false
	}
	if hop == 0 {
		// Injection from the NI stage.
		ni := s.nis[w.route.Src]
		if ni.current != w || ni.overhead > 0 || w.flitsIn >= s.p.FlitsPerPacket {
			return flit{}, false
		}
		f := flit{
			w:       w,
			isHead:  w.flitsIn == 0,
			isTail:  w.flitsIn == s.p.FlitsPerPacket-1,
			nextHop: 0,
		}
		w.flitsIn++
		if f.isTail {
			ni.current = nil // NI free for the next copy
		}
		return f, true
	}
	prev := w.route.Channels[hop-1]
	if len(s.bufs[prev]) == 0 {
		return flit{}, false
	}
	head := s.bufs[prev][0]
	if head.w != w || head.nextHop != hop || head.movedAt == s.cycle {
		return flit{}, false
	}
	s.bufs[prev] = s.bufs[prev][1:]
	return head, true
}

// hopIndex returns the index of channel c in w's route, or -1.
func (s *state) hopIndex(c int, w *worm) int {
	for i, ch := range w.route.Channels {
		if ch == c {
			return i
		}
	}
	return -1
}

// headCandidates returns worms whose head flit wants to acquire channel c
// this cycle, sorted by worm ID.
func (s *state) headCandidates(c int) []*worm {
	var out []*worm
	// Injection heads.
	for _, ni := range s.nis {
		if ni.current != nil && ni.overhead == 0 && ni.current.flitsIn == 0 &&
			ni.current.route.Channels[0] == c {
			out = append(out, ni.current)
		}
	}
	// Buffered heads: the head flit sits at the head of the previous
	// channel's buffer.
	for prev := range s.bufs {
		if len(s.bufs[prev]) == 0 {
			continue
		}
		f := s.bufs[prev][0]
		if f.isHead && f.movedAt != s.cycle &&
			f.nextHop < len(f.w.route.Channels) && f.w.route.Channels[f.nextHop] == c {
			out = append(out, f.w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// inject advances every NI's inject stage: pop the next queued copy when
// idle, pay the per-copy overhead.
func (s *state) inject() bool {
	progressed := false
	// Deterministic host order.
	hosts := make([]int, 0, len(s.nis))
	for h := range s.nis {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	for _, h := range hosts {
		ni := s.nis[h]
		if ni.current == nil && len(ni.queue) > 0 {
			ni.current = ni.queue[0]
			ni.queue = ni.queue[1:]
			ni.overhead = s.p.NISendCycles
			s.res.Injections++
			progressed = true
		}
		if ni.current != nil && ni.overhead > 0 {
			ni.overhead--
			progressed = true
		}
	}
	return progressed
}
