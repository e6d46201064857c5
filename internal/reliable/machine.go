package reliable

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/membership"
	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/workload"
)

// op is one pending data-packet injection across a tree edge. The gen
// pins it to the edge incarnation that queued it: after a repair replaces
// the edge, stale ops are skipped at the NI instead of injecting.
type op struct {
	from, to, seq, gen int
}

// pktState tracks one (edge, packet) in flight. timerGen invalidates
// superseded retransmission timers (a NACK retransmits immediately and
// must cancel the pending timeout).
type pktState struct {
	acked    bool
	attempt  int // injections performed so far
	timerGen int
}

// edgeState is one incarnation of a parent→child tree edge, numbered per
// host pair from 0 like a live fabric's redials, and drawing its losses
// from that incarnation's stream; dead edges ignore every late event.
type edgeState struct {
	from, to int
	gen      int
	dead     bool
	seqs     []pktState
	loss     fault.Stream
}

// node is the per-host protocol state: the NI send queue (shared by all
// outgoing edges, serial like the sim engine's), the reassembler, and the
// children the node currently forwards to (the brain's shape, kept by
// Install and Retire).
type node struct {
	id        int
	children  []int
	queue     []op
	inFlight  int
	reasm     *message.Reassembler
	have      []bool
	haveCount int
	acks      fault.Stream // the host's ACK/NACK loss stream
	// inc is the NI incarnation; a crash bumps it so completion callbacks
	// of copies that were mid-wire become no-ops instead of touching the
	// wiped send engine.
	inc int
}

// maxRegrafts bounds how often one node may be re-parented before the
// brain abandons it, so repair cannot loop forever under extreme loss.
const maxRegrafts = 4

type machine struct {
	cfg     Config
	p       sim.Params
	wire    float64
	ackWire float64
	m       int
	root    int
	pkts    [][]byte
	eng     *sim.Engine
	faults  *fault.State
	// jrng draws retransmission-backoff jitter: protocol timing, not a
	// fault, so it is a stream of its own, seeded from the plan's seed.
	jrng *workload.RNG

	// sys is the current system view — degraded and re-routed as link
	// kills are discovered. The maps translate between the degraded
	// network's densely renumbered link IDs and the original fabric the
	// event engine's channel table is built for.
	sys               *core.System
	degraded          bool
	origToCur         []int
	curToOrig         []int
	applied           map[int]bool // original link IDs already routed around
	repairUnavailable bool

	routes map[[2]int]routing.Route
	nodes  map[int]*node
	edges  map[[2]int]*edgeState
	gens   map[[2]int]int // incarnations built per host pair
	all    []*edgeState   // every incarnation, in creation order

	// brain decides every repair; installed holds the edges its current
	// decision brought up, for flush to replay into.
	brain     *Brain
	installed [][2]int

	// Crash-tolerance state. det is nil (and epoch stays 0, so fencing
	// never triggers) unless the fault plan schedules host crashes.
	det         *membership.Detector
	epoch       int
	finished    bool
	rootCrashed bool

	res *Result
}

func newMachine(sys *core.System, plan *core.Plan, pkts [][]byte, cfg Config, faults *fault.State, seed uint64) *machine {
	links := len(sys.Net.Links())
	mc := &machine{
		cfg:       cfg,
		p:         cfg.Params,
		wire:      cfg.Params.WireTime(),
		ackWire:   ackBytes / cfg.Params.LinkBytesUS,
		m:         len(pkts),
		root:      plan.Tree.Root(),
		pkts:      pkts,
		eng:       sim.NewEngine(sys.Net.NumChannels()),
		faults:    faults,
		jrng:      workload.NewRNG(seed ^ 0x9e6c_a61b_60ca_77d5),
		sys:       sys,
		origToCur: make([]int, links),
		curToOrig: make([]int, links),
		applied:   map[int]bool{},
		routes:    map[[2]int]routing.Route{},
		nodes:     map[int]*node{},
		edges:     map[[2]int]*edgeState{},
		gens:      map[[2]int]int{},
		res: &Result{
			HostDone:  map[int]float64{},
			Packets:   len(pkts),
			Delivered: map[int][]byte{},
		},
	}
	for i := 0; i < links; i++ {
		mc.origToCur[i], mc.curToOrig[i] = i, i
	}
	for _, v := range plan.Tree.Nodes() {
		mc.nodes[v] = &node{
			id:       v,
			children: append([]int(nil), plan.Tree.Children(v)...),
			reasm:    message.NewReassembler(),
			have:     make([]bool, mc.m),
			acks:     faults.Acks(v),
		}
	}
	for _, e := range plan.Tree.Edges() {
		mc.newEdge(e.Parent, e.Child)
	}
	mc.brain = NewBrain(plan.Tree, maxRegrafts, mc)
	if len(faults.Crashes()) > 0 {
		det, err := membership.New(membership.DefaultConfig(), plan.Tree.Nodes(), 0)
		if err != nil {
			// The default config is valid and the plan's members are the
			// distinct tree nodes; this cannot fail.
			panic(err)
		}
		mc.det = det
		mc.epoch = det.Epoch()
		mc.res.Views = append(mc.res.Views, det.View())
	}
	return mc
}

func (mc *machine) newEdge(u, v int) *edgeState {
	key := [2]int{u, v}
	gen := mc.gens[key]
	mc.gens[key]++
	es := &edgeState{from: u, to: v, gen: gen, seqs: make([]pktState, mc.m), loss: mc.faults.Edge(u, v, gen)}
	mc.edges[key] = es
	mc.all = append(mc.all, es)
	return es
}

// run seeds the root — after the t_s software start-up its NI holds every
// packet, enqueued packet-major across children exactly like the lossless
// engine under FPFS — then drains the event loop. With crashes planned it
// also starts the membership plane (heartbeats + detector ticks) and
// schedules the crash/recovery faults themselves.
func (mc *machine) run() {
	mc.eng.At(mc.p.THostSend, func() {
		n := mc.nodes[mc.root]
		for j := 0; j < mc.m; j++ {
			n.have[j] = true
		}
		n.haveCount = mc.m
		for j := 0; j < mc.m; j++ {
			for _, c := range n.children {
				n.queue = append(n.queue, op{from: mc.root, to: c, seq: j, gen: mc.edges[[2]int{mc.root, c}].gen})
			}
		}
		mc.pump(mc.root)
	})
	if mc.det != nil {
		for _, c := range mc.faults.Crashes() {
			c := c
			mc.eng.At(c.At, func() { mc.onCrash(c.Host) })
			if c.RecoverAt > 0 {
				mc.eng.At(c.RecoverAt, func() { mc.onRecover(c.Host) })
			}
		}
		var ids []int
		for v := range mc.nodes {
			if v != mc.root {
				ids = append(ids, v)
			}
		}
		sort.Ints(ids) // deterministic event-seq assignment
		for _, v := range ids {
			mc.scheduleBeats(v)
		}
		mc.tickLoop()
	}
	mc.eng.Run()
}

// pump starts queued injections while the NI has a free engine, skipping
// ops whose edge incarnation died or whose packet was ACKed meanwhile. A
// crashed sender keeps its queue dormant.
func (mc *machine) pump(v int) {
	n := mc.nodes[v]
	if mc.faults.HostDown(v, mc.eng.Now()) {
		return
	}
	for n.inFlight < mc.p.Ports() && len(n.queue) > 0 {
		o := n.queue[0]
		n.queue = n.queue[1:]
		es := mc.edges[[2]int{o.from, o.to}]
		if es == nil || es.dead || es.gen != o.gen || es.seqs[o.seq].acked {
			continue
		}
		mc.inject(n, es, o)
	}
}

// inject performs one data-packet transmission: NI overhead, wormhole
// channel reservation, the draw from the incarnation's loss stream (after
// the dead-link check, as in the lossless engine), delivery scheduling,
// and the retransmission timer. The timer is deterministic:
// the NI knows its reservation, so absent loss the ACK beats it by
// exactly rtoSlack.
func (mc *machine) inject(n *node, es *edgeState, o op) {
	n.inFlight++
	route := mc.routeFor(o.from, o.to)
	now := mc.eng.Now()
	earliest := now + mc.faults.StallDelay(o.from, now) + mc.p.TNISend
	start, arrive := mc.eng.ReservePath(route, earliest, mc.wire, mc.p.RouterDelay)
	mc.res.ChannelWait += start - earliest
	mc.res.Sends++
	ps := &es.seqs[o.seq]
	if ps.attempt > 0 {
		mc.res.Retransmits++
	}
	ps.attempt++
	inc := n.inc
	mc.eng.At(start+mc.wire, func() {
		if n.inc != inc { // a crash wiped this send engine mid-copy
			return
		}
		n.inFlight--
		mc.pump(n.id)
	})
	ep := mc.epoch
	arriveT := arrive + mc.p.TNIRecv
	if !mc.faults.RouteDead(route.Channels, start) {
		raw := mc.pkts[o.seq]
		drop, bad := es.loss.Transmit(len(raw))
		switch {
		case drop:
		case mc.faults.HostDown(o.to, arriveT):
			mc.faults.NoteCrashDrop()
		default:
			if bad >= 0 {
				raw = append([]byte(nil), raw...)
				raw[bad] ^= 0x55
			}
			mc.eng.At(arriveT, func() { mc.receive(o, raw, ep) })
		}
	}
	deadline := arriveT + mc.ctlDelay(o.to, o.from) +
		rtoSlack + mc.backoff(ps.attempt-1)
	timerGen := ps.timerGen
	mc.eng.At(deadline, func() { mc.timeout(es, o, timerGen) })
}

// backoff returns the extra timer stretch after `prior` failed attempts:
// 0 for the first transmission, then base·2^(prior-1) capped at max,
// widened by seeded jitter.
func (mc *machine) backoff(prior int) float64 {
	if prior <= 0 {
		return 0
	}
	d := backoffBase * math.Pow(2, float64(prior-1))
	if d > backoffMax {
		d = backoffMax
	}
	return d * (1 + mc.jrng.Float64()*jitterFrac)
}

// ctlDelay is the contention-free control-plane latency from u to v: the
// route's switch delays plus the control packet's wire time. Control
// packets are small enough to skip NI queuing in this model, which keeps
// the data plane's timing untouched by the protocol.
func (mc *machine) ctlDelay(u, v int) float64 {
	return float64(mc.routeFor(u, v).Hops())*mc.p.RouterDelay + mc.ackWire
}

// receive is the destination NI absorbing one data packet: NACK on
// corruption, ACK + suppress on duplicate, otherwise reassemble, ACK,
// forward to the node's current children, and complete the host when the
// last packet lands. ep is the epoch the packet was injected under;
// traffic from a superseded view is fenced off.
func (mc *machine) receive(o op, raw []byte, ep int) {
	now := mc.eng.Now()
	if mc.faults.HostDown(o.to, now) {
		mc.faults.NoteCrashDrop()
		return
	}
	if ep != mc.epoch {
		mc.res.Fenced++
		return
	}
	n := mc.nodes[o.to]
	h, body, err := message.Parse(raw)
	if err != nil || int(h.Seq) != o.seq {
		mc.res.Nacks++
		mc.sendNack(o)
		return
	}
	if n.have[o.seq] {
		mc.res.Duplicates++
		mc.sendAck(o)
		return
	}
	if _, err := n.reasm.Put(h, body); err != nil {
		// Unreachable for a valid, novel packet; treat like corruption.
		mc.res.Nacks++
		mc.sendNack(o)
		return
	}
	n.have[o.seq] = true
	n.haveCount++
	if mc.det != nil {
		mc.res.Accepts = append(mc.res.Accepts, EpochStamp{At: now, Epoch: ep})
	}
	mc.sendAck(o)
	if len(n.children) > 0 {
		for _, c := range n.children {
			if es := mc.edges[[2]int{n.id, c}]; es != nil && !es.dead {
				n.queue = append(n.queue, op{from: n.id, to: c, seq: o.seq, gen: es.gen})
			}
		}
		mc.pump(n.id)
	}
	if n.haveCount == mc.m {
		mc.res.HostDone[n.id] = now + mc.p.THostRecv
		mc.checkFinished()
	}
}

func (mc *machine) sendAck(o op) {
	if mc.nodes[o.to].acks.AckLost() {
		return
	}
	ep := mc.epoch
	mc.eng.At(mc.eng.Now()+mc.ctlDelay(o.to, o.from), func() { mc.ackArrive(o, ep) })
}

func (mc *machine) sendNack(o op) {
	if mc.nodes[o.to].acks.AckLost() {
		return
	}
	ep := mc.epoch
	mc.eng.At(mc.eng.Now()+mc.ctlDelay(o.to, o.from), func() { mc.nackArrive(o, ep) })
}

func (mc *machine) ackArrive(o op, ep int) {
	if mc.faults.HostDown(o.from, mc.eng.Now()) {
		return
	}
	if ep != mc.epoch {
		mc.res.Fenced++
		return
	}
	es := mc.edges[[2]int{o.from, o.to}]
	if es == nil || es.dead || es.gen != o.gen {
		return
	}
	ps := &es.seqs[o.seq]
	if ps.acked {
		return
	}
	ps.acked = true
	mc.res.Acks++
}

// nackArrive retransmits immediately — the receiver proved the packet was
// damaged — after cancelling the pending timeout.
func (mc *machine) nackArrive(o op, ep int) {
	if mc.faults.HostDown(o.from, mc.eng.Now()) {
		return
	}
	if ep != mc.epoch {
		mc.res.Fenced++
		return
	}
	es := mc.edges[[2]int{o.from, o.to}]
	if es == nil || es.dead || es.gen != o.gen {
		return
	}
	ps := &es.seqs[o.seq]
	if ps.acked {
		return
	}
	if ps.attempt > mc.cfg.RetryBudget {
		mc.exhausted(es)
		return
	}
	ps.timerGen++
	mc.nodes[o.from].queue = append(mc.nodes[o.from].queue, op{from: o.from, to: o.to, seq: o.seq, gen: es.gen})
	mc.pump(o.from)
}

// timeout fires when no ACK arrived in time: retransmit with backoff, or
// orphan the edge once the budget is spent. While either endpoint is down
// the packet is parked instead — burning the budget against a crashed
// peer would preempt the membership plane, whose confirmation (adoption)
// or recovery (re-graft) is the real resolution.
func (mc *machine) timeout(es *edgeState, o op, timerGen int) {
	if es.dead {
		return
	}
	ps := &es.seqs[o.seq]
	if ps.acked || ps.timerGen != timerGen {
		return
	}
	now := mc.eng.Now()
	if mc.faults.HostDown(o.to, now) || mc.faults.HostDown(o.from, now) {
		if ps.attempt > 1 {
			ps.attempt = 1 // post-recovery retries start with a fresh budget
		}
		ps.timerGen++
		mc.nodes[o.from].queue = append(mc.nodes[o.from].queue, op{from: o.from, to: o.to, seq: o.seq, gen: es.gen})
		mc.pump(o.from)
		return
	}
	if ps.attempt > mc.cfg.RetryBudget {
		mc.exhausted(es)
		return
	}
	ps.timerGen++
	mc.nodes[o.from].queue = append(mc.nodes[o.from].queue, op{from: o.from, to: o.to, seq: o.seq, gen: es.gen})
	mc.pump(o.from)
}

// routeFor returns the current route u→v with channels expressed in the
// ORIGINAL fabric's numbering, which is what the engine's channel table
// and the fault plan's link IDs use. Degraded networks renumber links
// densely (topology.WithoutLink), so routes from a rebuilt router are
// translated back through curToOrig; repair invalidates the cache.
func (mc *machine) routeFor(u, v int) routing.Route {
	key := [2]int{u, v}
	if r, ok := mc.routes[key]; ok {
		return r
	}
	r := mc.sys.Router.Route(u, v)
	if mc.degraded {
		mapped := make([]int, len(r.Channels))
		for i, c := range r.Channels {
			mapped[i] = 2*mc.curToOrig[c/2] + c&1
		}
		r.Channels = mapped
	}
	mc.routes[key] = r
	return r
}
