package sim

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/routing"
	"repro/internal/stepsim"
	"repro/internal/tree"
)

// This file is the packet-level session model — the only implementation
// of the paper's NI disciplines at packet granularity. It is split in two
// halves that never touch each other's state:
//
//   - process{Start,Complete,Deliver,Fwd} run one event against host-local
//     state (receive counts, NI queue, buffer occupancy) and record, in
//     creation order, the shared-state effects the event wants as actions;
//   - resolve performs one action against shared state — channel
//     reservation, seq numbers, trace records, counters — and mails the
//     events it creates.
//
// A scheduler decides when events are processed and when their actions are
// resolved. The serial one (runSerial, sessions.go) resolves after every
// event; the windowed one (windowed.go) lets workers process a lookahead
// window of events in parallel and resolves the merged action streams at
// the barrier. Resolution order is the same in both — creator event order,
// then creation index — so the two produce identical bits.

// sessTab is one session's state in dense SoA form. Slots index the
// session's tree nodes; per-slot fields are written only by the worker
// owning the slot's host, so the table is shared without locks.
type sessTab struct {
	m     int
	start float64
	nodes []int32 // tree nodes in Tree.Nodes() order; slot = position
	slot  []int32 // host -> slot+1 (0 = host not in session); len numHosts

	recv      []int32   // slot -> packets received
	parent    []int32   // slot -> parent host (-1 at root)
	deg       []int32   // slot -> child count
	childBase []int32   // slot -> first index into edges
	copies    []int32   // slot*m + pkt -> forwarding copies still to send
	niDone    []float64 // slot -> NI completion time (-1 = not complete)
	hostDone  []float64 // slot -> host completion time

	edges []edgeTo // flattened child edges, grouped by slot
	chans []int    // every edge's route channels, back to back

	flat   *tree.Flat // the tree shape the table was built for
	routed uint64     // routesGen the chans came from; 0 = refill them
}

// edgeTo is one tree edge; its route is chans[lo:hi] of its table.
type edgeTo struct {
	child, lo, hi int32
}

// qop is one pending injection in a host's NI queue.
type qop struct {
	sess   int32
	edge   int32
	packet int32
}

// hostQueue is an NI send queue consumed by head index, so its backing
// array survives the whole run (and, via the pool, across runs).
type hostQueue struct {
	ops  []qop
	head int
}

// Event kinds: the session start, a packet copy leaving the sending NI, a
// packet fully received, and the Conventional discipline's host-level
// store-and-forward copy.
const (
	evStart uint8 = iota
	evComplete
	evDeliver
	evFwd
)

// pevent is one scheduled event. ord is its seq — the FIFO tiebreaker
// among same-time events, assigned in creation order; every event holds its
// real seq when it enters a queue. arg is the packet index (complete,
// deliver) or the edge index (fwd).
type pevent struct {
	at   float64
	ord  uint64
	kind uint8
	sess int32
	host int32
	arg  int32
}

// eventQueue is the package's one event kernel: pending events of payload
// E (the session model's pevents, Engine's closures), popped in exact
// (at, seq) order from a FIFO bucket per distinct event time under a binary
// min-heap of those times.
//
// FIFO within a time is seq order because every event is pushed as it is
// created, in seq order: the model's seqs come from one counter (model.ctr),
// pushed by the serial loop or by the windowed barrier in resolve order, and
// Engine's seq is its At order. An event created at the time being drained
// (zero host overheads, a one-timestamp window, At(Now(), f)) appends to
// the open bucket behind everything in it, or opens a new one if its last
// event was just popped; either way, where its later seq belongs.
//
// Buckets are keyed by the bits of at+0, which folds -0 into +0: the two
// compare equal, so they are one time. NaN cannot reach the queue:
// Params.Validate, build's Session.Start check and Engine.At refuse it.
type eventQueue[E any] struct {
	times   []qtime          // min-heap of the open buckets' times
	buckets []bucket[E]      // open and free buckets, storage kept
	free    []int32          // empty buckets
	index   map[uint64]int32 // time bits -> open bucket
	// recent holds the last two buckets pushed to, so that most pushes skip
	// the index: resolving an injection pushes a completion and then a
	// delivery, and runs of injections share both times. A closed bucket
	// leaves it; an empty entry holds NaN, which equals no time.
	recent [2]qtime
}

type qtime struct {
	at float64
	b  int32
}

type bucket[E any] struct {
	evs  []E
	head int
}

// reset empties the queue, keeping every bucket's storage. A queue must be
// reset before its first push.
func (q *eventQueue[E]) reset() {
	if q.index == nil {
		q.index = make(map[uint64]int32)
	}
	clear(q.index)
	q.recent = [2]qtime{{at: math.NaN()}, {at: math.NaN()}}
	q.times, q.free = q.times[:0], q.free[:0]
	for i := range q.buckets {
		q.buckets[i].evs, q.buckets[i].head = q.buckets[i].evs[:0], 0
		q.free = append(q.free, int32(i))
	}
}

func (q *eventQueue[E]) empty() bool { return len(q.times) == 0 }

// min is the earliest pending time; the queue must not be empty.
func (q *eventQueue[E]) min() float64 { return q.times[0].at }

// push queues ev at time at, behind every event already pending at at.
func (q *eventQueue[E]) push(at float64, ev E) {
	var b int32
	switch {
	case q.recent[0].at == at:
		b = q.recent[0].b
	case q.recent[1].at == at:
		b = q.recent[1].b
		q.recent[0], q.recent[1] = q.recent[1], q.recent[0]
	default:
		key := math.Float64bits(at + 0)
		var ok bool
		if b, ok = q.index[key]; !ok {
			b = q.open(key, at)
		}
		q.recent[1], q.recent[0] = q.recent[0], qtime{at, b}
	}
	q.buckets[b].evs = append(q.buckets[b].evs, ev)
}

// open starts a bucket for a time not yet pending.
func (q *eventQueue[E]) open(key uint64, at float64) int32 {
	var b int32
	if n := len(q.free); n > 0 {
		b = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		b = int32(len(q.buckets))
		q.buckets = append(q.buckets, bucket[E]{})
	}
	q.index[key] = b
	h := append(q.times, qtime{at, b})
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !(h[i].at < h[parent].at) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.times = h
	return b
}

// pop removes the earliest event, due at min(); the queue must not be
// empty.
func (q *eventQueue[E]) pop() E {
	at, b := q.times[0].at, q.times[0].b
	bk := &q.buckets[b]
	ev := bk.evs[bk.head]
	bk.head++
	if bk.head < len(bk.evs) {
		return ev
	}
	bk.evs, bk.head = bk.evs[:0], 0
	delete(q.index, math.Float64bits(at+0))
	for i := range q.recent {
		if q.recent[i].b == b {
			q.recent[i].at = math.NaN()
		}
	}
	q.free = append(q.free, b)
	h := q.times
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l].at < h[least].at {
			least = l
		}
		if r < n && h[r].at < h[least].at {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	q.times = h
	return ev
}

// Action kinds. Actions are the shared-state effects of processing one
// event, recorded in creation order.
const (
	aIntent     uint8 = iota // host v wants to inject (sess, edge, packet) at time at
	aDeliverRec              // trace-only: a packet was received
	aDone                    // a destination completed its message at NI time at
	aFwd                     // a Conventional forward event was created for time at
)

// action carries one deferred effect plus its creator event's key, so the
// windowed barrier can merge all workers' streams into processing order.
type action struct {
	cAt    float64 // creator event time
	cOrd   uint64  // creator event seq
	idx    uint32  // creation index within the creator event
	kind   uint8
	sess   int32
	host   int32
	packet int32
	edge   int32
	at     float64
}

// worker is one scheduler lane: an event queue and the action stream of
// the events processed since the last resolution. The serial scheduler
// uses exactly one.
type worker struct {
	q         eventQueue[pevent]
	actions   []action
	processed int
	copies    []stepsim.Copy // enqueue's scratch

	// creator key of the event currently being processed; emit copies it
	// into each action.
	cAt  float64
	cOrd uint64
	idx  uint32

	_ [64]byte // keeps neighboring workers' hot fields off one cache line
}

// emit records one action under the current creator key.
func (w *worker) emit(a action) {
	a.cAt, a.cOrd, a.idx = w.cAt, w.cOrd, w.idx
	w.idx++
	w.actions = append(w.actions, a)
}

// model is one packet-level run plus its recyclable carcass: session
// tables, per-host NI state, channel occupancy, route cache and scheduler
// lanes are drawn from the modelFree list, so a steady-state run allocates
// only what escapes to the caller (the result and its maps). Host state is
// invalidated by epoch stamp, so a 100k-host table resets in O(involved
// hosts), not O(hosts).
type model struct {
	p      Params
	disc   stepsim.Discipline
	router routing.Router
	wire   float64
	ports  int32
	specs  []Session

	numHosts int
	tabs     []*sessTab

	// per-host NI state, indexed by host id; written only by the worker
	// processing the host's events, reset lazily by epoch stamp.
	inFlight  []int32 // copies being injected (bounded by Params.Ports)
	buffered  []int32
	maxBuf    []int32
	queues    []hostQueue
	hostEpoch []uint64
	epoch     uint64
	involved  []int32

	chanFree []float64
	// routes caches the channels of router.Route(parent, child), keyed by
	// parent<<32 | child, for every tree edge seen since the cache was last
	// keyed to a different router. Routes depend only on the router and
	// the endpoints, so the cache survives across runs until the router
	// changes.
	routes    map[uint64][]int
	routesGen uint64                   // bumped whenever routes is cleared
	cfgRoutes map[[2]int]routing.Route // caller-supplied, consulted first
	found     [][]int                  // fillTab: per edge, its cfgRoutes channels
	ctr       uint64                   // last seq handed out

	res    *ConcurrentResult
	traced bool
	trace  []TraceEvent

	// Scheduler state. wEnd is the end of the window being processed
	// (windowed scheduler only): events firing before it are processed
	// before its actions are resolved. owner maps hosts to workers; it is
	// empty under the serial scheduler, whose one worker owns everything.
	workers []worker
	wEnd    float64
	owner   []int32
	heads   []int // barrier merge cursors
	crossed int
}

// modelFree is the free list of run carcasses — host tables, session
// tables, event queues, the route cache — that the next run reuses. It is
// owned, not a sync.Pool: a pool is emptied by the collector, which turned
// a ~120-allocation 10k-host run into a ~19,600-allocation one whenever two
// GC cycles fell between runs. More runs than GOMAXPROCS cannot be on a
// CPU at once, so that many carcasses is all the list keeps; a run that
// finds it full leaves its carcass to the collector.
var modelFree = make(chan *model, runtime.GOMAXPROCS(0))

// run executes sessions under the serial scheduler (cfg nil) or the
// windowed one.
func run(router routing.Router, sessions []Session, p Params, disc stepsim.Discipline, traced bool, cfg *WindowConfig) (*ConcurrentResult, []TraceEvent) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	// Refused here, on the caller's goroutine: the first code to switch on
	// the discipline runs on a pool goroutine under the windowed scheduler,
	// where a panic is beyond any recover.
	if err := disc.Validate(); err != nil {
		panic("sim: " + err.Error())
	}
	if len(sessions) == 0 {
		panic("sim: no sessions")
	}
	var e *model
	select {
	case e = <-modelFree:
	default:
		e = &model{routes: make(map[uint64][]int)}
	}
	defer func() {
		e.specs, e.res, e.trace, e.cfgRoutes = nil, nil, nil, nil
		select {
		case modelFree <- e:
		default:
		}
	}()
	e.p, e.disc, e.traced = p, disc, traced
	e.wire, e.ports = p.WireTime(), int32(p.Ports())
	if cfg == nil {
		e.build(router, sessions, nil)
		e.runSerial()
	} else {
		e.build(router, sessions, cfg.Routes)
		e.runWindowed(cfg)
	}
	e.finish()
	return e.res, e.trace
}

// build sizes the run state for the router's network and fills one table
// per session.
func (e *model) build(router routing.Router, sessions []Session, routes map[[2]int]routing.Route) {
	net := router.Network()
	e.specs = sessions
	e.numHosts = net.NumHosts()
	e.cfgRoutes = routes
	if e.router != router {
		// Route cache keyed to the router by identity: a new router (new
		// topology or rebuilt tables) invalidates everything; reusing the
		// same router — the harness and benchmark steady state — keeps
		// every previously computed route.
		e.router = router
		clear(e.routes)
		e.routesGen++
	}

	e.chanFree = resize(e.chanFree, net.NumChannels())
	clear(e.chanFree)
	if n := e.numHosts; cap(e.inFlight) < n {
		e.inFlight = make([]int32, n)
		e.buffered = make([]int32, n)
		e.maxBuf = make([]int32, n)
		e.queues = make([]hostQueue, n)
		e.hostEpoch = make([]uint64, n)
	} else {
		e.inFlight = e.inFlight[:n]
		e.buffered = e.buffered[:n]
		e.maxBuf = e.maxBuf[:n]
		e.queues = e.queues[:n]
		e.hostEpoch = e.hostEpoch[:n]
	}
	e.epoch++
	e.involved = e.involved[:0]

	// Tables are kept, with their storage, for the next run: growing
	// re-exposes every table the backing array still holds.
	if n := cap(e.tabs); n < len(sessions) {
		e.tabs = append(e.tabs[:n], make([]*sessTab, len(sessions)-n)...)
	}
	e.tabs = e.tabs[:len(sessions)]
	for si, sess := range sessions {
		if sess.Packets < 1 {
			panic(fmt.Sprintf("sim: session %d has %d packets", si, sess.Packets))
		}
		// Stated positively because NaN compares false against every
		// threshold (see Params.Validate): a non-finite start would
		// otherwise poison every session's times.
		if !(sess.Start >= 0 && sess.Start <= math.MaxFloat64) {
			panic(fmt.Sprintf("sim: session %d starts at %f", si, sess.Start))
		}
		if e.tabs[si] == nil {
			e.tabs[si] = &sessTab{}
		}
		e.fillTab(e.tabs[si], sess)
	}

	e.res = &ConcurrentResult{
		Sessions:    make([]SessionResult, len(sessions)),
		MaxBuffered: map[int]int{},
	}
}

// fillTab populates one session table, reusing the previous run's
// storage. The table keeps its shape while the session's tree does (the
// same tree.Flat), and its routes while they came from a route cache not
// cleared since; a new shape clears the slot index via the previous node
// list, so reset cost scales with session size, not host count.
func (e *model) fillTab(tab *sessTab, sess Session) {
	f := sess.Tree.Flat()
	n := len(f.Nodes)
	if tab.flat != f || len(tab.slot) != e.numHosts {
		for _, v := range tab.nodes {
			if int(v) < len(tab.slot) {
				tab.slot[v] = 0
			}
		}
		tab.slot = resize(tab.slot, e.numHosts)
		tab.nodes = resize(tab.nodes, n)
		tab.parent = resize(tab.parent, n)
		tab.deg = resize(tab.deg, n)
		tab.childBase = resize(tab.childBase, n)
		tab.edges = tab.edges[:0]
		for slot, v := range f.Nodes {
			tab.nodes[slot] = int32(v)
			tab.slot[v] = int32(slot + 1)
			tab.parent[slot] = int32(f.Parent[slot])
			children := f.Kids[f.KidsAt[slot]:f.KidsAt[slot+1]]
			tab.deg[slot] = int32(len(children))
			tab.childBase[slot] = int32(len(tab.edges))
			for _, c := range children {
				tab.edges = append(tab.edges, edgeTo{child: int32(c)})
			}
		}
		tab.flat, tab.routed = f, 0
	}
	m := sess.Packets
	tab.m, tab.start = m, sess.Start
	tab.recv = resize(tab.recv, n)
	tab.copies = resize(tab.copies, n*m)
	tab.niDone = resize(tab.niDone, n)
	tab.hostDone = resize(tab.hostDone, n)
	for slot, v := range tab.nodes {
		tab.recv[slot], tab.niDone[slot], tab.hostDone[slot] = 0, -1, -1
		e.touch(v)
	}
	if e.cfgRoutes == nil && tab.routed == e.routesGen {
		return
	}

	// The caller's routes come first, read in one pass over their table:
	// a probe per edge misses the cache on nearly every edge of a large
	// tree.
	e.found = resize(e.found, len(tab.edges))
	for k, r := range e.cfgRoutes {
		v := k[0]
		if v < 0 || v >= e.numHosts || tab.slot[v] == 0 {
			continue
		}
		s := tab.slot[v] - 1
		for j := tab.childBase[s]; j < tab.childBase[s]+tab.deg[s]; j++ {
			if int(tab.edges[j].child) == k[1] {
				if r.Src != v || r.Dst != k[1] {
					panic(fmt.Sprintf("sim: Routes entry for edge %d->%d holds the route %d->%d", v, k[1], r.Src, r.Dst))
				}
				e.found[j] = r.Channels
			}
		}
	}
	tab.chans = tab.chans[:0]
	for slot, v := range tab.nodes {
		for j := tab.childBase[slot]; j < tab.childBase[slot]+tab.deg[slot]; j++ {
			ed := &tab.edges[j]
			ch := e.found[j]
			if ch == nil {
				ch = e.route(int(v), int(ed.child))
			}
			e.found[j] = nil
			ed.lo = int32(len(tab.chans))
			tab.chans = append(tab.chans, ch...)
			ed.hi = int32(len(tab.chans))
		}
	}
	tab.routed = e.routesGen
	if e.cfgRoutes != nil {
		tab.routed = 0
	}
}

// route resolves the channels of parent->child from the router-keyed
// cache, else from the router itself.
func (e *model) route(v, c int) []int {
	key := uint64(v)<<32 | uint64(c)
	if ch, ok := e.routes[key]; ok {
		return ch
	}
	ch := e.router.Route(v, c).Channels
	e.routes[key] = ch
	return ch
}

// touch resets host h's NI state on first use this run.
func (e *model) touch(h int32) {
	if e.hostEpoch[h] != e.epoch {
		e.hostEpoch[h] = e.epoch
		e.involved = append(e.involved, h)
		e.inFlight[h], e.buffered[h], e.maxBuf[h] = 0, 0, 0
		q := &e.queues[h]
		q.ops, q.head = q.ops[:0], 0
	}
}

// resetWorkers sizes the scheduler lanes and mails the initial events:
// one start per session, holding seqs 1..S.
func (e *model) resetWorkers(n int) {
	e.workers = resize(e.workers, n)
	for i := range e.workers {
		w := &e.workers[i]
		w.q.reset()
		w.actions = w.actions[:0]
	}
	e.ctr = uint64(len(e.specs))
	for si, sess := range e.specs {
		e.mail(pevent{
			at:   sess.Start + e.p.THostSend,
			ord:  uint64(si + 1),
			kind: evStart,
			sess: int32(si),
			host: int32(sess.Tree.Root()),
		})
	}
}

// mail hands a created event to the queue of the worker owning its host:
// the one queue when serial.
func (e *model) mail(ev pevent) {
	w := &e.workers[0]
	if len(e.owner) > 0 {
		w = &e.workers[e.owner[ev.host]]
	}
	w.q.push(ev.at, ev)
}

// process runs one event against its host's local state, recording the
// shared-state effects as actions on w.
func (e *model) process(w *worker, ev *pevent) {
	w.cAt, w.cOrd, w.idx = ev.at, ev.ord, 0
	switch ev.kind {
	case evStart:
		e.processStart(w, ev)
	case evComplete:
		e.processComplete(w, ev)
	case evDeliver:
		e.processDeliver(w, ev)
	case evFwd:
		e.processFwd(w, ev)
	}
}

// processStart is the session-start callback: the source host has spent
// t_s and its NI now holds all m packets.
func (e *model) processStart(w *worker, ev *pevent) {
	tab := e.tabs[ev.sess]
	slot := int(tab.slot[ev.host]) - 1
	m := tab.m
	tab.recv[slot] = int32(m)
	deg := int(tab.deg[slot])
	if deg == 0 {
		return
	}
	v := ev.host
	e.buffered[v] += int32(m)
	if e.buffered[v] > e.maxBuf[v] {
		e.maxBuf[v] = e.buffered[v]
	}
	base := slot * m
	for j := 0; j < m; j++ {
		tab.copies[base+j] = int32(deg)
		e.enqueue(w, tab, ev.sess, v, slot, j, j == m-1)
	}
	e.pump(w, v, ev.at)
}

// processComplete fires when a packet copy has left the sending NI: the
// copy slot frees, the buffered packet is dropped once its last copy is
// out, and the NI pump restarts.
func (e *model) processComplete(w *worker, ev *pevent) {
	tab := e.tabs[ev.sess]
	slot := int(tab.slot[ev.host]) - 1
	e.inFlight[ev.host]--
	ci := slot*tab.m + int(ev.arg)
	tab.copies[ci]--
	if tab.copies[ci] == 0 {
		e.buffered[ev.host]--
	}
	e.pump(w, ev.host, ev.at)
}

// processDeliver fires when a packet has fully arrived at the receiving
// NI: receive count, trace record, buffer accounting, completion, then
// forwarding per the discipline.
func (e *model) processDeliver(w *worker, ev *pevent) {
	tab := e.tabs[ev.sess]
	slot := int(tab.slot[ev.host]) - 1
	dst := ev.host
	tab.recv[slot]++
	deg := int(tab.deg[slot])
	if e.traced {
		w.emit(action{kind: aDeliverRec, sess: ev.sess, host: dst,
			packet: ev.arg, at: ev.at})
	}
	if deg > 0 {
		tab.copies[slot*tab.m+int(ev.arg)] = int32(deg)
		e.buffered[dst]++
		if e.buffered[dst] > e.maxBuf[dst] {
			e.maxBuf[dst] = e.buffered[dst]
		}
	}
	if int(tab.recv[slot]) == tab.m {
		w.emit(action{kind: aDone, sess: ev.sess, host: dst, at: ev.at})
	}
	if deg == 0 {
		return
	}
	if e.disc != stepsim.Conventional {
		e.enqueue(w, tab, ev.sess, dst, slot, int(ev.arg), int(tab.recv[slot]) == tab.m)
		e.pump(w, dst, ev.at)
	} else if int(tab.recv[slot]) == tab.m {
		// runWindowed ends Conventional windows at the first of these
		// times, computed in this evaluation order.
		base := ev.at + e.p.THostRecv
		cb := tab.childBase[slot]
		for i := 0; i < deg; i++ {
			w.emit(action{kind: aFwd, sess: ev.sess, host: dst,
				edge: cb + int32(i), at: base + float64(i+1)*e.p.THostSend})
		}
	}
}

// processFwd is the Conventional store-and-forward copy: the host software
// hands all m packets for one child to its NI.
func (e *model) processFwd(w *worker, ev *pevent) {
	tab := e.tabs[ev.sess]
	q := &e.queues[ev.host]
	for j := 0; j < tab.m; j++ {
		q.ops = append(q.ops, qop{sess: ev.sess, edge: ev.arg, packet: int32(j)})
	}
	e.pump(w, ev.host, ev.at)
}

// enqueue queues the copies the discipline releases at v once packet pkt
// is available there, through the worker's scratch slice.
func (e *model) enqueue(w *worker, tab *sessTab, si, v int32, slot, pkt int, complete bool) {
	q := &e.queues[v]
	base := tab.childBase[slot]
	w.copies = e.disc.Release(w.copies[:0], tab.m, int(tab.deg[slot]), pkt, complete)
	for _, c := range w.copies {
		q.ops = append(q.ops, qop{sess: si, edge: base + c.Child, packet: c.Packet})
	}
}

// pump starts queued injections while the NI has free ports. Starting one
// is an intent action: the channel reservation and event creation are
// shared-state effects, left to resolve.
func (e *model) pump(w *worker, v int32, now float64) {
	q := &e.queues[v]
	for e.inFlight[v] < e.ports && q.head < len(q.ops) {
		o := q.ops[q.head]
		q.head++
		e.inFlight[v]++
		w.emit(action{kind: aIntent, sess: o.sess, host: v,
			edge: o.edge, packet: o.packet, at: now})
	}
	if q.head == len(q.ops) {
		q.ops, q.head = q.ops[:0], 0
	}
}

// resolve performs one action against shared state. Everything whose
// order across hosts matters lives here: the float additions that make up
// ChannelWait, and seq assignment — complete before deliver, so that at
// router delay zero a packet has left its sender before it arrives.
func (e *model) resolve(act *action) {
	switch act.kind {
	case aIntent:
		tab := e.tabs[act.sess]
		ed := &tab.edges[act.edge]
		chans := tab.chans[ed.lo:ed.hi]
		v := int(act.host)
		earliest := act.at + e.p.TNISend
		start, arrive := reservePath(e.chanFree, chans, earliest, e.wire, e.p.RouterDelay)
		e.res.ChannelWait += start - earliest
		e.res.Sends++
		if e.traced {
			e.trace = append(e.trace, TraceEvent{
				Kind: "inject", Time: start, Host: v, Peer: int(ed.child),
				Session: int(act.sess), Packet: int(act.packet), Wait: start - earliest,
			})
		}
		e.ctr++
		e.mail(pevent{at: start + e.wire, ord: e.ctr, kind: evComplete,
			sess: act.sess, host: act.host, arg: act.packet})
		e.ctr++
		e.mail(pevent{at: arrive + e.p.TNIRecv, ord: e.ctr, kind: evDeliver,
			sess: act.sess, host: ed.child, arg: act.packet})
		if len(e.owner) > 0 && e.owner[act.host] != e.owner[ed.child] {
			e.crossed++
		}
	case aDeliverRec:
		tab := e.tabs[act.sess]
		e.trace = append(e.trace, TraceEvent{
			Kind: "deliver", Time: act.at, Host: int(act.host), Peer: int(tab.parent[tab.slot[act.host]-1]),
			Session: int(act.sess), Packet: int(act.packet),
		})
	case aDone:
		tab := e.tabs[act.sess]
		slot := int(tab.slot[act.host]) - 1
		tab.niDone[slot] = act.at
		tab.hostDone[slot] = act.at + e.p.THostRecv
		if e.traced {
			e.trace = append(e.trace, TraceEvent{
				Kind: "done", Time: act.at + e.p.THostRecv, Host: int(act.host),
				Peer: -1, Session: int(act.sess), Packet: -1,
			})
		}
	case aFwd:
		e.ctr++
		e.mail(pevent{at: act.at, ord: e.ctr, kind: evFwd,
			sess: act.sess, host: act.host, arg: act.edge})
	}
}

// finish assembles the ConcurrentResult from the session tables.
func (e *model) finish() {
	for si, tab := range e.tabs[:len(e.specs)] {
		sr := &e.res.Sessions[si]
		sr.NIDone = make(map[int]float64, len(tab.nodes)-1)
		sr.HostDone = make(map[int]float64, len(tab.nodes)-1)
		last := 0.0
		for slot, v := range tab.nodes {
			if tab.niDone[slot] >= 0 {
				sr.NIDone[int(v)] = tab.niDone[slot]
				sr.HostDone[int(v)] = tab.hostDone[slot]
				last = math.Max(last, tab.hostDone[slot])
			}
			if got := int(tab.recv[slot]); got != tab.m {
				panic(fmt.Sprintf("sim: session %d node %d received %d of %d packets",
					si, v, got, tab.m))
			}
		}
		if last > 0 {
			sr.Latency = last - tab.start
		}
		e.res.Makespan = math.Max(e.res.Makespan, last)
	}
	for _, v := range e.involved {
		forwarder := false
		for _, tab := range e.tabs[:len(e.specs)] {
			if s := tab.slot[v]; s > 0 && tab.deg[s-1] > 0 {
				forwarder = true
			}
		}
		if forwarder {
			e.res.MaxBuffered[int(v)] = int(e.maxBuf[v])
		}
	}
}

// resize returns s with length n, reallocated only when it lacks the
// capacity; kept elements keep their values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
