package live

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/live/link"
	"repro/internal/membership"
	"repro/internal/reliable"
	"repro/internal/workload"
)

// This file is the in-process driver of the reliable protocol. The
// protocol itself is shared with the multi-process daemon: EdgeSender
// (per-edge retransmission), ReliableNI (the receive loop), Pump (the
// wall-clock detector loop) and reliable.Brain (tree shape and Fig.-11
// repair). What lives here is what only this engine has: scheduled crash
// windows, in-process links and ACK routes, and the result.
//
// Concurrency layout (strict ownership, like the lossless engine):
//   - one NI goroutine per host: drains the inbox, dedups, ACKs,
//     forwards novel packets to its child edges, reassembles, heartbeats;
//   - one sender goroutine per live tree edge: owns the edge's pending
//     set and retransmission timers, sends serially in sequence order;
//   - the supervisor (RunReliable's goroutine): drives the brain and the
//     membership detector, and decides termination.
// The only cross-goroutine mutable cells are atomics: the global epoch
// register, written by the supervisor on view changes and read by
// senders (stamping) and receivers (fencing), and each NI's ACK route.
// All other coordination is by channel.

// HostCrash schedules a crash-stop of one host's NI goroutine at a
// wall-clock offset from run start: from At on the NI silently eats every
// frame addressed to it (releasing buffer slots so senders never wedge),
// stops heartbeating and acknowledging, and its outgoing sends vanish. If
// RecoverAt > At the host rejoins at RecoverAt amnesiac — reassembly and
// dedup state lost — and is re-adopted with a full replay; RecoverAt == 0
// means it never comes back.
type HostCrash struct {
	Host      int
	At        time.Duration
	RecoverAt time.Duration
}

// CrashStop reports whether the crash is permanent.
func (c HostCrash) CrashStop() bool { return c.RecoverAt == 0 }

// ReliableConfig tunes one RunReliable execution.
type ReliableConfig struct {
	// Live carries the base runtime knobs: BufferPackets, LinkLatency and
	// the watchdog Timeout (the liveness backstop of the whole protocol).
	Live Config
	// Faults is the transport chaos plane (zero = lossless edges).
	Faults link.Faults
	// Crashes schedules NI crash-stops; a non-empty schedule arms the
	// membership plane (heartbeats, epochs, fencing, adoption).
	Crashes []HostCrash
	// RTO is the base retransmission timeout; it doubles per attempt up to
	// RTOMax, widened by seeded jitter.
	RTO, RTOMax time.Duration
	// RetryBudget is the maximum retransmissions per (edge incarnation,
	// packet) before the edge is declared dead and its subtree repaired or
	// orphaned.
	RetryBudget int
	// MaxRegrafts bounds adoptions per destination before abandonment.
	MaxRegrafts int
	// Quorum is the minimum completing destinations for a crash-shortened
	// run to count as DeliveredPartial (<= 0: all destinations required).
	Quorum int
	// Heartbeat parameterizes the failure detector; consulted only when
	// Crashes is non-empty.
	Heartbeat HeartbeatParams
}

// DefaultReliableConfig returns wall-clock defaults: RTO comfortably
// above scheduler noise, a detector that confirms in tens of
// milliseconds.
func DefaultReliableConfig() ReliableConfig {
	return ReliableConfig{
		RTO:         25 * time.Millisecond,
		RTOMax:      200 * time.Millisecond,
		RetryBudget: 8,
		MaxRegrafts: 4,
		Heartbeat: HeartbeatParams{
			Every:        5 * time.Millisecond,
			SuspectAfter: 16 * time.Millisecond,
			ConfirmAfter: 12 * time.Millisecond,
			JitterFrac:   0.25,
		},
	}
}

// validate rejects a malformed configuration.
func (cfg ReliableConfig) validate() error {
	if err := cfg.Faults.Validate(); err != nil {
		return err
	}
	if cfg.RTO <= 0 || cfg.RTOMax < cfg.RTO {
		return fmt.Errorf("live: invalid RTO %v / cap %v", cfg.RTO, cfg.RTOMax)
	}
	if cfg.RetryBudget < 1 || cfg.MaxRegrafts < 1 {
		return fmt.Errorf("live: retry budget %d / regraft bound %d must be >= 1",
			cfg.RetryBudget, cfg.MaxRegrafts)
	}
	seen := map[int]bool{}
	for _, c := range cfg.Crashes {
		if c.Host < 0 || c.At < 0 {
			return fmt.Errorf("live: invalid crash %+v", c)
		}
		if c.RecoverAt != 0 && c.RecoverAt <= c.At {
			return fmt.Errorf("live: host %d recovery %v not after crash %v", c.Host, c.RecoverAt, c.At)
		}
		if seen[c.Host] {
			return fmt.Errorf("live: host %d crashed more than once", c.Host)
		}
		seen[c.Host] = true
	}
	if len(cfg.Crashes) > 0 {
		hb := cfg.Heartbeat
		if hb.Every <= 0 || hb.SuspectAfter <= hb.Every || hb.ConfirmAfter <= 0 {
			return fmt.Errorf("live: invalid heartbeat params %+v", hb)
		}
	}
	return nil
}

// EpochAccept is one novel packet acceptance while the membership plane
// was armed: which epoch the packet traveled under, per receiving host.
type EpochAccept struct {
	Host, Packet, Epoch int
	At                  time.Duration
}

// ReliableResult reports one RunReliable execution. Like the simulator's
// reliable.Result it is returned alongside *CrashError/*DeliveryError, so
// callers can inspect partial outcomes.
type ReliableResult struct {
	// Status is the delivery verdict, with the simulator's semantics.
	Status reliable.Status
	// Hosts holds a record per tree node (Data nil for the root and for
	// destinations that never completed).
	Hosts map[int]*HostRecord
	// Latency is run start to the last completing destination; Wall is run
	// start to teardown.
	Latency, Wall time.Duration
	Packets       int
	// Sends counts data-frame injections; Retransmits of those were repeat
	// attempts. Duplicates were suppressed by receivers, Fenced discarded
	// for stale epochs (data and ACKs).
	Sends, Retransmits, Duplicates, Fenced int
	// Adoptions counts subtree re-grafts (crash adoption, recovery
	// re-admission, and loss/kill repair).
	Adoptions int
	// Epoch is the final membership epoch (0 when never armed); Views the
	// installed epoch-numbered views.
	Epoch int
	Views []membership.View
	// Crashed lists hosts down at teardown; Orphaned destinations left
	// without the full payload, ascending.
	Crashed, Orphaned []int
	// Accepts is the epoch-stamp trace of novel acceptances (armed runs).
	Accepts []EpochAccept
	// Faults snapshots the chaos plane's counters; CrashDrops counts
	// frames eaten by a down NI.
	Faults     link.ChaosStats
	CrashDrops int
}

// rctl is a message to the supervisor.
type rctl struct {
	kind rctlKind
	host int // beat/done/rejoin: reporting host; exhausted: sending endpoint
	to   int // exhausted: receiving endpoint
	at   time.Duration
}

type rctlKind int

const (
	ctlBeat rctlKind = iota
	ctlDone
	ctlExhausted
	// ctlRejoin: an NI served its first frame after a crash window and wiped
	// its state. The supervisor must re-graft it on a fresh edge with a full
	// replay: its old parent edge holds pre-crash ACKs for packets the crash
	// erased, and plain retransmission would never resend those.
	ctlRejoin
)

// ackRoute is one NI's way back to its parent: the edge incarnation to
// acknowledge, stored by the supervisor when it installs an edge and
// loaded by the NI on every frame. The brain retires a child's old parent
// edge before installing the next, so one slot is enough; frames still
// arriving from a retired edge go unacknowledged, which nobody awaits.
type ackRoute struct {
	parent atomic.Pointer[EdgeSender]
	rng    *workload.RNG // chaos ACK-drop stream
}

// rrt is the shared state of one reliable run; it is the reliable.Runtime
// the repair brain drives.
type rrt struct {
	cfg   ReliableConfig
	s     Session
	m     int // packets
	root  int
	start time.Time
	abort chan struct{}
	ctl   chan rctl
	chaos *link.Chaos
	// epoch is the global fence register: 0 while the membership plane is
	// unarmed, otherwise the latest installed view's epoch. Senders stamp
	// it into outgoing frames; receivers discard frames below it. Only the
	// supervisor stores; the value never decreases.
	epoch  atomic.Int64
	wg     sync.WaitGroup
	detach func() // undoes buildReliableFabric's attach to Live.Network

	crashes map[int]HostCrash // by host; immutable after start
	nis     map[int]*ReliableNI
	acks    map[int]*ackRoute

	// Supervisor-owned (no other goroutine touches these after start):
	edges    map[[2]int]*EdgeSender // live incarnations, for Retire
	allEdges []*EdgeSender
	done     map[int]bool // destinations that reported completion
	brain    *reliable.Brain
	det      *membership.Detector
	views    []membership.View
	rootDown bool
}

// down reports whether host h is inside its scheduled crash window at
// offset t. It is called from NI and sender goroutines.
func (rt *rrt) down(h int, t time.Duration) bool {
	c, ok := rt.crashes[h]
	return ok && t >= c.At && (c.CrashStop() || t < c.RecoverAt)
}

// RunReliable executes one session under the reliable protocol and the
// configured fault plane, blocking until every awaited destination has
// the full payload, the quorum verdict is settled, or the watchdog fires.
// Like reliable.Deliver it returns the result alongside a typed error
// (*reliable.CrashError, *reliable.DeliveryError) on shortfalls; a
// *WatchdogError (nil result) means the protocol itself stalled.
func RunReliable(s Session, cfg ReliableConfig) (*ReliableResult, error) {
	if err := s.validate(0); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Live.BufferPackets < 0 {
		return nil, fmt.Errorf("live: negative buffer bound %d", cfg.Live.BufferPackets)
	}
	if cfg.Live.Timeout <= 0 {
		cfg.Live.Timeout = DefaultTimeout
	}
	chaos, err := link.NewChaos(cfg.Faults)
	if err != nil {
		return nil, err
	}
	crashes := map[int]HostCrash{}
	for _, c := range cfg.Crashes {
		if !s.Tree.Contains(c.Host) {
			return nil, fmt.Errorf("live: crash of host %d outside the tree", c.Host)
		}
		crashes[c.Host] = c
	}

	rt := &rrt{
		cfg:     cfg,
		s:       s,
		m:       len(s.Packets),
		root:    s.Tree.Root(),
		abort:   make(chan struct{}),
		chaos:   chaos,
		crashes: crashes,
		nis:     map[int]*ReliableNI{},
		acks:    map[int]*ackRoute{},
		edges:   map[[2]int]*EdgeSender{},
		done:    map[int]bool{},
	}
	rt.brain = reliable.NewBrain(s.Tree, cfg.MaxRegrafts, rt)
	// Sized so that NI reports (a beat per period, a completion, a rejoin)
	// and edge exhaustions queue up behind a busy supervisor instead of
	// blocking their goroutines.
	rt.ctl = make(chan rctl, 8*s.Tree.Size()+64)

	// A non-empty crash schedule arms the membership plane.
	if len(cfg.Crashes) > 0 {
		det, err := cfg.Heartbeat.NewDetector(cfg.Faults.Seed, s.Tree.Nodes())
		if err != nil {
			return nil, err
		}
		rt.det = det
		rt.epoch.Store(int64(det.Epoch()))
		rt.views = append(rt.views, det.View())
	}

	if err := rt.buildReliableFabric(); err != nil {
		return nil, err
	}
	rt.start = time.Now()
	chaos.Start(rt.start)
	for _, n := range rt.nis {
		rt.wg.Add(1)
		go func(n *ReliableNI) { defer rt.wg.Done(); n.Run(rt.start) }(n)
	}
	for _, e := range rt.allEdges {
		rt.spawn(e)
	}
	return rt.supervise()
}

func (rt *rrt) spawn(e *EdgeSender) {
	rt.wg.Add(1)
	go func() { defer rt.wg.Done(); e.Run() }()
}

// report queues one NI or edge report for the supervisor. Beats are lossy
// by design (a missed beat is just silence); everything else waits for
// room, unless the run is already tearing down.
func (rt *rrt) report(c rctl) {
	if c.kind == ctlBeat {
		select {
		case rt.ctl <- c:
		default:
		}
		return
	}
	select {
	case rt.ctl <- c:
	case <-rt.abort:
	}
}

// buildReliableFabric constructs NIs for every tree node and edge
// senders for every tree edge. The root's NI starts holding all m
// packets, so edge seeding is uniform: every NI replays its held packets
// into a newly attached child edge, packet-major like FPFS injection.
// With Live.Network set, every NI is attached to the network before any
// edge is dialed (link.AttachAll); chaos decoration wraps the dialed
// transports the same way it wraps in-process links.
func (rt *rrt) buildReliableFabric() error {
	slots := rt.cfg.Live.BufferPackets
	capacity := 4*rt.m + 16
	if slots > 0 {
		capacity = slots
	}
	ncfg := ReliableNIConfig{
		MsgID:   rt.s.MsgID,
		Packets: rt.m,
		Abort:   rt.abort,
		Epoch:   func() int { return int(rt.epoch.Load()) },
		Trace:   true,
		Ack: func(host, from, seq, epoch int) {
			r := rt.acks[host]
			if e := r.parent.Load(); e != nil && e.From() == from && !rt.chaos.AckDrop(r.rng) {
				e.Ack(EdgeAck{Seq: seq, Epoch: epoch})
			}
		},
		OnDone: func(host int, at time.Duration) {
			rt.report(rctl{kind: ctlDone, host: host, at: at})
		},
	}
	if rt.det != nil {
		ncfg.Down = rt.down
		ncfg.OnRejoin = func(host int, at time.Duration) {
			rt.report(rctl{kind: ctlRejoin, host: host, at: at})
		}
		ncfg.BeatEvery = rt.cfg.Heartbeat.Every
		ncfg.OnBeat = func(host int, at time.Duration) {
			if !rt.down(host, at) {
				rt.report(rctl{kind: ctlBeat, host: host, at: at})
			}
		}
	}
	var inboxes map[int]*link.Inbox // what AttachAll attaches; nil, and free, on the in-process fabric
	if rt.cfg.Live.Network != nil {
		inboxes = map[int]*link.Inbox{}
	}
	for _, v := range rt.s.Tree.Nodes() {
		ncfg.Host, ncfg.Root = v, v == rt.root
		ncfg.Inbox = link.NewInbox(v, capacity, slots)
		rt.nis[v] = NewReliableNI(ncfg)
		rt.acks[v] = &ackRoute{rng: rt.chaos.AckRNG(v)}
		if inboxes != nil {
			inboxes[v] = ncfg.Inbox
		}
	}
	var err error
	if rt.detach, err = link.AttachAll(rt.cfg.Live.Network, inboxes); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	// Initial children are wired statically (the NI goroutines have not
	// started), ascending per parent for a deterministic packet-major
	// seeding order.
	edges := rt.s.Tree.Edges()
	sort.Slice(edges, func(i, j int) bool { return edges[i].Child < edges[j].Child })
	for _, e := range edges {
		rt.nis[e.Parent].Wire(rt.newEdge(e.Parent, e.Child))
	}
	return nil
}

// newEdge creates one directed edge incarnation: the (chaos-wrapped)
// transport, an EdgeSender bound to this runtime, and the child's ACK
// route to it. Sends are suppressed while the owning host is down (still
// burning retry budget, so a long crash exhausts the edge and triggers
// repair even before the detector confirms), transmissions are stamped
// with the runtime epoch, and both budget exhaustion and transport death
// report ctlExhausted so the brain repairs or abandons the subtree
// behind the edge.
func (rt *rrt) newEdge(a, b int) *EdgeSender {
	var base link.Transport
	if nw := rt.cfg.Live.Network; nw != nil {
		t, err := nw.Dial(a, b)
		if err != nil {
			// A mid-run dial failure (regraft on a closing network) is an
			// instantly dead incarnation: the sender goroutine hits the
			// error on its first send and the edge-exhaustion machinery —
			// built for exactly this — routes around it.
			t = deadTransport{from: a, to: b, err: err}
		}
		base = t
	} else {
		base = link.New(a, rt.nis[b].cfg.Inbox, rt.cfg.Live.LinkLatency)
	}
	exhausted := func() { rt.report(rctl{kind: ctlExhausted, host: a, to: b}) }
	e := NewEdgeSender(rt.chaos.Wrap(base), EdgeSenderConfig{
		Packets:     rt.s.Packets,
		RTO:         rt.cfg.RTO,
		RTOMax:      rt.cfg.RTOMax,
		RetryBudget: rt.cfg.RetryBudget,
		JitterSeed:  rt.cfg.Faults.Seed ^ 0x9e6c_a61b_60ca_77d5 ^ uint64(a+1)<<20 ^ uint64(b+1),
		Abort:       rt.abort,
		Epoch:       func() int { return int(rt.epoch.Load()) },
		Suppressed:  func() bool { return rt.down(a, time.Since(rt.start)) },
		OnExhausted: exhausted,
		OnDead:      func(error) { exhausted() },
	})
	rt.edges[[2]int{a, b}] = e
	rt.allEdges = append(rt.allEdges, e)
	rt.acks[b].parent.Store(e)
	return e
}

// deadTransport is an edge whose dial failed: every Send reports the
// dial error, so the retransmission plane retires it like any other
// dead link.
type deadTransport struct {
	from, to int
	err      error
}

func (d deadTransport) From() int { return d.from }
func (d deadTransport) To() int   { return d.to }
func (d deadTransport) Send([]byte, <-chan struct{}) error {
	return fmt.Errorf("live: edge %d->%d never dialed: %w", d.from, d.to, d.err)
}

// Install, Retire, Alive, Member and Done make rrt the brain's
// reliable.Runtime. Install routes the child's ACKs first (inside
// newEdge) so it can acknowledge the very first replayed frame, then
// attaches the edge to the parent NI, which replays its held packets.
func (rt *rrt) Install(a, b int) {
	e := rt.newEdge(a, b)
	rt.spawn(e)
	rt.nis[a].AddChild(e)
}

// Retire cancels the live incarnation; its sender exits at its next
// select.
func (rt *rrt) Retire(a, b int) {
	key := [2]int{a, b}
	rt.edges[key].Cancel()
	delete(rt.edges, key)
	rt.nis[a].DelChild(b)
}

// Alive consults the crash schedule itself: the in-process engine knows
// when a host is down without waiting for the detector.
func (rt *rrt) Alive(v int) bool { return !rt.down(v, time.Since(rt.start)) }

func (rt *rrt) Member(v int) bool {
	return rt.det == nil || rt.det.Phase(v) != membership.Crashed
}

func (rt *rrt) Done(v int) bool { return rt.done[v] }

// supervise is the supervisor loop: collect heartbeats, completions and
// edge exhaustions; advance the failure detector; let the brain adopt,
// repair or abandon; finish on an empty wait set, root crash, or
// watchdog expiry.
func (rt *rrt) supervise() (*ReliableResult, error) {
	// Destinations awaited for termination: every destination except those
	// scheduled to crash-stop (they can never complete; recovery-scheduled
	// hosts are awaited — the protocol must replay them to completion).
	var awaited []int
	for _, v := range rt.s.Tree.Nodes() {
		if c, crashes := rt.crashes[v]; v != rt.root && !(crashes && c.CrashStop()) {
			awaited = append(awaited, v)
		}
	}

	// The supervisor is the root's protocol brain: if it is running, the
	// root is alive (unless its crash is actually scheduled).
	local := []int{rt.root}
	pump := &Pump[rctl]{
		Det:      rt.det,
		Start:    rt.start,
		Events:   rt.ctl,
		OnEvents: rt.handleEvents,
		Timeout:  rt.cfg.Live.Timeout,
		Local: func(at time.Duration) []int {
			if rt.down(rt.root, at) {
				return nil
			}
			return local
		},
	}
	pump.Handle = func(c rctl) {
		switch c.kind {
		case ctlBeat:
			pump.Witness()
			if c.host != rt.root { // the witness already counted, at a fresher instant
				pump.Beat(c.host, c.at)
			}
		case ctlDone:
			rt.done[c.host] = true
		case ctlExhausted:
			rt.brain.Exhausted(c.host, c.to)
		case ctlRejoin:
			// If the detector already confirmed the crash, its beat-driven
			// Rejoined event re-admits the host with a fresh subtree; grafting
			// here too would just double the churn.
			if rt.det.Phase(c.host) != membership.Crashed {
				rt.brain.Graft(rt.brain.LiveAncestor(c.host), []int{c.host})
			}
		}
	}
	timedOut := pump.Run(func() bool {
		for _, v := range awaited {
			if !rt.done[v] && !rt.brain.Abandoned(v) {
				return rt.rootDown
			}
		}
		return true
	})
	wall := time.Since(rt.start)
	close(rt.abort)
	rt.wg.Wait()
	// The NIs and edge senders are gone; detaching stops the receive pumps
	// and unparks any deliverer still blocked on an inbox gate.
	rt.detach()

	if timedOut {
		e := &WatchdogError{
			Timeout:  rt.cfg.Live.Timeout,
			Missing:  map[int][]int{},
			Progress: map[int][]DestProgress{},
		}
		for _, v := range rt.s.Tree.Nodes() { // ascending
			if n := rt.nis[v]; v != rt.root && n.Data == nil {
				e.Missing[0] = append(e.Missing[0], v)
				e.Progress[0] = append(e.Progress[0], DestProgress{Host: v, Received: n.Held(), Expected: rt.m})
			}
		}
		return nil, e
	}

	// Assemble the result (all goroutines quiescent: reads are race-free,
	// and a completion that raced the verdict still counts).
	res := &ReliableResult{
		Hosts:     map[int]*HostRecord{},
		Wall:      wall,
		Packets:   rt.m,
		Faults:    rt.chaos.Stats(),
		Views:     rt.views,
		Adoptions: rt.brain.Adoptions(),
	}
	if rt.det != nil {
		res.Epoch = rt.det.Epoch()
	}
	dests := 0
	for _, v := range rt.s.Tree.Nodes() {
		n := rt.nis[v]
		rec := &HostRecord{
			Host:     v,
			Arrivals: n.Arrivals,
			Recvs:    n.Recvs,
		}
		res.Duplicates += n.Dups
		res.Fenced += n.Fenced
		res.CrashDrops += n.CrashDrops
		res.Accepts = append(res.Accepts, n.Accepts...)
		if v != rt.root {
			dests++
			if rec.Data, rec.DoneAt = n.Data, n.DoneAt; rec.Data != nil {
				if rec.DoneAt > res.Latency {
					res.Latency = rec.DoneAt
				}
			} else {
				res.Orphaned = append(res.Orphaned, v)
			}
		}
		res.Hosts[v] = rec
	}
	for _, e := range rt.allEdges {
		res.Sends += e.Sends()
		res.Retransmits += e.Retransmits()
		res.Fenced += e.Fenced()
		res.Hosts[e.From()].Sends += e.Sends()
	}
	// Stable: accepts arrive grouped per host in goroutine order, and ties
	// on At must not reorder a host's own chronology (epoch monotonicity
	// per host is an invariant the harness checks).
	sort.SliceStable(res.Accepts, func(i, j int) bool { return res.Accepts[i].At < res.Accepts[j].At })
	for h := range rt.crashes {
		if rt.down(h, wall) {
			res.Crashed = append(res.Crashed, h)
		}
	}
	sort.Ints(res.Crashed)

	var err error
	res.Status, err = reliable.Verdict(dests, res.Orphaned, res.Crashed,
		rt.cfg.Quorum, res.Epoch, rt.det != nil, rt.rootDown)
	return res, err
}

// handleEvents folds a batch of detector events into the runtime: epoch
// register, view log, adoption on confirmation, re-admission on rejoin.
func (rt *rrt) handleEvents(evs []membership.Event) {
	for _, ev := range evs {
		switch ev.Kind {
		case membership.Confirmed:
			rt.epoch.Store(int64(ev.Epoch))
			if ev.Host == rt.root {
				rt.rootDown = true
				return
			}
			rt.brain.Confirmed(ev.Host)
		case membership.Rejoined:
			rt.epoch.Store(int64(ev.Epoch))
			rt.brain.Rejoined(ev.Host)
		}
	}
	if len(rt.views) > 0 && rt.det.Epoch() > rt.views[len(rt.views)-1].Epoch {
		rt.views = append(rt.views, rt.det.View())
	}
}
