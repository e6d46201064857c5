package live

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/live/link"
	"repro/internal/membership"
	"repro/internal/reliable"
	"repro/internal/workload"
)

// This file is the in-process driver of the reliable protocol. The
// protocol itself is shared with the multi-process daemon: EdgeSender
// (per-edge retransmission), ReliableNI (the receive loop), ReliableShare
// (the data plane built from the two: NIs, edge incarnations, ACK routes,
// epoch register, teardown), Pump (the wall-clock detector loop) and
// reliable.Brain (tree shape and Fig.-11 repair). What lives here is what
// only this engine has: scheduled crash windows, the chaos plane's ACK
// loss, the verdict and the result.
//
// Concurrency layout (strict ownership, like the lossless engine):
//   - one NI goroutine per host: drains the inbox, dedups, ACKs,
//     forwards novel packets to its child edges, reassembles, heartbeats;
//   - one sender goroutine per live tree edge: owns the edge's per-packet
//     attempts and its one timer, sends serially in sequence order;
//   - the supervisor (RunReliable's goroutine): drives the brain and the
//     membership detector, and decides termination.
// The only cross-goroutine mutable cells are atomics: the share's epoch
// register, raised by the supervisor on view changes and read by senders
// (stamping) and receivers (fencing), each host's ACK route, and per edge
// the ACK bitmap the receiving NI marks and the sender reads (with its
// fenced count and cancel flag). All other coordination is by channel.

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

// rrt is the driver state of one reliable run. Its data plane is the
// embedded share, every host local — whose Install and Retire, with
// Alive, Member and Done below, make rrt the reliable.Runtime the repair
// brain drives.
type rrt struct {
	*ReliableShare
	cfg   ReliableConfig
	s     Session
	m     int // packets
	root  int
	start time.Time
	ctl   chan rctl
	chaos *link.Chaos

	crashes map[int]HostCrash     // by host; immutable after start
	ackRNG  map[int]*workload.RNG // by host: the chaos plane's ACK-drop streams, each its NI's

	// Supervisor-owned (no other goroutine touches these after start):
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
		chaos:   chaos,
		crashes: crashes,
		ackRNG:  map[int]*workload.RNG{},
		done:    map[int]bool{},
	}
	rt.brain = reliable.NewBrain(s.Tree, cfg.MaxRegrafts, rt)
	// Sized so that NI reports (a beat per period, a completion, a rejoin)
	// and edge exhaustions queue up behind a busy supervisor instead of
	// blocking their goroutines.
	rt.ctl = make(chan rctl, 8*s.Tree.Size()+64)

	scfg := ReliableShareConfig{
		Tree:          s.Tree,
		Local:         s.Tree.Nodes(),
		Network:       cfg.Live.Network,
		LinkLatency:   cfg.Live.LinkLatency,
		BufferPackets: cfg.Live.BufferPackets,
		Chaos:         chaos,
		Edge: EdgeSenderConfig{
			Packets:     s.Packets,
			RTO:         cfg.RTO,
			RTOMax:      cfg.RTOMax,
			RetryBudget: cfg.RetryBudget,
			JitterSeed:  cfg.Faults.Seed ^ 0x9e6c_a61b_60ca_77d5,
		},
		NI: ReliableNIConfig{
			MsgID: s.MsgID,
			Trace: true,
			// The ACK goes straight to the parent's incarnation, unless the
			// chaos plane eats it.
			Ack: func(host, from, seq, epoch int) {
				if e := rt.Route(host, from); e != nil && !chaos.AckDrop(rt.ackRNG[host]) {
					e.Ack(EdgeAck{Seq: seq, Epoch: epoch})
				}
			},
			OnDone: func(host int, at time.Duration) {
				rt.report(rctl{kind: ctlDone, host: host, at: at})
			},
		},
		// Budget exhaustion and transport death alike: the brain repairs or
		// abandons the subtree behind the edge.
		Exhausted: func(a, b int) { rt.report(rctl{kind: ctlExhausted, host: a, to: b}) },
	}
	for _, v := range scfg.Local {
		rt.ackRNG[v] = chaos.AckRNG(v)
	}
	// A non-empty crash schedule arms the membership plane.
	if len(cfg.Crashes) > 0 {
		det, err := cfg.Heartbeat.NewDetector(cfg.Faults.Seed, scfg.Local)
		if err != nil {
			return nil, err
		}
		rt.det = det
		rt.views = append(rt.views, det.View())
		// A down host's sends vanish while still burning retry budget, so a
		// long crash exhausts its edges and triggers repair even before the
		// detector confirms.
		scfg.Suppressed = func(host int) bool { return rt.down(host, time.Since(rt.start)) }
		scfg.NI.Down = rt.down
		scfg.NI.OnRejoin = func(host int, at time.Duration) {
			rt.report(rctl{kind: ctlRejoin, host: host, at: at})
		}
		scfg.NI.BeatEvery = cfg.Heartbeat.Every
		scfg.NI.OnBeat = func(host int, at time.Duration) {
			if !rt.down(host, at) {
				rt.report(rctl{kind: ctlBeat, host: host, at: at})
			}
		}
	}
	if rt.ReliableShare, err = NewReliableShare(scfg); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	if rt.det != nil {
		rt.SetEpoch(rt.det.Epoch())
	}
	rt.start = time.Now()
	rt.Start(rt.start)
	return rt.supervise()
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
	case <-rt.Aborted():
	}
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
	rt.Stop()

	if timedOut {
		e := &WatchdogError{
			Timeout:  rt.cfg.Live.Timeout,
			Missing:  map[int][]int{},
			Progress: map[int][]DestProgress{},
		}
		for _, v := range rt.s.Tree.Nodes() { // ascending
			if n := rt.NI(v); v != rt.root && n.Data == nil {
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
	res.Sends, res.Retransmits, res.Duplicates, res.Fenced = rt.Totals()
	dests := 0
	for _, v := range rt.s.Tree.Nodes() {
		n := rt.NI(v)
		res.Hosts[v] = &n.HostRecord
		res.CrashDrops += n.CrashDrops
		res.Accepts = append(res.Accepts, n.Accepts...)
		if v == rt.root {
			continue
		}
		dests++
		if n.Data == nil {
			res.Orphaned = append(res.Orphaned, v)
		} else if n.DoneAt > res.Latency {
			res.Latency = n.DoneAt
		}
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
			rt.SetEpoch(ev.Epoch)
			if ev.Host == rt.root {
				rt.rootDown = true
				return
			}
			rt.brain.Confirmed(ev.Host)
		case membership.Rejoined:
			rt.SetEpoch(ev.Epoch)
			rt.brain.Rejoined(ev.Host)
		}
	}
	if len(rt.views) > 0 && rt.det.Epoch() > rt.views[len(rt.views)-1].Epoch {
		rt.views = append(rt.views, rt.det.View())
	}
}
