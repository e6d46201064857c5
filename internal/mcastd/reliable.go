package mcastd

// This file is the deployment rung of the reliable protocol ladder:
// internal/reliable proved the machinery on simulated time, live
// RunReliable ported it onto goroutines and real timers, and here the
// same protocol runs across OS processes over real UDP sockets. The
// data plane is live's, whole: a live.ReliableShare — this process's
// ReliableNIs and EdgeSender incarnations, their ACK routes, the epoch
// register and the teardown — dialed over the socket fabric; the ctl
// plane carries data ACKs, process heartbeats, and the root's repair
// orders (GRAFT/KILL/EPOCH).
//
// The root process drives the same reliable.Brain and live.Pump as the
// live supervisor: the membership detector runs over every tree host
// (remote hosts heartbeat over ctl; hosts sharing the root's process
// are witnessed directly — if this code runs, they are alive), and on
// a confirmed crash the epoch is fenced and the dead host's incomplete
// subtree re-grafted onto survivors via the paper's Fig.-11
// construction. Repair orders to remote processes are idempotent and
// periodically refreshed, so a lost ctl datagram delays repair by one
// refresh tick instead of wedging it.

import (
	"fmt"
	"time"

	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/membership"
	"repro/internal/reliable"
)

// ReliableConfig tunes one RunReliable execution. Zero values take the
// defaults from DefaultReliableConfig.
type ReliableConfig struct {
	// RTO is the base per-edge retransmission timeout, doubling per
	// attempt up to RTOMax, widened by seeded jitter.
	RTO, RTOMax time.Duration
	// RetryBudget is the maximum retransmissions per (edge incarnation,
	// packet) before the edge is declared dead and repaired around.
	RetryBudget int
	// MaxRegrafts bounds adoptions per destination before abandonment.
	MaxRegrafts int
	// Quorum is the minimum completing destinations for a crash-
	// shortened run to count as DeliveredPartial (<= 0: all required).
	Quorum int
	// Heartbeat parameterizes process-level failure detection: every
	// non-root process beats once per Every for each of its hosts; the
	// root confirms a host dead after SuspectAfter+ConfirmAfter of
	// silence.
	Heartbeat live.HeartbeatParams
	// Faults is a seeded chaos plane wrapped around every dialed data
	// transport (zero = the raw socket). The ctl plane is not wrapped.
	Faults link.Faults
	// Refresh is the cadence of idempotent ctl re-sends: the root
	// re-issues pending GRAFTs and the current EPOCH, processes re-send
	// unacknowledged EXHAUSTED reports, and the root sweeps for
	// stranded hosts.
	Refresh time.Duration
}

// DefaultReliableConfig returns wall-clock defaults for cross-process
// timers: RTOs comfortably above socket+scheduler noise, a detector
// that survives multi-millisecond scheduling gaps between processes.
func DefaultReliableConfig() ReliableConfig {
	return ReliableConfig{
		RTO:         15 * time.Millisecond,
		RTOMax:      250 * time.Millisecond,
		RetryBudget: 10,
		MaxRegrafts: 4,
		Heartbeat: live.HeartbeatParams{
			Every:        25 * time.Millisecond,
			SuspectAfter: 150 * time.Millisecond,
			ConfirmAfter: 150 * time.Millisecond,
			JitterFrac:   0.25,
		},
		Refresh: 100 * time.Millisecond,
	}
}

func (rcfg *ReliableConfig) fill() {
	def := DefaultReliableConfig()
	if rcfg.RTO <= 0 {
		rcfg.RTO = def.RTO
	}
	if rcfg.RTOMax <= 0 {
		rcfg.RTOMax = def.RTOMax
	}
	if rcfg.RetryBudget <= 0 {
		rcfg.RetryBudget = def.RetryBudget
	}
	if rcfg.MaxRegrafts <= 0 {
		rcfg.MaxRegrafts = def.MaxRegrafts
	}
	if rcfg.Heartbeat.Every <= 0 {
		rcfg.Heartbeat = def.Heartbeat
	}
	if rcfg.Refresh <= 0 {
		rcfg.Refresh = def.Refresh
	}
}

func (rcfg ReliableConfig) validate() error {
	if err := rcfg.Faults.Validate(); err != nil {
		return err
	}
	if rcfg.RTOMax < rcfg.RTO {
		return fmt.Errorf("mcastd: RTO cap %v below base %v", rcfg.RTOMax, rcfg.RTO)
	}
	hb := rcfg.Heartbeat
	if hb.SuspectAfter <= hb.Every || hb.ConfirmAfter <= 0 {
		return fmt.Errorf("mcastd: invalid heartbeat params %+v", hb)
	}
	if len(rcfg.Faults.Kills) > 0 || len(rcfg.Faults.Stalls) > 0 {
		return fmt.Errorf("mcastd: scheduled link kills/stalls are not supported on the daemon chaos plane")
	}
	return nil
}

// dev is one event delivered to the process coordinator: a control
// frame addressed to local host `host`, or one of the two local
// happenings below dressed as a frame.
type dev struct {
	ctlFrame
	host int           // the local host the frame was addressed to
	at   time.Duration // receipt offset (beats, dones)
}

const (
	evLocalDone      = 32 + iota // a: host — a local NI completed the message
	evLocalExhausted             // a, b: edge — a local edge incarnation died
)

// drt is the driver state of one process's share of a reliable run; the
// data plane itself is the live.ReliableShare. In the root's process drt
// is also the reliable.Runtime the repair brain drives: edges whose
// parent is local are the share's to install and retire, the rest become
// GRAFT/KILL orders to the parent's process.
type drt struct {
	cfg      Config
	rcfg     ReliableConfig
	m        int
	root     int
	nodes    []int // the tree's hosts, ascending
	start    time.Time
	share    *live.ReliableShare
	evs      chan dev
	stopAckC chan int

	// Coordinator-owned (single goroutine after start):
	doneAckC map[int]chan struct{} // per local dest still awaiting the root's DONE-ACK
	stopStat reliable.Status

	// Root-only membership and repair state:
	det       *membership.Detector
	pump      *live.Pump[dev]
	brain     *reliable.Brain
	doneSet   map[int]bool
	pendGraft map[[2]int]bool // GRAFT orders re-sent each refresh
	exhSeen   map[[2]int]int
	orphaned  []int // the verdict's undelivered destinations and
	crashed   []int // confirmed-crashed hosts, both ascending

	// Non-root repair state:
	pendExh map[[2]int]int // unacknowledged EXHAUSTED reports by gen
	exhGen  map[[2]int]int
}

// event delivers one event to the coordinator. Beats (re-sent by
// protocol) are lossy on overflow so listeners can never stall; the rest
// block until the coordinator drains.
func (rt *drt) event(e dev) {
	if e.kind == ctlBeat {
		select {
		case rt.evs <- e:
		default:
		}
		return
	}
	select {
	case rt.evs <- e:
	case <-rt.share.Aborted():
	}
}

// RunReliable executes this process's share of a loss- and crash-
// tolerant run: the plain engine's deployment shape with the live
// reliable protocol layered on the same fabric. It blocks until the
// root settles a verdict (all destinations delivered, or a quorum
// verdict after process deaths) or the watchdog fires. The root's
// process returns typed verdicts with live.RunReliable's semantics:
// (Delivered, nil), (DeliveredPartial, nil), or Failed alongside a
// *reliable.CrashError. Destination-only processes learn the verdict
// from the root's STOP.
func RunReliable(cfg Config, rcfg ReliableConfig) (*Result, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	rcfg.fill()
	if err := rcfg.validate(); err != nil {
		return nil, err
	}
	chaos, err := link.NewChaos(rcfg.Faults)
	if err != nil {
		return nil, err
	}

	rt := &drt{
		cfg:      cfg,
		rcfg:     rcfg,
		m:        len(cfg.Packets),
		root:     cfg.Tree.Root(),
		nodes:    cfg.Tree.Nodes(),
		doneAckC: map[int]chan struct{}{},
		stopStat: reliable.Failed,
		pendExh:  map[[2]int]int{},
		exhGen:   map[[2]int]int{},
	}
	// Sized so that the reports a listener can produce without the
	// coordinator running — a few per host — queue up instead of blocking
	// it; beats beyond that are dropped, never blocked on.
	rt.evs = make(chan dev, 8*len(rt.nodes)+64)
	rt.stopAckC = make(chan int, len(rt.nodes)+4) // one STOP-ACK per host, plus repeats
	for _, v := range cfg.Local {
		if v != rt.root {
			rt.doneAckC[v] = make(chan struct{})
			continue
		}
		if rt.det, err = rcfg.Heartbeat.NewDetector(rcfg.Faults.Seed, rt.nodes); err != nil {
			return nil, err
		}
		rt.brain = reliable.NewBrain(cfg.Tree, rcfg.MaxRegrafts, rt)
		rt.brain.Logf = rt.cfg.logf
		rt.doneSet = map[int]bool{}
		rt.pendGraft = map[[2]int]bool{}
		rt.exhSeen = map[[2]int]int{}
	}

	rt.share, err = live.NewReliableShare(live.ReliableShareConfig{
		Tree:          cfg.Tree,
		Local:         cfg.Local,
		Network:       cfg.Net,
		BufferPackets: cfg.BufferPackets,
		Chaos:         chaos,
		Edge: live.EdgeSenderConfig{
			Packets:     cfg.Packets,
			RTO:         rcfg.RTO,
			RTOMax:      rcfg.RTOMax,
			RetryBudget: rcfg.RetryBudget,
			JitterSeed:  rcfg.Faults.Seed ^ 0x7a31_9c4d_11e8_5bf3,
		},
		NI: live.ReliableNIConfig{
			MsgID: cfg.MsgID,
			// The ACK rides ctl to the sending host, whose listener routes it
			// to the edge.
			Ack: func(host, from, seq, epoch int) {
				rt.cfg.sendCtl(host, from, ctlFrame{kind: ctlAck, a: host, b: seq, c: epoch})
			},
			OnDone: func(host int, at time.Duration) {
				rt.event(dev{ctlFrame: ctlFrame{kind: evLocalDone, a: host}, at: at})
			},
		},
		// Budget exhaustion and transport death alike: the coordinator
		// repairs around the edge, or reports it to the root.
		Exhausted: func(a, b int) { rt.event(dev{ctlFrame: ctlFrame{kind: evLocalExhausted, a: a, b: b}}) },
	})
	if err != nil {
		return nil, fmt.Errorf("mcastd: %w", err)
	}
	// Every process fences at the detector's initial epoch; only the
	// root's announcements over ctl advance a non-root process.
	rt.share.SetEpoch(1)

	rt.start = time.Now()
	rt.share.Start(rt.start)
	for _, v := range cfg.Local {
		rt.share.Go(func() { rt.listen(v) })
	}

	var runErr error
	if rt.brain != nil {
		runErr = rt.rootLoop()
	} else {
		runErr = rt.destLoop()
	}
	rt.share.Stop()
	return rt.assemble(runErr), runErr
}

// listen turns host id's ctl frames into coordinator events, dropping
// those this host has no business with; a data ACK skips the coordinator
// and goes straight to the edge incarnation it acknowledges. The fabric's
// ctl pump delivers payload bytes only (the datagram's From is lost), so
// every message carries the relevant hosts explicitly.
func (rt *drt) listen(id int) {
	listenCtl(rt.cfg, id, rt.share.Aborted(), func(f ctlFrame) {
		switch f.kind {
		case ctlAck:
			if e := rt.share.Route(f.a, id); e != nil {
				e.Ack(live.EdgeAck{Seq: f.b, Epoch: f.c})
			}
			return
		case ctlBeat, ctlDone, ctlExhausted, ctlStopAck:
			if id != rt.root {
				return // reports to the root only
			}
			if f.kind == ctlStopAck {
				select { // STOP is retried: a full queue loses nothing
				case rt.stopAckC <- f.a:
				default:
				}
				return
			}
		case ctlDoneAck, ctlGraft, ctlKill:
			if f.a != id {
				return // addressed to another host
			}
		}
		rt.event(dev{ctlFrame: f, host: id, at: time.Since(rt.start)})
	})
}

// ---------------------------------------------------------------------------
// Destination-only process coordinator.

// destLoop drives a process that does not own the root: beat for every
// local host, apply the root's repair orders, route data ACKs, report
// completions, and exit on the root's STOP (acknowledging it for every
// local host) or the watchdog.
func (rt *drt) destLoop() error {
	watchdog := time.NewTimer(rt.cfg.Timeout)
	defer watchdog.Stop()
	hb := time.NewTicker(rt.rcfg.Heartbeat.Every)
	defer hb.Stop()
	refresh := time.NewTicker(rt.rcfg.Refresh)
	defer refresh.Stop()
	for {
		select {
		case e := <-rt.evs:
			key := [2]int{e.a, e.b}
			switch e.kind {
			case evLocalDone:
				rt.cfg.logf("host %d delivered at %v", e.a, e.at)
				acked := rt.doneAckC[e.a]
				rt.share.Go(func() {
					reportDone(rt.cfg, e.a, acked, nil, rt.share.Aborted()) // STOP ends the loop, and abort follows
				})
			case ctlDoneAck:
				if c, ok := rt.doneAckC[e.host]; ok {
					close(c)
					delete(rt.doneAckC, e.host)
				}
			case ctlGraft:
				rt.share.SetEpoch(e.c)
				if rt.share.Route(e.b, e.a) == nil { // not a re-sent order
					rt.cfg.logf("graft order: new edge %d->%d (epoch %d)", e.a, e.b, e.c)
					rt.share.Install(e.a, e.b)
				}
			case ctlKill:
				rt.share.SetEpoch(e.c)
				delete(rt.pendExh, key) // KILL acknowledges EXHAUSTED
				rt.share.Retire(e.a, e.b)
			case ctlEpoch:
				rt.share.SetEpoch(e.a)
			case evLocalExhausted:
				rt.share.Retire(e.a, e.b)
				rt.exhGen[key]++
				rt.pendExh[key] = rt.exhGen[key]
				rt.cfg.logf("edge %d->%d exhausted (gen %d); reporting to root", e.a, e.b, rt.exhGen[key])
				rt.cfg.sendCtl(e.a, rt.root, ctlFrame{kind: ctlExhausted, a: e.a, b: e.b, c: rt.exhGen[key]})
			case ctlStop:
				rt.share.SetEpoch(e.a)
				rt.stopStat = e.status
				rt.cfg.ackStop()
				rt.cfg.logf("STOP received (status %v, epoch %d)", rt.stopStat, rt.share.Epoch())
				return nil
			}
		case <-hb.C:
			for _, v := range rt.cfg.Local {
				rt.cfg.sendCtl(v, rt.root, ctlFrame{kind: ctlBeat, a: v})
			}
		case <-refresh.C:
			for key, gen := range rt.pendExh {
				rt.cfg.sendCtl(key[0], rt.root, ctlFrame{kind: ctlExhausted, a: key[0], b: key[1], c: gen})
			}
		case <-watchdog.C:
			return fmt.Errorf("mcastd: no STOP after %v: %s", rt.cfg.Timeout, rt.progress())
		}
	}
}

// progress summarizes local delivery state for watchdog errors.
func (rt *drt) progress() string {
	s := fmt.Sprintf("%d packets", rt.m)
	for _, v := range rt.nodes {
		if n := rt.share.NI(v); n != nil && v != rt.root {
			s += fmt.Sprintf(" host%d:%d", v, n.Held())
		}
	}
	return s + fmt.Sprintf(" (fabric %+v)", rt.cfg.Net.Stats())
}

// ---------------------------------------------------------------------------
// Root process coordinator: membership, adoption, verdict.

// rootLoop drives the root's process: collect completions, beats and
// edge deaths; advance the failure detector (every host this process
// owns is witnessed: if the coordinator is running, they are alive); let
// the brain adopt, repair or abandon; then settle the verdict and run
// the STOP handshake.
func (rt *drt) rootLoop() error {
	refresh := time.NewTicker(rt.rcfg.Refresh)
	defer refresh.Stop()
	rt.pump = &live.Pump[dev]{
		Det:      rt.det,
		Start:    rt.start,
		Events:   rt.evs,
		Handle:   rt.handleRoot,
		Local:    func(time.Duration) []int { return rt.cfg.Local },
		OnEvents: rt.handleEvents,
		Tick:     refresh.C,
		OnTick:   rt.refreshTick,
		Timeout:  rt.cfg.Timeout,
	}
	timedOut := rt.pump.Run(func() bool {
		for _, v := range rt.nodes {
			if rt.awaited(v) {
				return false
			}
		}
		return true
	})

	// Settle the verdict before STOP so remote processes report it.
	for _, v := range rt.nodes { // ascending
		if v != rt.root && !rt.doneSet[v] {
			rt.orphaned = append(rt.orphaned, v)
		}
		if !rt.Member(v) {
			rt.crashed = append(rt.crashed, v)
		}
	}
	orphaned, dests := rt.orphaned, len(rt.nodes)-1
	var verdictErr error
	rt.stopStat, verdictErr = reliable.Verdict(dests, orphaned, rt.crashed,
		rt.rcfg.Quorum, rt.share.Epoch(), true, false)
	if timedOut {
		rt.stopStat = reliable.Failed
		verdictErr = fmt.Errorf("mcastd: watchdog after %v: %d/%d delivered, orphaned %v (fabric %+v)",
			rt.cfg.Timeout, dests-len(orphaned), dests, orphaned, rt.cfg.Net.Stats())
	}
	rt.cfg.logf("verdict %v: %d/%d delivered, epoch %d", rt.stopStat, dests-len(orphaned), dests, rt.share.Epoch())

	// Acknowledged STOP to every remote host not confirmed dead,
	// bounded by the drain deadline.
	stopRemotes(rt.cfg, rt.Member, rt.stopAckC, rt.stopStat, rt.share.Epoch())
	return verdictErr
}

// awaited reports whether destination v still holds the run open: not
// complete, not abandoned, and not confirmed dead (unless it rejoins).
func (rt *drt) awaited(v int) bool {
	return v != rt.root && !rt.doneSet[v] && rt.Member(v) && !rt.brain.Abandoned(v)
}

// handleRoot folds one coordinator event into the root's state.
func (rt *drt) handleRoot(e dev) {
	switch e.kind {
	case evLocalDone:
		rt.cfg.logf("host %d delivered at %v", e.a, e.at)
		rt.doneSet[e.a] = true
	case ctlDone:
		if !rt.cfg.Tree.Contains(e.a) {
			break // a corrupted or foreign datagram must not skew the verdict
		}
		if !rt.doneSet[e.a] {
			rt.cfg.logf("root heard DONE from remote host %d", e.a)
		}
		rt.doneSet[e.a] = true
		rt.cfg.sendCtl(rt.root, e.a, ctlFrame{kind: ctlDoneAck, a: e.a})
		rt.pump.Beat(e.a, e.at)
	case ctlBeat:
		if rt.cfg.Tree.Contains(e.a) {
			rt.pump.Beat(e.a, e.at)
		}
	case evLocalExhausted:
		rt.cfg.logf("edge %d->%d exhausted; repairing", e.a, e.b)
		rt.brain.Exhausted(e.a, e.b)
	case ctlExhausted:
		key := [2]int{e.a, e.b}
		if e.c > rt.exhSeen[key] {
			rt.exhSeen[key] = e.c
			rt.cfg.logf("remote edge %d->%d exhausted (gen %d); repairing", e.a, e.b, e.c)
			rt.brain.Exhausted(e.a, e.b)
		}
		// Always acknowledge, even for a replayed gen or an edge no
		// longer in the shape: the reporter retries until KILLed.
		rt.cfg.sendCtl(rt.root, e.a, ctlFrame{kind: ctlKill, a: e.a, b: e.b, c: rt.share.Epoch()})
	}
}

// announceEpoch tells every remote host still believed alive the
// current epoch.
func (rt *drt) announceEpoch() {
	for _, v := range rt.nodes {
		if v != rt.root && !rt.cfg.Net.Local(v) && rt.Alive(v) {
			rt.cfg.sendCtl(rt.root, v, ctlFrame{kind: ctlEpoch, a: rt.share.Epoch()})
		}
	}
}

// refreshTick re-issues every idempotent repair order: pending GRAFTs,
// the current epoch, and a sweep re-grafting stranded hosts (alive,
// incomplete, no parent edge — e.g. a suspect that was excluded from an
// adoption and then turned out to be alive).
func (rt *drt) refreshTick() {
	for key := range rt.pendGraft {
		rt.cfg.sendCtl(rt.root, key[0], ctlFrame{kind: ctlGraft, a: key[0], b: key[1], c: rt.share.Epoch()})
	}
	if rt.share.Epoch() > 1 {
		rt.announceEpoch()
	}
	var lost []int
	for _, v := range rt.nodes {
		if rt.awaited(v) && rt.brain.Parent(v) == -1 && rt.Alive(v) {
			lost = append(lost, v)
		}
	}
	if len(lost) > 0 {
		rt.cfg.logf("sweep: re-grafting stranded hosts %v under the root", lost)
		rt.brain.Graft(rt.root, lost)
	}
}

// handleEvents folds detector events into the runtime: epoch register,
// adoption on confirmation, re-admission on rejoin. Epoch advances are
// broadcast to remote survivors immediately (and re-sent each refresh).
func (rt *drt) handleEvents(evs []membership.Event) {
	before := rt.share.Epoch()
	for _, ev := range evs {
		rt.share.SetEpoch(ev.Epoch)
		h := ev.Host
		switch ev.Kind {
		case membership.Confirmed:
			if h == rt.root {
				continue // the root is witnessed; it cannot be confirmed here
			}
			// Hosts of the same dead process are at least Suspect by now,
			// so the brain leaves them out of the adoption; their own
			// confirmations (or the stranded sweep, if they turn out to be
			// alive) handle them.
			rt.cfg.logf("host %d confirmed dead (epoch %d)", h, ev.Epoch)
			rt.brain.Confirmed(h)
		case membership.Rejoined:
			rt.cfg.logf("host %d rejoined (epoch %d)", h, ev.Epoch)
			if !rt.doneSet[h] {
				rt.brain.Rejoined(h)
			}
		}
	}
	if rt.share.Epoch() > before {
		rt.announceEpoch()
	}
}

// Install, Retire, Alive, Member and Done make the root's drt the
// brain's reliable.Runtime. A new edge is the share's to install when
// this process owns its parent; otherwise a GRAFT order, tracked and
// re-sent each refresh until the edge is superseded.
func (rt *drt) Install(a, b int) {
	if rt.share.NI(a) != nil {
		rt.cfg.logf("graft: new local edge %d->%d", a, b)
		rt.share.Install(a, b)
		return
	}
	rt.cfg.logf("graft: ordering remote edge %d->%d", a, b)
	rt.pendGraft[[2]int{a, b}] = true
	rt.cfg.sendCtl(rt.root, a, ctlFrame{kind: ctlGraft, a: a, b: b, c: rt.share.Epoch()})
}

// Retire has the share cancel a local incarnation; a remote one receives
// a best-effort KILL (benign if lost: a stale edge idles once its
// receiver is re-parented, suppressed by dedup).
func (rt *drt) Retire(a, b int) {
	delete(rt.pendGraft, [2]int{a, b})
	if rt.share.NI(a) != nil {
		rt.share.Retire(a, b)
		return
	}
	rt.cfg.sendCtl(rt.root, a, ctlFrame{kind: ctlKill, a: a, b: b, c: rt.share.Epoch()})
}

// Alive trusts the detector alone: a Suspect host is left out of repairs.
func (rt *drt) Alive(v int) bool  { return rt.det.Phase(v) == membership.Alive }
func (rt *drt) Member(v int) bool { return rt.det.Phase(v) != membership.Crashed }
func (rt *drt) Done(v int) bool   { return rt.doneSet[v] }

// assemble builds the process's Result from quiescent state; the NIs'
// records are the hosts' results.
func (rt *drt) assemble(runErr error) *Result {
	res := &Result{
		Hosts:  map[int]*live.HostRecord{},
		Wall:   time.Since(rt.start),
		Status: rt.stopStat,
		Epoch:  rt.share.Epoch(),
	}
	if runErr != nil && rt.brain == nil {
		res.Status = reliable.Failed
	}
	_, res.Retransmits, res.Duplicates, res.Fenced = rt.share.Totals()
	for _, v := range rt.cfg.Local {
		res.Hosts[v] = &rt.share.NI(v).HostRecord
	}
	if rt.brain != nil {
		res.Adoptions = rt.brain.Adoptions()
		for _, v := range rt.nodes {
			if v != rt.root && rt.doneSet[v] {
				res.Completed = append(res.Completed, v)
			}
		}
		res.Orphaned, res.Crashed = rt.orphaned, rt.crashed
	}
	return res
}
