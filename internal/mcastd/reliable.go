package mcastd

// This file is the deployment rung of the reliable protocol ladder: the
// protocol of internal/reliable and live.RunReliable across OS processes
// over UDP. Every process joins a live.ReliableShare to a live.Share over
// the socket fabric; the root's also runs live.Supervisor, witnessing its
// own hosts and hearing the others' beats over ctl. What the share sends
// to another process — a child's ACK for a remote parent, the supervisor's
// orders (GRAFT/KILL/EPOCH, refreshed so a lost datagram delays repair by
// one tick instead of wedging it) — leaves through order as a ctl frame.
// What stays here is the daemon's own: the root's ctl listener, the
// follower loop of every other process (which reads ctl itself), the
// DONE/STOP handshake, the verdict and the result.

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/membership"
	"repro/internal/reliable"
)

// ReliableConfig tunes one RunReliable execution. Zero values take the
// defaults from DefaultReliableConfig; negative ones are refused.
type ReliableConfig struct {
	// RTO is the base per-edge retransmission timeout, doubling per
	// attempt up to RTOMax, widened by seeded jitter.
	RTO, RTOMax time.Duration
	// RetryBudget is the maximum retransmissions per (edge incarnation,
	// packet) before the edge is declared dead and repaired around.
	RetryBudget int
	// Quorum is the minimum completing destinations for a crash-
	// shortened run to count as DeliveredPartial (0: all required).
	Quorum int
	// Faults is a seeded fault plane wrapped around every dialed data
	// transport (zero = the raw socket). AckDropRate loses every ACK, local
	// or remote, with that probability; other ctl frames are not wrapped.
	// Stalls, kills and crashes are refused: a daemon's crash is its
	// process dying.
	Faults fault.Plan
}

// DefaultReliableConfig returns wall-clock defaults for cross-process
// timers: RTOs comfortably above socket+scheduler noise.
func DefaultReliableConfig() ReliableConfig {
	return ReliableConfig{
		RTO:         15 * time.Millisecond,
		RTOMax:      250 * time.Millisecond,
		RetryBudget: 10,
	}
}

// The daemon's fixed repair and membership cadence.
const (
	// maxRegrafts bounds adoptions per destination before abandonment.
	maxRegrafts = 4
	// Process-level failure detection: every non-root process beats once
	// per heartbeatEvery for each of its hosts; the root confirms a host
	// dead after suspectAfter+confirmAfter of silence, long enough to
	// survive multi-millisecond scheduling gaps between processes.
	heartbeatEvery = 25 * time.Millisecond
	suspectAfter   = 150 * time.Millisecond
	confirmAfter   = 150 * time.Millisecond
	// refresh is the cadence of idempotent ctl re-sends: the root
	// re-issues pending GRAFTs and the current EPOCH, processes re-send
	// unacknowledged EXHAUSTED reports, and the root sweeps for stranded
	// hosts. A lost datagram delays repair by one refresh.
	refresh = 100 * time.Millisecond
)

func (rcfg *ReliableConfig) fill() {
	def := DefaultReliableConfig()
	rcfg.RTO, rcfg.RTOMax = cmp.Or(rcfg.RTO, def.RTO), cmp.Or(rcfg.RTOMax, def.RTOMax)
	rcfg.RetryBudget = cmp.Or(rcfg.RetryBudget, def.RetryBudget)
}

func (rcfg ReliableConfig) validate() error {
	if err := rcfg.Faults.Validate(); err != nil {
		return fmt.Errorf("mcastd: %w", err)
	}
	if min(rcfg.RTO, rcfg.RTOMax) < 0 {
		return fmt.Errorf("mcastd: negative RTO %v / cap %v", rcfg.RTO, rcfg.RTOMax)
	}
	if rcfg.RetryBudget < 0 {
		return fmt.Errorf("mcastd: negative retry budget %d", rcfg.RetryBudget)
	}
	if rcfg.RTOMax < rcfg.RTO {
		return fmt.Errorf("mcastd: RTO cap %v below base %v", rcfg.RTOMax, rcfg.RTO)
	}
	if rcfg.Quorum < 0 {
		return fmt.Errorf("mcastd: negative quorum %d", rcfg.Quorum)
	}
	return rcfg.Faults.Admit("mcastd", fault.Drop|fault.Corrupt|fault.AckDrop|fault.Reorder|fault.Jitter, 0, nil)
}

// drt is the driver state of one process's share of a reliable run: the
// root's process supervises it, every other follows the root in destLoop.
type drt struct {
	cfg      Config
	rcfg     ReliableConfig
	m        int
	root     int
	nodes    []int // the tree's hosts, ascending
	share    *live.ReliableShare
	sup      *live.Supervisor // the root's process only
	stopAckC chan int

	// Coordinator-owned (single goroutine after start):
	doneAckC map[int]chan struct{} // per local dest still awaiting the root's DONE-ACK
	// res holds the verdict (the root's, with its Orphaned and Crashed, or
	// a follower's from STOP), which assemble adds to the share's record.
	res live.ReliableResult

	exhSeen map[[2]int]int // the root's listener: latest EXHAUSTED generation per edge

	// Non-root repair state:
	pendExh map[[2]int]int // unacknowledged EXHAUSTED reports by gen
	exhGen  map[[2]int]int
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
func RunReliable(cfg Config, rcfg ReliableConfig) (*live.ReliableResult, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	rcfg.fill()
	if err := rcfg.validate(); err != nil {
		return nil, err
	}
	faults, err := rcfg.Faults.Arm()
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
		res:      live.ReliableResult{Status: reliable.Failed},
		pendExh:  map[[2]int]int{},
		exhGen:   map[[2]int]int{},
	}
	rt.stopAckC = make(chan int, len(rt.nodes)+4) // one STOP-ACK per host, plus repeats
	var det *membership.Detector
	for _, v := range cfg.Local {
		if v != rt.root {
			rt.doneAckC[v] = make(chan struct{})
		} else if det, err = (live.HeartbeatParams{
			SuspectAfter: suspectAfter, ConfirmAfter: confirmAfter,
		}).NewDetector(rcfg.Faults.Seed, rt.nodes); err != nil {
			return nil, fmt.Errorf("mcastd: %w", err)
		}
	}
	// Unbounded, the wire gets headroom for the message, its
	// retransmissions and a graft's replay.
	share, err := live.NewShare(cfg.Local, 4*rt.m+16, live.DefaultQuantum,
		live.Config{BufferPackets: cfg.BufferPackets, Network: cfg.Net})
	if err != nil {
		return nil, fmt.Errorf("mcastd: %w", err)
	}
	// A local completion or dead edge is a report on the session, which the
	// root's supervisor or a follower's destLoop reads.
	rt.share, err = share.AddReliable(live.ReliableShareConfig{
		Tree:   cfg.Tree,
		MsgID:  cfg.MsgID,
		Faults: faults,
		Edge: live.EdgeSenderConfig{
			Packets:     cfg.Packets,
			RTO:         rcfg.RTO,
			RTOMax:      rcfg.RTOMax,
			RetryBudget: rcfg.RetryBudget,
			JitterSeed:  rcfg.Faults.Seed ^ 0x7a31_9c4d_11e8_5bf3,
		},
		Remote: rt.order,
	})
	if err != nil {
		share.Stop()
		return nil, fmt.Errorf("mcastd: %w", err)
	}
	if det != nil {
		rt.sup = live.NewSupervisor(rt.share, live.SupervisorConfig{
			Det:         det,
			MaxRegrafts: maxRegrafts,
			Refresh:     refresh,
			Timeout:     cfg.Timeout,
			Logf:        rt.cfg.logf,
		})
		rt.exhSeen = map[[2]int]int{}
	}
	// Every process fences at the detector's initial epoch; only the
	// root's announcements over ctl advance a follower.
	rt.share.SetEpoch(1)
	share.Start()

	var runErr error
	if rt.sup != nil {
		rt.share.Go(rt.listen)
		runErr = rt.rootLoop()
	} else {
		runErr = rt.destLoop()
	}
	rt.share.Stop()
	return rt.assemble(runErr), runErr
}

// order is the share's way out of the process, onto the ctl plane: a
// child's ACK leaves from the child's socket, a repair order from the root's.
func (rt *drt) order(o live.Order) {
	from, f := rt.root, ctlFrame{kind: ctlGraft, a: o.A, b: o.B, c: o.Epoch}
	switch o.Kind {
	case live.OrderAck:
		from, f.kind = o.A, ctlAck
	case live.OrderKill:
		f.kind = ctlKill
	case live.OrderEpoch:
		f = ctlFrame{kind: ctlEpoch, a: o.Epoch}
	}
	rt.cfg.sendCtl(from, o.To, f)
}

// listen is the root process's ctl listener: a remote child's ACK goes to
// its edge, a frame for the root to hearRoot; the rest is not the root's.
func (rt *drt) listen() {
	listenCtl(rt.cfg, rt.share.Aborted(), func(to int, f ctlFrame) {
		switch {
		case f.kind == ctlAck:
			rt.ack(to, f)
		case to == rt.root:
			rt.hearRoot(f)
		}
	})
}

// ack applies a remote child's ACK, addressed to the parent host, to the
// edge incarnation that carries it.
func (rt *drt) ack(parent int, f ctlFrame) {
	if e := rt.share.Route(f.a, parent); e != nil {
		e.Ack(live.EdgeAck{Seq: f.b, Epoch: f.c})
	}
}

// hearRoot handles one frame addressed to the root: a beat, a DONE
// (recorded, acknowledged, and a beat too), an EXHAUSTED report (a repair
// when its generation is new, acknowledged by KILL) or a STOP-ACK. What
// the supervisor must hear it reports on the share. A frame naming
// hosts outside the tree is corrupted or foreign and is dropped before it
// can skew the verdict or a repair.
func (rt *drt) hearRoot(f ctlFrame) {
	at := rt.share.Now()
	switch f.kind {
	case ctlStopAck:
		select { // STOP is retried: a full queue loses nothing
		case rt.stopAckC <- f.a:
		default:
		}
	case ctlBeat:
		if rt.cfg.Tree.Contains(f.a) {
			rt.share.Report(live.Report{Kind: live.ReportBeat, Host: f.a, At: at})
		}
	case ctlDone:
		if !rt.cfg.Tree.Contains(f.a) {
			return
		}
		rt.cfg.logf("root heard DONE from host %d", f.a)
		rt.share.Report(live.Report{Kind: live.ReportDone, Host: f.a, At: at})
		rt.cfg.sendCtl(rt.root, f.a, ctlFrame{kind: ctlDoneAck, a: f.a})
		rt.share.Report(live.Report{Kind: live.ReportBeat, Host: f.a, At: at})
	case ctlExhausted:
		if !rt.cfg.Tree.Contains(f.a) || !rt.cfg.Tree.Contains(f.b) {
			return
		}
		if key := [2]int{f.a, f.b}; f.c > rt.exhSeen[key] {
			rt.exhSeen[key] = f.c
			rt.share.Report(live.Report{Kind: live.ReportExhausted, Host: f.a, To: f.b})
		}
		// Always acknowledge, even a replayed generation or an edge no
		// longer in the shape: the reporter retries until KILLed.
		rt.cfg.sendCtl(rt.root, f.a, ctlFrame{kind: ctlKill, a: f.a, b: f.b, c: rt.share.Epoch()})
	}
}

// ---------------------------------------------------------------------------
// Destination-only process coordinator.

// destLoop drives a process that does not own the root, and is its ctl
// listener: beat for every local host, apply remote children's ACKs and
// the root's repair orders, read the session's reports — a completion is
// a DONE to the root, a dead edge is retired and an EXHAUSTED to the root
// — and exit on the root's STOP (acknowledging it for every local host)
// or the watchdog.
func (rt *drt) destLoop() error {
	watchdog := time.NewTimer(rt.cfg.Timeout)
	defer watchdog.Stop()
	hb := time.NewTicker(heartbeatEvery)
	defer hb.Stop()
	refreshes := time.NewTicker(refresh)
	defer refreshes.Stop()
	for {
		select {
		case r := <-rt.share.Reports():
			switch key := [2]int{r.Host, r.To}; r.Kind {
			case live.ReportDone:
				rt.cfg.logf("host %d delivered at %v", r.Host, r.At)
				acked := rt.doneAckC[r.Host]
				rt.share.Go(func() {
					reportDone(rt.cfg, r.Host, acked, nil, rt.share.Aborted()) // STOP ends the loop, and abort follows
				})
			case live.ReportExhausted:
				rt.share.Retire(r.Host, r.To)
				rt.exhGen[key]++
				rt.pendExh[key] = rt.exhGen[key]
				rt.cfg.logf("edge %d->%d exhausted (gen %d); reporting to root", r.Host, r.To, rt.exhGen[key])
				rt.cfg.sendCtl(r.Host, rt.root, ctlFrame{kind: ctlExhausted, a: r.Host, b: r.To, c: rt.exhGen[key]})
			}
		case c := <-rt.cfg.Net.Ctl():
			f, ok := decodeCtl(c.Payload)
			if !ok || f.a != c.To && (f.kind == ctlDoneAck || f.kind == ctlGraft || f.kind == ctlKill) {
				break // undecodable, or addressed to another host
			}
			key := [2]int{f.a, f.b}
			switch f.kind {
			case ctlAck:
				rt.ack(c.To, f)
			case ctlDoneAck:
				if ch, ok := rt.doneAckC[f.a]; ok {
					close(ch)
					delete(rt.doneAckC, f.a)
				}
			case ctlGraft:
				rt.share.SetEpoch(f.c)
				if rt.share.Route(f.b, f.a) == nil { // not a re-sent order
					rt.cfg.logf("graft order: new edge %d->%d (epoch %d)", f.a, f.b, f.c)
					rt.share.Install(f.a, f.b)
				}
			case ctlKill:
				rt.share.SetEpoch(f.c)
				delete(rt.pendExh, key) // KILL acknowledges EXHAUSTED
				rt.share.Retire(f.a, f.b)
			case ctlEpoch:
				rt.share.SetEpoch(f.a)
			case ctlStop:
				rt.share.SetEpoch(f.a)
				rt.res.Status = f.status
				rt.cfg.ackStop()
				rt.cfg.logf("STOP received (status %v, epoch %d)", rt.res.Status, rt.share.Epoch())
				return nil
			}
		case <-hb.C:
			for _, v := range rt.cfg.Local {
				rt.cfg.sendCtl(v, rt.root, ctlFrame{kind: ctlBeat, a: v})
			}
		case <-refreshes.C:
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
// Root process: supervision, verdict, STOP.

// rootLoop runs the supervisor until the run settles, then settles the
// verdict and runs the STOP handshake.
func (rt *drt) rootLoop() error {
	timedOut := rt.sup.Run()

	// Settle the verdict before STOP so remote processes report it.
	res := &rt.res
	for _, v := range rt.nodes { // ascending
		if v != rt.root && !rt.sup.Done(v) {
			res.Orphaned = append(res.Orphaned, v)
		}
		if !rt.sup.Member(v) {
			res.Crashed = append(res.Crashed, v)
		}
	}
	orphaned, dests := res.Orphaned, len(rt.nodes)-1
	var verdictErr error
	res.Status, verdictErr = reliable.Verdict(dests, orphaned, res.Crashed,
		rt.rcfg.Quorum, rt.share.Epoch(), true, false)
	if timedOut {
		res.Status = reliable.Failed
		verdictErr = fmt.Errorf("mcastd: watchdog after %v: %d/%d delivered, orphaned %v (fabric %+v)",
			rt.cfg.Timeout, dests-len(orphaned), dests, orphaned, rt.cfg.Net.Stats())
	}
	rt.cfg.logf("verdict %v: %d/%d delivered, epoch %d", res.Status, dests-len(orphaned), dests, rt.share.Epoch())

	// Acknowledged STOP to every remote host not confirmed dead,
	// bounded by the drain deadline.
	stopRemotes(rt.cfg, rt.sup.Member, rt.stopAckC, res.Status, rt.share.Epoch())
	return verdictErr
}

// assemble completes the process's result: the session's record over
// the local hosts, read from the quiescent share, with the verdict and the
// root's supervision.
func (rt *drt) assemble(runErr error) *live.ReliableResult {
	res := rt.share.Result(rt.share.Now())
	res.Status, res.Orphaned, res.Crashed = rt.res.Status, rt.res.Orphaned, rt.res.Crashed
	if runErr != nil && rt.sup == nil {
		res.Status = reliable.Failed
	}
	if rt.sup != nil {
		res.Views, res.Adoptions = rt.sup.Views(), rt.sup.Adoptions()
	}
	return res
}
