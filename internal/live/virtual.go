package live

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/live/link"
	"repro/internal/sim"
)

// RunVirtual runs one session as RunReliable does — the same share, NIs,
// edge senders, supervisor, brain and fault plane, stepped by the same
// code — but single-threaded in virtual time: every turn of a part is an
// event on a sim.Engine (microseconds, ordered by time, then insertion),
// the share's clock reads the running event's time, and the transport
// schedules each frame's delivery where the wall one sleeps. No goroutine
// runs and no wall clock is read, so a run is a function of its session
// and config: one seed replays bit-exact, at any GOMAXPROCS and box load,
// and minutes of timer waits cost milliseconds. The watchdog is virtual
// too. The fabric is in-process (Config.Network unset); a sender never
// blocks, and a frame holds its NI buffer slot for no virtual time.
func RunVirtual(s Session, cfg ReliableConfig) (*ReliableResult, error) {
	return runVirtual(s, cfg, &virtual{})
}

// runVirtual is RunVirtual on v, over a switch geometry when v has a
// system (Deliver): every frame then crosses the switched transport, and
// the supervisor repairs on the geometry.
func runVirtual(s Session, cfg ReliableConfig, v *virtual) (*ReliableResult, error) {
	if cfg.Live.Network != nil {
		return nil, fmt.Errorf("live: RunVirtual runs on the in-process fabric only")
	}
	rt, err := newRun(s, cfg, v)
	if err != nil {
		return nil, err
	}
	v.rt = rt
	v.at(rt.cfg.Live.Timeout, func() { v.over, v.timedOut = true, true })
	watchdog := link.US(rt.cfg.Live.Timeout)
	for _, c := range rt.faults.Crashes() { // counted as the run lives through them
		if c.At <= watchdog { // a later one never runs, and could wrap the clock
			v.at(time.Duration(math.Ceil(c.At*float64(time.Microsecond))), func() { // the host reads down
				rt.faults.NoteCrash()
				v.supervise() // a crash-stop may leave nothing awaited
			})
		}
		if c.RecoverAt > 0 && c.RecoverAt <= watchdog {
			v.at(dur(c.RecoverAt), rt.faults.NoteRecovery)
		}
	}
	v.supervise()
	v.eng.Run()
	rt.Stop()
	if v.err != nil {
		return nil, v.err
	}
	return rt.result(v.timedOut, max(v.end, v.copied))
}

// virtual is RunVirtual's scheduler: the engine the parts of one run take
// their turns on.
type virtual struct {
	eng      *sim.Engine
	sys      *core.System  // the switch geometry's system; nil in process
	p        sim.Params    // its costs
	sw       *switched     // its transport's state, built with the run
	t        time.Duration // the running turn's time: the share's clock
	share    *Share
	rt       *rrt
	judging  time.Duration // the detector deadline a judgment is scheduled at
	over     bool          // settled or timed out: later events do nothing
	timedOut bool
	end      time.Duration // when the run settled
	copied   time.Duration // when the last receive copy ended
	err      error         // a plain session's first failure, or the clock's
}

// attach makes v the share's driver, and its time the share's clock, on
// an engine with a channel table for the switch geometry, whose transport
// starts once the root's host has handed it the message (t_s); on the
// wall (nil v) the share keeps its own clock.
func (v *virtual) attach(s *Share, faults *fault.State) {
	if v == nil {
		return
	}
	v.share, s.virt = s, v
	if v.sys == nil {
		v.eng = sim.NewEngine(0)
		return
	}
	v.sw = newSwitched(v, faults)
	v.eng = sim.NewEngine(v.sw.geo.Channels())
	v.t = dur(v.p.THostSend)
}

// receive stamps r's completion at its NI, now: over a switch geometry once
// the host has copied data off the NI (t_r), unless a crash-stop lands
// first (the schedule is known, so nothing waits for it); else at once.
func (v *virtual) receive(r *HostRecord, data []byte, now time.Duration) {
	if v != nil && v.sw != nil {
		now += dur(v.p.THostRecv)
		if f := v.sw.faults; f.HostDown(r.Host, math.Inf(1)) && f.HostDown(r.Host, link.US(now)) {
			return
		}
		v.copied = max(v.copied, now)
	}
	r.Data, r.DoneAt = data, now
}

// now is the share's clock: v's time, or on the wall (nil v) the time since
// start.
func (v *virtual) now(start time.Time) time.Duration {
	if v == nil {
		return time.Since(start)
	}
	return v.t
}

// at schedules f at t, unless the run is over by then; a t that rounds
// the engine's time down is now.
func (v *virtual) at(t time.Duration, f func()) { v.atUS(max(link.US(t), v.eng.Now()), f) }

// atUS schedules f at t microseconds, the engine's own time, in which the
// switched transport computes; the share's clock reads it rounded to the
// ns, and a t whose receive copy would end past 2^63 ns fails the run.
func (v *virtual) atUS(t float64, f func()) {
	if !(t+v.p.THostRecv < math.MaxInt64/float64(time.Microsecond)) {
		v.err, v.over = cmp.Or(v.err, fmt.Errorf("live: virtual time %g µs is past the clock's range", t)), true
		return
	}
	v.eng.At(t, func() {
		if !v.over {
			v.t = dur(t)
			f()
		}
	})
}

// turn gives n's NI a turn now; on the wall its goroutine takes one.
func (v *virtual) turn(n *ni) {
	if v != nil {
		v.at(v.t, func() { n.step() })
	}
}

// step runs e's turn for packet seq (seq < 0: its timer) and, as Run
// does, re-arms its timer when the next wake moved; a superseded timer
// event does nothing. A sender whose step ends it is retired, so its later
// turns end at once.
func (v *virtual) step(e *EdgeSender, seq int) {
	wake, alive := e.step(seq)
	if !alive {
		e.cancelled.Store(true)
	} else if wake != forever && wake != e.armed {
		e.armed = wake
		v.at(wake, func() {
			if e.armed == wake {
				e.armed = 0
				v.step(e, -1)
			}
		})
	}
}

// heard gives the supervisor a turn now to read the report just queued
// (a judgment may have landed it first), or with none (plain sessions)
// reads it, keeping the first failure; on the wall its reader's loop does.
func (v *virtual) heard() {
	if v != nil {
		v.at(v.t, func() {
			if v.rt == nil {
				v.err = cmp.Or(v.err, (<-v.share.reports).Err)
				return
			}
			if len(v.rt.reports) > 0 {
				v.rt.sup.handle(<-v.rt.reports)
			}
			v.supervise()
		})
	}
}

// supervise does what Run does after every step of the supervisor: it ends
// the run once settled, and else schedules the detector's next judgment.
func (v *virtual) supervise() {
	sup := v.rt.sup
	if sup.settled() {
		v.over, v.end = true, v.t
		return
	}
	if deadline, dl := sup.deadline(); sup.cfg.Det != nil && deadline != v.judging {
		v.judging = deadline
		v.at(max(deadline, v.t), func() {
			if v.judging == deadline {
				v.judging = 0
				sup.judge(deadline, dl)
				v.supervise()
			}
		})
	}
}

// transport is edge base's transport in virtual time, taking the verdicts
// of wrapped's fault plane; on the wall, wrapped itself.
func (v *virtual) transport(base, wrapped link.Transport) link.Transport {
	if v == nil {
		return wrapped
	}
	ft, _ := wrapped.(*link.FaultyTransport)
	e := vedge{Transport: base, ft: ft, to: v.share.nis[base.To()]}
	if v.sw != nil {
		return &slink{vedge: e, sw: v.sw, from: v.sw.nic(base.From())}
	}
	return &vlink{vedge: e, v: v}
}

// vedge is what an edge's transports in virtual time share: the in-process
// link into the receiver's inbox, the fault plane's decorator (nil: a
// plane that leaves frames alone) and the receiving NI.
type vedge struct {
	link.Transport
	ft *link.FaultyTransport
	to *ni
}

// Pattern returns what the edge's loss stream has decided so far.
func (e *vedge) Pattern() (p fault.Pattern) {
	if e.ft != nil {
		p = e.ft.Pattern()
	}
	return p
}

// vlink is an edge's transport in virtual time over the in-process wire.
// It takes the fault plane's verdict (link.FaultyTransport.Verdict) where
// the wall transport sleeps on it, and schedules what leaves: each frame
// onto the receiver's wire with the receiving NI's turn, so it is served
// at once. The sender never blocks; its frames leave in order, each once
// the one before has left and its own stall and jitter are over.
type vlink struct {
	vedge
	v    *virtual
	free time.Duration // when the frame before left
}

func (l *vlink) Send(payload []byte, _ <-chan struct{}) error {
	at, first, second := max(l.v.t, l.free), payload, []byte(nil)
	var wait time.Duration
	if l.ft != nil {
		wait, first, second = l.ft.Verdict(payload, at)
	}
	l.free = at + wait
	for _, f := range [...][]byte{first, second} {
		if f != nil {
			l.v.at(l.free, func() {
				_ = l.Transport.Send(f, nil) // the NI's turn frees the slot it takes
				l.to.step()
			})
		}
	}
	return nil
}
