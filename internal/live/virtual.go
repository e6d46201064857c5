package live

import (
	"fmt"
	"time"

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
	if cfg.Live.Network != nil {
		return nil, fmt.Errorf("live: RunVirtual runs on the in-process fabric only")
	}
	v := &virtual{eng: sim.NewEngine(0), latency: cfg.Live.LinkLatency}
	cfg.Live.LinkLatency = 0 // delivery events carry it instead
	rt, err := newRun(s, cfg, v)
	if err != nil {
		return nil, err
	}
	v.rt = rt
	v.at(rt.cfg.Live.Timeout, func() { v.over, v.timedOut = true, true })
	v.supervise()
	v.eng.Run()
	rt.Stop()
	return rt.result(v.timedOut, v.end)
}

// virtual is RunVirtual's scheduler: the engine the parts of one run take
// their turns on.
type virtual struct {
	eng      *sim.Engine
	t        time.Duration // the running turn's time: the share's clock
	latency  time.Duration // Config.LinkLatency, added to every delivery
	share    *Share
	rt       *rrt
	judging  time.Duration // the detector deadline a judgment is scheduled at
	over     bool          // settled or timed out: later events do nothing
	timedOut bool
	end      time.Duration // when the run settled
}

// attach makes v the share's driver, and its time the share's clock; on
// the wall (nil v) the share keeps its own.
func (v *virtual) attach(s *Share) {
	if v != nil {
		v.share, s.virt = s, v
	}
}

// now is the share's clock: v's time, or on the wall (nil v) the time since
// start.
func (v *virtual) now(start time.Time) time.Duration {
	if v == nil {
		return time.Since(start)
	}
	return v.t
}

// at schedules f at t, unless the run is over by then.
func (v *virtual) at(t time.Duration, f func()) {
	v.eng.At(link.US(t), func() {
		if !v.over {
			v.t = t
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

// edge gives e a turn now, for packet seq (seq < 0: its timer).
func (v *virtual) edge(e *EdgeSender, seq int) { v.at(v.t, func() { v.step(e, seq) }) }

// step runs e's turn and, as Run does, re-arms its timer when the next wake
// moved; a superseded timer event does nothing. A sender whose step ends
// it is retired, so its later turns end at once.
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
// (a judgment may have landed it first); on the wall its goroutine reads.
func (v *virtual) heard() {
	if v != nil {
		v.at(v.t, func() {
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
	return &vlink{v: v, base: base, ft: ft, to: v.share.nis[base.To()]}
}

// vlink is an edge's transport in virtual time. It takes the fault plane's
// verdict (link.FaultyTransport.Verdict) where the wall transport sleeps
// on it, and schedules what leaves: each frame onto the receiver's wire
// with the receiving NI's turn, so it is served at once. The sender never
// blocks; its frames leave in order, each once the one before has left and
// its own stall and jitter are over.
type vlink struct {
	v    *virtual
	base link.Transport        // the in-process link into the receiver's inbox
	ft   *link.FaultyTransport // nil: a plane that leaves frames alone
	to   *ni
	free time.Duration // when the frame before left
}

func (l *vlink) From() int { return l.base.From() }
func (l *vlink) To() int   { return l.base.To() }

func (l *vlink) Send(payload []byte, _ <-chan struct{}) error {
	at, first, second := max(l.v.t, l.free), payload, []byte(nil)
	var wait time.Duration
	if l.ft != nil {
		wait, first, second = l.ft.Verdict(payload, at)
	}
	l.free = at + wait
	for _, f := range [...][]byte{first, second} {
		if f != nil {
			l.v.at(l.free+l.v.latency, func() {
				_ = l.base.Send(f, nil) // the NI's turn frees the slot it takes
				l.to.step()
			})
		}
	}
	return nil
}

// Pattern returns what the edge's loss stream has decided so far.
func (l *vlink) Pattern() (p fault.Pattern) {
	if l.ft != nil {
		p = l.ft.Pattern()
	}
	return p
}
