package live

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/sim"
)

// niSession is one host's state for one session of a run: the shared FPFS
// step plus what only live.Run keeps. Like the HostSession it embeds, it is
// written only by the session's injector goroutine at the root and only by
// the host's NI goroutine everywhere else; the runtime reads it after the
// WaitGroup drains.
type niSession struct {
	HostSession
	index   int              // session index in the run
	startAt time.Duration    // at the root: first-injection instant
	events  []sim.TraceEvent // only when Config.Record
}

// ni is one host's network interface: a single goroutine draining one
// inbox, serving every session's arrivals in FPFS order.
type ni struct {
	rt       *runtime
	host     int
	inbox    *link.Inbox
	sessions map[uint32]*niSession
}

// trace appends one wall-clock event to ns's log when Config.Record is
// set. The caller must be the goroutine that owns ns.
func (rt *runtime) trace(ns *niSession, kind string, peer, packet int) {
	if rt.cfg.Record {
		ns.events = append(ns.events, sim.TraceEvent{
			Kind: kind, Time: rt.since(), Host: ns.Host,
			Peer: peer, Session: ns.index, Packet: packet,
		})
	}
}

// recorded is Config.Record's transport decorator, wrapped around every
// tree edge at fabric build: each copy that went out is an "inject" event
// in the sending host's log (after Send returns, so on an unbounded link
// the receiver may stamp its "deliver" first). Forwarding itself — shared
// with engines that record nothing — stays free of tracing.
type recorded struct {
	link.Transport
	rt *runtime
	ns *niSession // the sending host's state; its owner is the only sender
}

func (r recorded) Send(pkt []byte, abort <-chan struct{}) error {
	err := r.Transport.Send(pkt, abort)
	if err == nil {
		// Session.Validate has vetted every header the run can carry.
		h, _ := message.DecodeHeader(pkt)
		r.rt.trace(r.ns, "inject", r.To(), int(h.Seq))
	}
	return err
}

// startAll launches one goroutine per NI plus one injector per session
// root and returns the WaitGroup that drains them all.
func startAll(rt *runtime, nis map[int]*ni) *sync.WaitGroup {
	var wg sync.WaitGroup
	for _, n := range nis {
		wg.Add(1)
		go func(n *ni) {
			defer wg.Done()
			n.run()
		}(n)
	}
	for _, s := range rt.sessions {
		ns := nis[s.Tree.Root()].sessions[s.MsgID]
		wg.Add(1)
		go func(s Session, ns *niSession) {
			defer wg.Done()
			inject(rt, s, ns)
		}(s, ns)
	}
	return &wg
}

// inject is the source pump of one session: the host DMA feeding the
// root NI. FPFS at the source is packet-major — packet 0 to every child,
// then packet 1, ... — one copy at a time (the NI is a serial server).
func inject(rt *runtime, s Session, ns *niSession) {
	// Stamp the session's own start before the first send: per-session
	// latency must not charge a session for the time earlier sessions'
	// injectors held the scheduler.
	ns.startAt = time.Since(rt.start)
	for _, pkt := range s.Packets {
		if err := ns.Forward(pkt, rt.abort); err != nil {
			rt.failed(err)
			return
		}
	}
}

// run is the NI forwarding loop: admit the next frame (the sender has
// already reserved our buffer slot), serve it — forward a copy to every
// child of its session the moment it arrives, deliver locally — then
// release the slot. The loop exits when the runtime closes the inbox (all
// sessions complete) or aborts.
func (n *ni) run() {
	for {
		f, ok := n.inbox.Recv(n.rt.abort)
		if !ok {
			return
		}
		if err := n.serve(f); err != nil {
			n.rt.failed(err)
			return
		}
	}
}

// failed reports the first NI-level failure to the collector — a real
// transport or protocol error, surfaced instead of hanging into the
// watchdog. Later ones are dropped (the first tears everything down), and
// so is an abort: that is the teardown, and the collector owns the verdict.
func (rt *runtime) failed(err error) {
	if errors.Is(err, link.ErrAborted) {
		return
	}
	select {
	case rt.fail <- err:
	default:
	}
}

// serve handles one admitted frame end to end.
func (n *ni) serve(f link.Frame) error {
	h, err := message.DecodeHeader(f.Payload)
	if err != nil {
		return fmt.Errorf("live: host %d: undecodable frame from %d: %v", n.host, f.From, err)
	}
	ns, ok := n.sessions[h.MsgID]
	if !ok {
		return fmt.Errorf("live: host %d: frame for unknown session %d from %d", n.host, h.MsgID, f.From)
	}
	n.rt.trace(ns, "deliver", f.From, int(h.Seq))
	done, err := ns.Serve(h, f.Payload, f.From, n.rt.abort, n.rt.start)
	if err != nil {
		return err
	}
	if done {
		n.rt.trace(ns, "done", -1, -1)
		// The ack channel is sized for every destination; this never
		// blocks.
		n.rt.acks <- struct{}{}
	}
	n.inbox.Release()
	return nil
}
