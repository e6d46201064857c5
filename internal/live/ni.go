package live

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/sim"
)

// PlainShare is one process's share of plain (unacknowledged) sessions,
// and the only code that builds the plain data plane or tears it down: an
// inbox and an NI goroutine per local host, a HostSession per local host
// and session, every edge whose parent is local, and an injector per local
// session root. live.Run (every host local) and mcastd.Run (the hosts of
// one OS process, over UDP) drive it; a driver keeps only what ends its
// run. Go, Aborted and Stop are crew's, shared with ReliableShare.
//
// Done, Failed and Aborted are safe from any goroutine. A host's record
// (Host) has its final Data and DoneAt once Done has named the host, and is
// quiescent once Stop returns.
type PlainShare struct {
	crew
	cfg      Config
	sessions []Session
	nis      map[int]*ni
	start    time.Time
	done     chan int   // local completions, by host; sized never to block
	fail     chan error // first NI-level failure (capacity 1)
}

// niSession is one host's state for one session of a share: the shared
// FPFS step plus what only live.Run reads. Like the HostSession it embeds,
// it is written only by the session's injector goroutine at the root and
// only by the host's NI goroutine everywhere else.
type niSession struct {
	HostSession
	index   int              // session index in the share
	startAt time.Duration    // at the root: first-injection instant
	events  []sim.TraceEvent // only when Config.Record
}

// ni is one host's network interface: a single goroutine draining one
// inbox, serving every session's arrivals in FPFS order.
type ni struct {
	s        *PlainShare
	host     int
	inbox    *link.Inbox
	sessions map[uint32]*niSession
}

// NewPlainShare builds the data plane Start then runs for the local hosts
// of sessions (nil: every tree host), which it trusts the driver to have
// validated: in-process links by default, or every inbox attached to
// cfg.Network (link.AttachAll) before any edge is dialed from it. With
// cfg.Record every edge is wrapped in the recording decorator. A failed
// attach or dial is the returned error, naming the host or edge, with
// whatever was attached detached again.
func NewPlainShare(sessions []Session, local []int, cfg Config) (*PlainShare, error) {
	mine := map[int]bool{}
	for _, v := range local {
		mine[v] = true
	}
	// Expected inbound frames per host, across sessions: the unbounded
	// inbox capacity that guarantees senders never block on the wire.
	expect, dests := map[int]int{}, 0
	for _, s := range sessions {
		for _, v := range s.Tree.Nodes() {
			if v != s.Tree.Root() && (local == nil || mine[v]) {
				expect[v] += len(s.Packets)
				dests++
			}
		}
	}
	s := &PlainShare{
		crew:     crew{abort: make(chan struct{})},
		cfg:      cfg,
		sessions: sessions,
		nis:      map[int]*ni{},
		done:     make(chan int, dests),
		fail:     make(chan error, 1),
	}
	var inboxes map[int]*link.Inbox // what AttachAll attaches; nil, and free, on the in-process fabric
	if cfg.Network != nil {
		inboxes = map[int]*link.Inbox{}
	}
	for _, sess := range sessions {
		for _, v := range sess.Tree.Nodes() {
			if s.nis[v] != nil || (local != nil && !mine[v]) {
				continue
			}
			capacity := expect[v]
			if cfg.BufferPackets > 0 {
				capacity = cfg.BufferPackets
			}
			n := &ni{s: s, host: v, inbox: link.NewInbox(v, capacity, cfg.BufferPackets), sessions: map[uint32]*niSession{}}
			s.nis[v] = n
			if inboxes != nil {
				inboxes[v] = n.inbox
			}
		}
	}
	var err error
	if s.detach, err = link.AttachAll(cfg.Network, inboxes); err != nil {
		return nil, err
	}
	for si, sess := range sessions {
		for _, v := range sess.Tree.Nodes() {
			if s.nis[v] == nil {
				continue
			}
			ns := &niSession{index: si}
			var links []link.Transport
			for _, c := range sess.Tree.Children(v) {
				var tr link.Transport
				if cfg.Network == nil {
					tr = link.New(v, s.nis[c].inbox, cfg.LinkLatency)
				} else if tr, err = cfg.Network.Dial(v, c); err != nil {
					s.detach()
					return nil, fmt.Errorf("dial edge %d->%d: %w", v, c, err)
				}
				if cfg.Record {
					tr = recorded{Transport: tr, s: s, ns: ns}
				}
				links = append(links, tr)
			}
			ns.HostSession = NewHostSession(v, links)
			s.nis[v].sessions[sess.MsgID] = ns
		}
	}
	return s, nil
}

// Start runs every local NI and an injector per local session root on
// their own goroutines; DoneAt and trace times count from start.
func (s *PlainShare) Start(start time.Time) {
	s.start = start
	for _, n := range s.nis {
		s.Go(n.run)
	}
	for _, sess := range s.sessions {
		if n := s.nis[sess.Tree.Root()]; n != nil {
			ns := n.sessions[sess.MsgID]
			s.Go(func() { s.inject(sess, ns) })
		}
	}
}

// Done names a local host each time it completes a session's message.
func (s *PlainShare) Done() <-chan int { return s.done }

// Failed yields the share's first forwarding or protocol error; an abort
// is not one.
func (s *PlainShare) Failed() <-chan error { return s.fail }

// Host returns the record of session si (an index into the sessions the
// share was built from) at v, a local host of that session's tree.
func (s *PlainShare) Host(si, v int) *HostRecord {
	return &s.nis[v].sessions[s.sessions[si].MsgID].HostRecord
}

// trace appends one wall-clock event, stamped in microseconds from start
// (the simulator's trace unit), to ns's log when Config.Record is set. The
// caller must be the goroutine that owns ns.
func (s *PlainShare) trace(ns *niSession, kind string, peer, packet int) {
	if s.cfg.Record {
		ns.events = append(ns.events, sim.TraceEvent{
			Kind: kind, Time: float64(time.Since(s.start)) / float64(time.Microsecond), Host: ns.Host,
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
	s  *PlainShare
	ns *niSession // the sending host's state; its owner is the only sender
}

func (r recorded) Send(pkt []byte, abort <-chan struct{}) error {
	err := r.Transport.Send(pkt, abort)
	if err == nil {
		// Session.Validate has vetted every header the run can carry.
		h, _ := message.DecodeHeader(pkt)
		r.s.trace(r.ns, "inject", r.To(), int(h.Seq))
	}
	return err
}

// inject is the source pump of one session: the host DMA feeding the
// root NI. FPFS at the source is packet-major — packet 0 to every child,
// then packet 1, ... — one copy at a time (the NI is a serial server).
func (s *PlainShare) inject(sess Session, ns *niSession) {
	// Stamp the session's own start before the first send: per-session
	// latency must not charge a session for the time earlier sessions'
	// injectors held the scheduler.
	ns.startAt = time.Since(s.start)
	for _, pkt := range sess.Packets {
		if err := ns.Forward(pkt, s.abort); err != nil {
			s.failed(err)
			return
		}
	}
}

// run is the NI forwarding loop: admit the next frame (the sender has
// already reserved our buffer slot), serve it — forward a copy to every
// child of its session the moment it arrives, deliver locally — then
// release the slot, until the share aborts.
func (n *ni) run() {
	for {
		f, ok := n.inbox.Recv(n.s.abort)
		if !ok {
			return
		}
		if err := n.serve(f); err != nil {
			n.s.failed(err)
			return
		}
	}
}

// failed reports the first NI-level failure to the driver — a real
// transport or protocol error, surfaced instead of hanging into the
// watchdog. Later ones are dropped (the first tears everything down), and
// so is an abort: that is the teardown, and the driver owns the verdict.
func (s *PlainShare) failed(err error) {
	if errors.Is(err, link.ErrAborted) {
		return
	}
	select {
	case s.fail <- err:
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
	n.s.trace(ns, "deliver", f.From, int(h.Seq))
	done, err := ns.Serve(h, f.Payload, f.From, n.s.abort, n.s.start)
	if err != nil {
		return err
	}
	if done {
		n.s.trace(ns, "done", -1, -1)
		n.s.done <- n.host // sized for every local destination; never blocks
	}
	n.inbox.Release()
	return nil
}
