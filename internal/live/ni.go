package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/sim"
)

// DefaultQuantum is the deficit-round-robin grant, in packets, that
// live.Run and mcastd.Run serve with, and sched.Config.Quantum's default.
const DefaultQuantum = 4

// PlainShare is the plain (unacknowledged) data plane over a fixed host
// set, and the only code that builds, runs or tears one down: an inbox and
// an NI goroutine per host, serving the sessions that join (Add) and leave
// (Remove) while the NIs run. live.Run, mcastd.Run (the hosts of one OS
// process, over UDP) and the session scheduler (internal/sched) drive it;
// a driver keeps only what ends its sessions. Go, Aborted and Stop are
// crew's, shared with ReliableShare.
//
// Done, Failed, Dropped and Aborted are safe from any goroutine; Add is
// called from one goroutine at a time.
type PlainShare struct {
	crew
	cfg     Config
	quantum int
	nis     map[int]*ni
	start   time.Time
	added   int // Adds so far: the next entry's trace session index
	done    chan Delivery
	fail    chan Failure
	dropped atomic.Int64
}

// Entry is one session of a share, from Add to Remove.
type Entry struct {
	Session
	s       *PlainShare
	index   int
	abort   <-chan struct{}
	hosts   map[int]*niSession // the local hosts' states, one slab
	startAt time.Duration      // Inject's first-send instant
}

// Delivery names a local host that has completed an entry's message; the
// host's record (Entry.Host) then has its final Data and DoneAt.
type Delivery struct {
	Entry *Entry
	Host  int
}

// Failure is a forwarding or protocol error of one entry; an abort is not
// one.
type Failure struct {
	Entry *Entry
	Err   error
}

// niSession is one host's state for one entry: the shared FPFS step, the
// host's place in its NI's fair queue and live.Run's trace. Like the
// HostSession it embeds, it is written only by the entry's sender at the
// root and only by the host's NI goroutine everywhere else.
type niSession struct {
	HostSession
	e       *Entry
	pending []staged // admitted frames, in arrival order; each holds its buffer slot
	deficit int
	queued  bool             // in the NI's ring
	events  []sim.TraceEvent // only when Config.Record
}

// staged is one admitted frame waiting in its session's queue.
type staged struct {
	payload []byte
	from    int
	h       message.Header // decoded once, at staging
}

// ni is one host's network interface: a single goroutine draining one
// inbox into per-session queues and serving them by deficit round robin,
// so an elephant session's backlog cannot starve a mouse sharing the
// interface; with one session it serves in arrival order. The
// registration map is all it shares with Add and Remove.
type ni struct {
	s     *PlainShare
	host  int
	inbox *link.Inbox

	mu       sync.Mutex
	sessions map[uint32]*niSession

	ring []*niSession // backlogged sessions in service order, from head
	head int
}

// NewPlainShare builds the NIs Start runs, one per host: in-process inboxes
// by default, or every inbox attached to cfg.Network (link.AttachAll). An
// unbounded inbox's wire holds wire frames before senders block on it;
// cfg.BufferPackets, when set, bounds it instead. quantum is the DRR grant
// in packets. A failed attach is the returned error, naming the host, with
// whatever was attached detached again.
func NewPlainShare(hosts []int, wire, quantum int, cfg Config) (*PlainShare, error) {
	s := &PlainShare{
		crew:    crew{abort: make(chan struct{})},
		cfg:     cfg,
		quantum: quantum,
		nis:     make(map[int]*ni, len(hosts)),
		done:    make(chan Delivery, len(hosts)),
		fail:    make(chan Failure, 1),
	}
	if cfg.BufferPackets > 0 {
		wire = cfg.BufferPackets
	}
	var inboxes map[int]*link.Inbox // what AttachAll attaches; nil, and free, on the in-process fabric
	if cfg.Network != nil {
		inboxes = make(map[int]*link.Inbox, len(hosts))
	}
	nis := make([]ni, len(hosts))
	for i, v := range hosts {
		nis[i] = ni{s: s, host: v, inbox: link.NewInbox(v, wire, cfg.BufferPackets), sessions: map[uint32]*niSession{}}
		s.nis[v] = &nis[i]
		if inboxes != nil {
			inboxes[v] = nis[i].inbox
		}
	}
	var err error
	if s.detach, err = link.AttachAll(cfg.Network, inboxes); err != nil {
		return nil, err
	}
	return s, nil
}

// Start runs every NI on its own goroutine; DoneAt and trace times count
// from start.
func (s *PlainShare) Start(start time.Time) {
	s.start = start
	for _, n := range s.nis {
		s.Go(n.run)
	}
}

// Add joins sess to the share under abort, the session's own teardown
// signal: it dials every tree edge whose parent is a share host (an
// in-process link, or a cfg.Network edge), builds the HostSession of each
// share host in the tree, and registers the session at each of their NIs
// but the root's, which never serves its own session. A session's frames
// travel only these edges, so none can precede its registration. The
// session must be valid (Session.Validate), its MsgID unique among the
// entries present, and, in process, its whole tree share hosts. A failed
// dial is the returned error, naming the edge.
func (s *PlainShare) Add(sess Session, abort <-chan struct{}) (*Entry, error) {
	nodes := sess.Tree.Nodes()
	local := 0
	for _, v := range nodes {
		if s.nis[v] != nil {
			local++
		}
	}
	e := &Entry{Session: sess, s: s, index: s.added, abort: abort, hosts: make(map[int]*niSession, local)}
	s.added++
	// A plain session delivers each packet to a host once, so m staging
	// slots per host never grow.
	m := len(sess.Packets)
	states, queues := make([]niSession, local), make([]staged, local*m)
	i := 0
	for _, v := range nodes {
		if s.nis[v] == nil {
			continue
		}
		ns := &states[i]
		ns.e, ns.pending = e, queues[i*m:i*m:(i+1)*m]
		i++
		var links []link.Transport
		for _, c := range sess.Tree.Children(v) {
			var tr link.Transport
			if s.cfg.Network == nil {
				tr = link.New(v, s.nis[c].inbox, s.cfg.LinkLatency)
			} else {
				var err error
				if tr, err = s.cfg.Network.Dial(v, c); err != nil {
					return nil, fmt.Errorf("dial edge %d->%d: %w", v, c, err)
				}
			}
			if s.cfg.Record {
				tr = recorded{Transport: tr, s: s, ns: ns}
			}
			links = append(links, tr)
		}
		ns.HostSession = NewHostSession(v, links)
		e.hosts[v] = ns
	}
	for v, ns := range e.hosts {
		if v != sess.Tree.Root() {
			n := s.nis[v]
			n.mu.Lock()
			n.sessions[sess.MsgID] = ns
			n.mu.Unlock()
		}
	}
	return e, nil
}

// Remove unregisters e at its NIs: later frames of its session are dropped
// and counted. Frames already queued are still served, or, once e's abort
// has closed, dropped.
func (s *PlainShare) Remove(e *Entry) {
	for v := range e.hosts {
		n := s.nis[v]
		n.mu.Lock()
		delete(n.sessions, e.MsgID)
		n.mu.Unlock()
	}
}

// Inject runs e's source pump on a goroutine of its own: the host DMA
// feeding the root NI, packet-major FPFS one copy at a time. e's root must
// be a share host.
func (s *PlainShare) Inject(e *Entry) {
	s.Go(func() {
		// Stamp the session's own start before the first send: per-session
		// latency must not charge a session for the time earlier sessions'
		// injectors held the scheduler.
		e.startAt = time.Since(s.start)
		for j := range e.Packets {
			if e.Send(j) != nil {
				return
			}
		}
	})
}

// Send is the root's copy step: packet j to every child, in tree order.
// A failure is also posted to Failed. One goroutine sends for an entry,
// whose root must be a share host.
func (e *Entry) Send(j int) error {
	err := e.hosts[e.Tree.Root()].Forward(e.Packets[j], e.abort)
	if err != nil {
		e.s.failed(e, err)
	}
	return err
}

// Host returns the record of share host v for this entry.
func (e *Entry) Host(v int) *HostRecord { return &e.hosts[v].HostRecord }

func (e *Entry) aborted() bool {
	select {
	case <-e.abort:
		return true
	default:
		return false
	}
}

// Done yields each completion of a local host, sent under the share's
// abort.
func (s *PlainShare) Done() <-chan Delivery { return s.done }

// Failed yields each entry's forwarding or protocol errors, sent under the
// share's abort; it holds the first one unread.
func (s *PlainShare) Failed() <-chan Failure { return s.fail }

// Dropped counts the frames the NIs discarded: undecodable ones, and those
// of a session not registered there or aborted.
func (s *PlainShare) Dropped() int64 { return s.dropped.Load() }

// failed reports err, unless it is an abort: that is a teardown, and the
// driver owns the verdict.
func (s *PlainShare) failed(e *Entry, err error) {
	if errors.Is(err, link.ErrAborted) {
		return
	}
	select {
	case s.fail <- Failure{Entry: e, Err: err}:
	case <-s.abort:
	}
}

// trace appends one wall-clock event, stamped in microseconds from start
// (the simulator's trace unit), to ns's log when Config.Record is set. The
// caller must be the goroutine that owns ns.
func (s *PlainShare) trace(ns *niSession, kind string, peer, packet int) {
	if s.cfg.Record {
		ns.events = append(ns.events, sim.TraceEvent{
			Kind: kind, Time: float64(time.Since(s.start)) / float64(time.Microsecond), Host: ns.Host,
			Peer: peer, Session: ns.e.index, Packet: packet,
		})
	}
}

// recorded is Config.Record's transport decorator, wrapped around every
// tree edge at Add: each copy that went out is an "inject" event in the
// sending host's log (after Send returns, so on an unbounded link the
// receiver may stamp its "deliver" first). Forwarding itself — shared
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

// run is the NI loop until the share aborts: stage every frame the wire
// holds (the sender has already reserved its buffer slot), then give the
// session at the ring's head a quantum of service, and send it to the tail
// while it is still backlogged.
func (n *ni) run() {
	for {
		if n.head == len(n.ring) {
			f, ok := n.inbox.Recv(n.s.abort)
			if !ok {
				return
			}
			n.stage(f)
		}
		// Drain everything already delivered, so the wire never backs up
		// while sessions are being served.
		for drained := false; !drained; {
			select {
			case f := <-n.inbox.Wire():
				f.Wait()
				n.stage(f)
			default:
				drained = true
			}
		}
		if n.head == len(n.ring) {
			continue
		}
		ns := n.ring[n.head]
		n.ring[n.head] = nil
		if n.head++; n.head == len(n.ring) {
			n.ring, n.head = n.ring[:0], 0
		}
		ns.deficit += n.s.quantum
		for ns.deficit > 0 && len(ns.pending) > 0 && !ns.e.aborted() {
			st := ns.pending[0]
			ns.pending = ns.pending[1:]
			if !n.serve(ns, st) {
				return
			}
			ns.deficit--
		}
		switch {
		case ns.e.aborted():
			// Release the slots an aborted session's frames still hold:
			// this is what breaks a credit cycle once a driver aborts a
			// wedged session.
			n.s.dropped.Add(int64(len(ns.pending)))
			for range ns.pending {
				n.inbox.Release()
			}
			ns.pending, ns.deficit, ns.queued = nil, 0, false
		case len(ns.pending) > 0:
			n.push(ns)
		default:
			ns.deficit, ns.queued = 0, false
		}
	}
}

// push appends ns to the ring, moving the live part to the front of the
// backing array before it would have to grow.
func (n *ni) push(ns *niSession) {
	if len(n.ring) == cap(n.ring) && n.head > 0 {
		n.ring, n.head = n.ring[:copy(n.ring, n.ring[n.head:])], 0
	}
	n.ring = append(n.ring, ns)
}

// stage admits one frame into its session's queue. A frame that names no
// session registered here, or an aborted one, is dropped: counted, and its
// slot released at once.
func (n *ni) stage(f link.Frame) {
	h, err := message.DecodeHeader(f.Payload)
	var ns *niSession
	if err == nil {
		n.mu.Lock()
		ns = n.sessions[h.MsgID]
		n.mu.Unlock()
	}
	if ns == nil || ns.e.aborted() {
		n.s.dropped.Add(1)
		n.inbox.Release()
		return
	}
	ns.pending = append(ns.pending, staged{payload: f.Payload, from: f.From, h: h})
	if !ns.queued {
		ns.queued = true
		n.push(ns)
	}
}

// serve runs one staged frame through the shared FPFS step under its
// session's abort, releases the frame's slot, and reports a completion or
// a failure. It reports false only once the share aborts.
func (n *ni) serve(ns *niSession, st staged) bool {
	n.s.trace(ns, "deliver", st.from, int(st.h.Seq))
	done, err := ns.Serve(st.h, st.payload, st.from, ns.e.abort, n.s.start)
	n.inbox.Release()
	if err != nil {
		n.s.failed(ns.e, err)
		return true
	}
	if done {
		n.s.trace(ns, "done", -1, -1)
		select {
		case n.s.done <- Delivery{Entry: ns.e, Host: n.host}:
		case <-n.s.abort:
			return false
		}
	}
	return true
}
