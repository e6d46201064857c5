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

// Share is the data plane over a fixed host set, and the only code that
// builds, runs or tears one down: an inbox and an NI goroutine per host,
// serving the plain (unacknowledged) sessions that join (Add) and leave
// (Remove) while the NIs run, the root's NI as their source (Inject), and
// the reliable sessions that join with AddReliable. Both Runs and both
// RunReliables — live's, and mcastd's over the hosts of one OS process —
// and the session scheduler (internal/sched) drive it; a driver keeps
// only what ends its sessions. Every session's evidence, plain or
// reliable, leaves on the share's one queue (Reports), which the driver's
// one loop reads.
//
// Report, Reports, Dropped, Now, Go and Aborted are safe from any
// goroutine; Add, AddReliable and Inject are called from one goroutine at
// a time.
type Share struct {
	cfg     Config
	quantum int
	nis     map[int]*ni
	start   time.Time // the wall clock's zero: Start's time
	virt    *virtual  // RunVirtual's engine, whose time is the clock; nil on the wall
	added   int       // Adds so far: the next entry's trace session index
	reports chan Report
	dropped atomic.Int64
	// reliable maps each reliable session's MsgID to its NIs by host;
	// AddReliable replaces the map whole, so the NIs read it without a lock.
	reliable atomic.Pointer[map[uint32]map[int]*ReliableNI]

	abort  chan struct{}
	detach func() // set once the inboxes are attached
	wg     sync.WaitGroup
}

// Entry is one session of a share, from Add to Remove.
type Entry struct {
	Session
	index   int
	abort   <-chan struct{}
	hosts   map[int]*niSession // the local hosts' states, one slab
	startAt time.Duration      // when the root's NI took the session
}

// niSession is one host's state for one entry: the shared FPFS step, the
// host's place in its NI's fair queue and live.Run's trace. Like the
// HostSession it embeds, it is written only by the host's NI goroutine
// (and by Inject before it hands the root's over).
type niSession struct {
	HostSession
	e       *Entry
	pending []staged // admitted frames in arrival order, each holding a buffer slot; at the root, unsent packets (no slot)
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
// inbox. A plain session's frames go to per-session queues, served, with
// the sessions the NI is the source of, by deficit round robin, so an
// elephant session's backlog cannot starve a mouse sharing the interface;
// with one session it serves in arrival order. A reliable session's frame
// is served the moment it is staged, by the host's ReliableNI. The plain
// registration map and the hand-off (sources, edits) are all it shares
// with Add, Remove, Inject and the reliable sessions' supervisors.
type ni struct {
	s     *Share
	host  int
	inbox *link.Inbox
	wake  chan struct{} // one token: sources or edits are waiting

	mu       sync.Mutex
	sessions map[uint32]*niSession // made by the first Add
	sources  []*niSession          // injected, not yet in the ring
	edits    []func()              // ReliableNI child-edge changes, in call order

	ring []*niSession // backlogged sessions in service order, from head
	head int
}

// NewShare builds the NIs Start runs, one per host: in-process inboxes
// by default, or every inbox attached to cfg.Network (link.AttachAll). An
// unbounded inbox's wire holds wire frames before senders block on it;
// cfg.BufferPackets, when set, bounds it instead. quantum is the DRR grant
// in packets. A negative bound is refused; a failed attach is the returned
// error, naming the host, with whatever was attached detached again.
func NewShare(hosts []int, wire, quantum int, cfg Config) (*Share, error) {
	if cfg.BufferPackets < 0 {
		return nil, fmt.Errorf("negative buffer bound %d", cfg.BufferPackets)
	}
	s := &Share{
		abort:   make(chan struct{}),
		start:   time.Now(), // until Start
		cfg:     cfg,
		quantum: quantum,
		nis:     make(map[int]*ni, len(hosts)),
		// A few reports per host queue up behind a busy reader.
		reports: make(chan Report, 8*len(hosts)+64),
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
		nis[i] = ni{s: s, host: v, inbox: link.NewInbox(v, wire, cfg.BufferPackets), wake: make(chan struct{}, 1)}
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

// Start starts the share's clock, which DoneAt, trace times and every
// reliable timer read, and each NI's goroutine, spawned with one closure;
// NIs holding a source or an edit start last: the last spawned runs first.
func (s *Share) Start() {
	s.start = time.Now()
	for _, sources := range []bool{false, true} {
		for _, n := range s.nis {
			if (len(n.wake) > 0) == sources {
				s.wg.Add(1)
				go func() { defer s.wg.Done(); n.run() }()
			}
		}
	}
}

// Now reads the run's one clock: the wall's since Start, or RunVirtual's.
func (s *Share) Now() time.Duration { return s.virt.now(s.start) }

// Go runs f, one of the share's goroutines or one of its driver's (the
// daemon's ctl listener), under the join of Stop; f must return once
// Aborted closes.
func (s *Share) Go(f func()) {
	s.wg.Add(1)
	go func() { defer s.wg.Done(); f() }()
}

// Aborted is closed by Stop: the teardown signal of everything the share
// runs and of whatever blocks on its behalf.
func (s *Share) Aborted() <-chan struct{} { return s.abort }

// Stop tears the share down, whatever the run's outcome: abort, join every
// goroutine, then detach. Detaching last means no NI or sender is left to
// trip over a retired transport; it stops the network's receive pumps and
// unparks any deliverer still blocked on an inbox gate. The inboxes are
// never read again and are left to the collector, not closed.
func (s *Share) Stop() {
	close(s.abort)
	s.wg.Wait()
	s.detach()
}

// dial provisions edge a->b: an in-process link into b's inbox, shaped
// with LinkLatency, or a Network edge. A failed dial names the edge.
func (s *Share) dial(a, b int) (link.Transport, error) {
	if s.cfg.Network == nil {
		return link.New(a, s.nis[b].inbox, s.cfg.LinkLatency), nil
	}
	tr, err := s.cfg.Network.Dial(a, b)
	if err != nil {
		return nil, fmt.Errorf("dial edge %d->%d: %w", a, b, err)
	}
	return tr, nil
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
func (s *Share) Add(sess Session, abort <-chan struct{}) (*Entry, error) {
	nodes := sess.Tree.Nodes()
	local := 0
	for _, v := range nodes {
		if s.nis[v] != nil {
			local++
		}
	}
	e := &Entry{Session: sess, index: s.added, abort: abort, hosts: make(map[int]*niSession, local)}
	s.added++
	// A plain session delivers each packet to a host once, and a root
	// stages its m packets once, so m staging and arrival slots per host
	// never grow.
	m := len(sess.Packets)
	states, queues, arrivals := make([]niSession, local), make([]staged, local*m), make([]Arrival, local*m)
	i := 0
	for _, v := range nodes {
		if s.nis[v] == nil {
			continue
		}
		ns := &states[i]
		ns.e, ns.pending = e, queues[i*m:i*m:(i+1)*m]
		var links []link.Transport
		for _, c := range sess.Tree.Children(v) {
			tr, err := s.dial(v, c)
			if err != nil {
				return nil, err
			}
			tr = s.virt.transport(tr, tr)
			if s.cfg.Record {
				tr = recorded{Transport: tr, s: s, ns: ns}
			}
			links = append(links, tr)
		}
		ns.HostSession = NewHostSession(v, links)
		ns.Arrivals = arrivals[i*m : i*m : (i+1)*m]
		e.hosts[v] = ns
		i++
	}
	for v, ns := range e.hosts {
		if v != sess.Tree.Root() {
			n := s.nis[v]
			n.mu.Lock()
			if n.sessions == nil {
				n.sessions = map[uint32]*niSession{}
			}
			n.sessions[sess.MsgID] = ns
			n.mu.Unlock()
		}
	}
	return e, nil
}

// Remove unregisters e at its NIs: later frames of its session are dropped
// and counted. Frames already queued are still served, or, once e's abort
// has closed, dropped.
func (s *Share) Remove(e *Entry) {
	for v := range e.hosts {
		n := s.nis[v]
		n.mu.Lock()
		delete(n.sessions, e.MsgID)
		n.mu.Unlock()
	}
}

// Inject makes e's root NI its source: it stages the m packets in the
// root's slots and hands the session over, and the NI serves it in its
// ring beside the frames it forwards, each packet to every child before
// the next (packet-major FPFS). e's root must be a share host; Inject may
// precede Start.
func (s *Share) Inject(e *Entry) {
	ns := e.hosts[e.Tree.Root()]
	for _, pkt := range e.Packets {
		ns.pending = append(ns.pending, staged{payload: pkt})
	}
	n := s.nis[ns.Host]
	n.mu.Lock()
	n.sources = append(n.sources, ns)
	n.mu.Unlock()
	n.poke()
}

// handOff queues edit for host v's NI goroutine, which runs it after every
// edit queued before it; it never blocks on the NI, and may precede Start.
func (s *Share) handOff(v int, edit func()) {
	n := s.nis[v]
	n.mu.Lock()
	n.edits = append(n.edits, edit)
	n.mu.Unlock()
	n.poke()
}

// poke leaves the NI its one wake token, and in virtual time its turn.
func (n *ni) poke() {
	select {
	case n.wake <- struct{}{}:
	default: // a token is already waiting
	}
	n.s.virt.turn(n)
}

// Host returns the record of share host v for this entry.
func (e *Entry) Host(v int) *HostRecord { return &e.hosts[v].HostRecord }

// Result is the entry's session record over the share's hosts of its
// tree: StartAt is the root NI's take of the session (zero if the root is
// not a share host), FinishAt the last local DoneAt. Read it once every
// local destination's ReportDone is received or the NIs are joined.
func (e *Entry) Result() SessionResult {
	sr := SessionResult{MsgID: e.MsgID, StartAt: e.startAt, Hosts: make(map[int]*HostRecord, len(e.hosts))}
	for v, ns := range e.hosts {
		sr.Hosts[v] = &ns.HostRecord
		sr.FinishAt = max(sr.FinishAt, ns.DoneAt)
	}
	sr.Latency = sr.FinishAt - sr.StartAt
	return sr
}

func (e *Entry) aborted() bool {
	select {
	case <-e.abort:
		return true
	default:
		return false
	}
}

// Report queues one piece of a session's evidence for the driver's loop.
// A beat is dropped when the queue is full (a missed beat is silence);
// anything else waits for room, unless the share is tearing down.
func (s *Share) Report(r Report) {
	if r.Kind == ReportBeat {
		select {
		case s.reports <- r:
		default:
		}
		return
	}
	select {
	case s.reports <- r:
		s.virt.heard()
	case <-s.abort:
	}
}

// Reports is the share's evidence queue, in report order.
func (s *Share) Reports() <-chan Report { return s.reports }

// Dropped counts the frames the NIs discarded: undecodable ones, and those
// of a session not registered there (plain or reliable) or aborted.
func (s *Share) Dropped() int64 { return s.dropped.Load() }

// failed reports err, unless it is an abort: that is a teardown, and the
// driver owns the verdict.
func (s *Share) failed(ns *niSession, err error) {
	if !errors.Is(err, link.ErrAborted) {
		s.Report(Report{Kind: ReportFailed, Entry: ns.e, Host: ns.Host, Err: err})
	}
}

// trace appends one event, stamped on the share's clock in microseconds
// (the simulator's trace unit), to ns's log when Config.Record is set. The
// caller must be the goroutine that owns ns.
func (s *Share) trace(ns *niSession, kind string, peer, packet int) {
	if s.cfg.Record {
		ns.events = append(ns.events, sim.TraceEvent{Kind: kind, Time: link.US(s.Now()), Host: ns.Host,
			Peer: peer, Session: ns.e.index, Packet: packet})
	}
}

// recorded is Config.Record's transport decorator, wrapped around every
// tree edge at Add: each copy that went out is an "inject" event in the
// sending host's log (after Send returns, so on an unbounded link the
// receiver may stamp its "deliver" first). Forwarding itself — shared
// with engines that record nothing — stays free of tracing.
type recorded struct {
	link.Transport
	s  *Share
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

// run is the NI loop until the share aborts: step, and while the ring is
// idle, wait for a frame (staging it) or a hand-off.
func (n *ni) run() {
	for {
		n.step()
		if n.head == len(n.ring) {
			select {
			case f := <-n.inbox.Wire():
				n.stage(f)
			case <-n.wake:
				n.adopt()
			case <-n.s.abort:
				return
			}
		}
	}
}

// step is one turn of the NI: stage every frame the wire holds (so it never
// backs up), take every source and edit handed over, then give the session
// at the ring's head a quantum of service, sending it to the tail while it
// is still backlogged; a ring left backlogged gets another turn at once.
func (n *ni) step() {
	for len(n.inbox.Wire()) > 0 { // only this NI receives, so neither blocks
		n.stage(<-n.inbox.Wire())
	}
	if len(n.wake) > 0 {
		<-n.wake
		n.adopt()
	}
	if n.head == len(n.ring) {
		return
	}
	ns := n.ring[n.head]
	n.ring[n.head] = nil
	if n.head++; n.head == len(n.ring) {
		n.ring, n.head = n.ring[:0], 0
	}
	ns.deficit += n.s.quantum
	source := n.host == ns.e.Tree.Root()
	for ns.deficit > 0 && len(ns.pending) > 0 && !ns.e.aborted() {
		st := ns.pending[0]
		ns.pending = ns.pending[1:]
		ns.deficit--
		if source {
			if err := ns.Forward(st.payload, ns.e.abort); err != nil {
				n.s.failed(ns, err)
				ns.pending = nil // the injection ends at its first failure
			}
		} else {
			n.serve(ns, st)
		}
	}
	switch {
	case ns.e.aborted():
		// Release the slots an aborted session's frames still hold:
		// this is what breaks a credit cycle once a driver aborts a
		// wedged session. A source's packets hold none.
		if !source {
			n.s.dropped.Add(int64(len(ns.pending)))
			for range ns.pending {
				n.inbox.Release()
			}
		}
		ns.pending, ns.deficit, ns.queued = nil, 0, false
	case len(ns.pending) > 0:
		n.push(ns)
	default:
		ns.deficit, ns.queued = 0, false
	}
	if n.head < len(n.ring) {
		n.s.virt.turn(n) // on the wall, run loops back to step
	}
}

// adopt puts the sources Inject handed over into the ring, stamping each
// session's start (SessionResult.StartAt) ahead of its first turn, then
// runs the edits handed over, in order.
func (n *ni) adopt() {
	n.mu.Lock()
	for _, ns := range n.sources {
		ns.e.startAt = n.s.Now()
		ns.queued = true
		n.push(ns)
	}
	clear(n.sources)
	n.sources = n.sources[:0]
	edits := n.edits
	n.edits = nil
	n.mu.Unlock()
	for _, edit := range edits {
		edit()
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

// stage waits out one frame's latency, then admits it into its plain
// session's queue, or serves a reliable session's frame at once and frees
// its slot. A frame that is undecodable, or names no session registered
// here or an aborted one, is dropped: counted, its slot freed at once.
func (n *ni) stage(f link.Frame) {
	f.Wait()
	h, err := message.DecodeHeader(f.Payload)
	var ns *niSession
	if err == nil {
		n.mu.Lock()
		ns = n.sessions[h.MsgID]
		n.mu.Unlock()
		if m := n.s.reliable.Load(); ns == nil && m != nil {
			if rn := (*m)[h.MsgID][n.host]; rn != nil {
				rn.serve(f, h)
				n.inbox.Release()
				return
			}
		}
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
// a failure.
func (n *ni) serve(ns *niSession, st staged) {
	n.s.trace(ns, "deliver", st.from, int(st.h.Seq))
	done, err := ns.Serve(st.h, st.payload, st.from, ns.e.abort, n.s)
	n.inbox.Release()
	if err != nil {
		n.s.failed(ns, err)
	} else if done {
		n.s.virt.receive(&ns.HostRecord, ns.Data, ns.DoneAt)
		n.s.trace(ns, "done", -1, -1)
		n.s.Report(Report{Kind: ReportDone, Entry: ns.e, Host: n.host, At: ns.DoneAt})
	}
}
