package link

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Network provisions live-runtime transports over a real fabric instead
// of in-process channels: the runtime Attaches every participating
// host's inbox before starting, Dials a Transport per tree edge, and
// Detaches each host at teardown. *UDPNetwork is the socket
// implementation; anything satisfying this seam (a future TCP or RDMA
// backend) slots into live.Config.Network unchanged.
type Network interface {
	// Attach registers host's inbox so dialed transports can deliver to
	// it; the implementation starts whatever receive machinery the host
	// needs. A host must be attached before edges from it are dialed
	// (senders need the return path for flow control).
	Attach(host int, in *Inbox) error
	// Dial opens one directed edge incarnation from an attached host to a
	// known peer. The returned Transport honors the interface contract:
	// Send blocks under backpressure and returns ErrAborted once the
	// abort channel closes or the from-host detaches.
	Dial(from, to int) (Transport, error)
	// Detach stops host's receive machinery and retires every transport
	// dialed from it; blocked Sends return ErrAborted. Idempotent.
	Detach(host int)
}

// AttachAll attaches every inbox to nw under its host ID and returns the
// matching detach. Engines call it once, before dialing anything: a dialed
// peer may start sending the moment the root injects, and flow-control
// credits only flow from attached endpoints. On an attach error whatever
// was attached is detached again. A nil network is the in-process fabric:
// there is nothing to attach and detach does nothing.
func AttachAll(nw Network, inboxes map[int]*Inbox) (detach func(), err error) {
	if nw == nil {
		return func() {}, nil
	}
	attached := make([]int, 0, len(inboxes))
	detach = func() {
		for _, v := range attached {
			nw.Detach(v)
		}
	}
	for v, in := range inboxes {
		if err := nw.Attach(v, in); err != nil {
			detach()
			return nil, fmt.Errorf("link: attach host %d: %w", v, err)
		}
		attached = append(attached, v)
	}
	return detach, nil
}

// UDPConfig tunes a UDPNetwork.
type UDPConfig struct {
	// Session is the run nonce stamped into every datagram; endpoints
	// drop datagrams of any other session, so two fabrics sharing ports
	// (or a stale process) cannot cross-talk.
	Session uint64
	// MTU bounds the datagram size (header + payload). Wire packets
	// larger than MTU-34 are fragmented. Zero selects DefaultUDPMTU.
	MTU int
	// Window is the per-edge credit window in fragments: a sender blocks
	// once Window fragments are unacknowledged by flow-control credits —
	// the datagram form of the in-process gate's backpressure. Zero
	// selects DefaultUDPWindow.
	Window int
}

const (
	// DefaultUDPMTU keeps datagrams under the classic 1280-byte IPv6
	// minimum-MTU budget with room for IP/UDP headers.
	DefaultUDPMTU = 1200
	// DefaultUDPWindow is the per-edge in-flight fragment bound.
	DefaultUDPWindow = 16

	// udpProbeEvery is how long a sender stays credit-blocked before it
	// probes the receiver — self-healing when a credit datagram is lost.
	udpProbeEvery = 10 * time.Millisecond
	// udpCtlBacklog sizes the network's one control queue: 64 datagrams
	// for each of 16 local hosts.
	udpCtlBacklog = 1024
)

// withDefaults normalizes the zero values.
func (c UDPConfig) withDefaults() (UDPConfig, error) {
	if c.MTU == 0 {
		c.MTU = DefaultUDPMTU
	}
	if c.Window == 0 {
		c.Window = DefaultUDPWindow
	}
	if c.MTU < dgHeaderSize+16 || c.MTU > maxDatagram {
		return c, fmt.Errorf("link: UDP MTU %d outside [%d, %d]", c.MTU, dgHeaderSize+16, maxDatagram)
	}
	if c.Window < 1 {
		return c, fmt.Errorf("link: UDP window %d must be >= 1", c.Window)
	}
	return c, nil
}

// UDPStats is a snapshot of a network's drop counters. All drops are
// legal under UDP semantics — the reliable layer retransmits above — but
// nonzero counts on a loopback fabric localize a bug.
type UDPStats struct {
	// BadDatagrams counts undecodable datagrams (truncation, corruption,
	// version mismatch).
	BadDatagrams uint64
	// Foreign counts well-formed datagrams for another session or host.
	Foreign uint64
	// Resyncs counts fragment-sequence breaks that discarded a partial
	// wire packet (datagram loss or reordering mid-packet).
	Resyncs uint64
	// Overflow counts completed wire packets dropped because an
	// incarnation's delivery queue was full (cannot happen while senders
	// respect the credit window).
	Overflow uint64
	// CtlDropped counts control datagrams dropped on a full ctl queue.
	CtlDropped uint64
}

// UDPNetwork moves live-runtime frames over real UDP sockets: one socket
// per hosted NI, explicit datagram framing (udpframe.go), MTU-bounded
// fragmentation, and credit-based per-edge flow control that turns the
// receiver's bounded inbox into sender-side blocking backpressure — the
// Transport contract, over a wire that can actually drop.
//
// Topology is explicit: Listen binds a socket for each locally hosted
// NI, AddPeer registers the address of every remote one (a daemon knows
// both from its peer map; NewLoopbackUDP does it all in-process). The
// zero-config differential path is NewLoopbackUDP + live.Config.Network.
//
// Delivery semantics: plain live.Run above this network assumes the
// loopback guarantees (no loss, per-socket-pair ordering); on a real
// network use live.RunReliable, whose retransmission plane was built for
// exactly this wire. A network may be reused across runs only when the
// previous run completed cleanly — an aborted run can leave datagrams in
// kernel buffers that the next Attach would deliver.
type UDPNetwork struct {
	cfg UDPConfig

	mu     sync.Mutex
	eps    map[int]*udpEndpoint
	peers  map[int]netip.AddrPort
	closed bool

	nextInc atomic.Uint32
	ctl     chan Ctl

	bad, foreign, resync, overflow, ctlDropped atomic.Uint64
}

// NewUDPNetwork creates an empty network; add endpoints with Listen and
// remote addresses with AddPeer.
func NewUDPNetwork(cfg UDPConfig) (*UDPNetwork, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &UDPNetwork{
		cfg:   cfg,
		eps:   map[int]*udpEndpoint{},
		peers: map[int]netip.AddrPort{},
		ctl:   make(chan Ctl, udpCtlBacklog),
	}, nil
}

// NewLoopbackUDP builds the single-process fabric: one 127.0.0.1 socket
// per host, every host a peer of every other. It is the network behind
// the net-matches-live differential arm and `mcastd -all`.
func NewLoopbackUDP(hosts []int, cfg UDPConfig) (*UDPNetwork, error) {
	n, err := NewUDPNetwork(cfg)
	if err != nil {
		return nil, err
	}
	for _, h := range hosts {
		if _, err := n.Listen(h, "127.0.0.1:0"); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// Listen binds a UDP socket for host (addr "" means 127.0.0.1:0) and
// registers the bound address as host's peer entry. Each host binds at
// most once.
func (n *UDPNetwork) Listen(host int, addr string) (*net.UDPAddr, error) {
	if host < 0 || host > 0xFFFF {
		return nil, fmt.Errorf("link: host %d outside the datagram header's range", host)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("link: host %d: %w", host, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("link: host %d: %w", host, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		conn.Close()
		return nil, fmt.Errorf("link: network closed")
	}
	if _, dup := n.eps[host]; dup {
		conn.Close()
		return nil, fmt.Errorf("link: host %d already listening", host)
	}
	ep := &udpEndpoint{
		n:     n,
		host:  host,
		conn:  conn,
		edges: map[uint32]*UDPTransport{},
	}
	n.eps[host] = ep
	bound := conn.LocalAddr().(*net.UDPAddr)
	n.peers[host] = peerAddr(bound)
	return bound, nil
}

// peerAddr is the form a peer is held in: a value, so per-datagram I/O
// allocates nothing, and unmapped, because a resolved *net.UDPAddr carries
// IPv4 as 4-in-6 (::ffff:a.b.c.d), which an IPv4 socket refuses to write
// to (an IPv6 socket maps a plain IPv4 address back by itself).
func peerAddr(ua *net.UDPAddr) netip.AddrPort {
	ap := ua.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// AddPeer registers the address of a host served by another process.
func (n *UDPNetwork) AddPeer(host int, addr string) error {
	if host < 0 || host > 0xFFFF {
		return fmt.Errorf("link: host %d outside the datagram header's range", host)
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("link: peer %d: %w", host, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[host] = peerAddr(ua)
	return nil
}

// Addr returns the registered address of a host (nil if unknown).
func (n *UDPNetwork) Addr(host int) *net.UDPAddr {
	n.mu.Lock()
	defer n.mu.Unlock()
	if peer := n.peers[host]; peer.IsValid() {
		return net.UDPAddrFromAddrPort(peer)
	}
	return nil
}

// Local reports whether host is served by a socket of this network.
func (n *UDPNetwork) Local(host int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eps[host] != nil
}

// Stats snapshots the drop counters.
func (n *UDPNetwork) Stats() UDPStats {
	return UDPStats{
		BadDatagrams: n.bad.Load(),
		Foreign:      n.foreign.Load(),
		Resyncs:      n.resync.Load(),
		Overflow:     n.overflow.Load(),
		CtlDropped:   n.ctlDropped.Load(),
	}
}

var _ Network = (*UDPNetwork)(nil)

// Attach starts host's receive pump delivering into the inbox.
func (n *UDPNetwork) Attach(host int, in *Inbox) error {
	if in == nil {
		return fmt.Errorf("link: host %d: nil inbox", host)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("link: network closed")
	}
	ep := n.eps[host]
	if ep == nil {
		return fmt.Errorf("link: host %d is not listening on this network", host)
	}
	return ep.attach(in)
}

// Detach stops host's pump, discards its in-flight receive state and
// retires every transport dialed from it. Safe to call on hosts that
// were never attached.
func (n *UDPNetwork) Detach(host int) {
	n.mu.Lock()
	ep := n.eps[host]
	n.mu.Unlock()
	if ep != nil {
		ep.detach()
	}
}

// Dial opens a directed edge from an attached local host to any host
// with a registered address, minting a fresh incarnation ID.
func (n *UDPNetwork) Dial(from, to int) (Transport, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("link: network closed")
	}
	ep := n.eps[from]
	peer := n.peers[to]
	n.mu.Unlock()
	if ep == nil {
		return nil, fmt.Errorf("link: dial %d->%d: host %d is not listening here", from, to, from)
	}
	if !peer.IsValid() {
		return nil, fmt.Errorf("link: dial %d->%d: no address for peer %d", from, to, to)
	}
	return ep.dial(to, peer, n.nextInc.Add(1))
}

// Ctl is one control datagram sent with SendCtl (daemon coordination
// traffic): the local host it was addressed to and its payload.
type Ctl struct {
	To      int
	Payload []byte
}

// Ctl returns the network's one control queue, fed by every local host's
// pump.
func (n *UDPNetwork) Ctl() <-chan Ctl { return n.ctl }

// SendCtl sends one out-of-band control payload from a local host to any
// registered peer. Control datagrams bypass flow control (they are small
// and idempotent by protocol design); delivery is best-effort like any
// datagram, so senders repeat until acknowledged at their own layer.
func (n *UDPNetwork) SendCtl(from, to int, payload []byte) error {
	if len(payload) > n.cfg.MTU-dgHeaderSize {
		return fmt.Errorf("link: ctl payload %d exceeds MTU budget %d", len(payload), n.cfg.MTU-dgHeaderSize)
	}
	n.mu.Lock()
	ep := n.eps[from]
	peer := n.peers[to]
	n.mu.Unlock()
	if ep == nil {
		return fmt.Errorf("link: ctl %d->%d: host %d is not listening here", from, to, from)
	}
	if !peer.IsValid() {
		return fmt.Errorf("link: ctl %d->%d: no address for peer %d", from, to, to)
	}
	dg := appendDatagram(make([]byte, 0, dgHeaderSize+len(payload)), dgHeader{
		Kind: dgCtl, From: uint16(from), To: uint16(to),
		Session: n.cfg.Session, Frags: 1,
	}, payload)
	_, err := ep.conn.WriteToUDPAddrPort(dg, peer)
	return err
}

// Close detaches every host and closes every socket. The network cannot
// be reused afterwards.
func (n *UDPNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*udpEndpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	var first error
	for _, ep := range eps {
		ep.detach()
		if err := ep.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// udpEndpoint is one hosted NI's socket plus its receive machinery. The
// pump goroutine (one per attach session) owns the per-incarnation
// receive state; it never blocks — completed wire packets go to a
// bounded per-incarnation queue drained by a deliverer goroutine, which
// is the only place inbox backpressure is absorbed. That split is what
// keeps the fabric deadlock-free: credits for this host's *outgoing*
// edges are processed by the pump even while delivery into this host's
// inbox is stalled.
type udpEndpoint struct {
	n    *UDPNetwork
	host int
	conn *net.UDPConn

	mu       sync.Mutex
	attached bool
	stop     chan struct{} // closed by detach; aborts pump, deliverers, dialed senders
	pumpDone chan struct{} // non-nil from attach until detach has seen the pump exit
	delivers sync.WaitGroup
	edges    map[uint32]*UDPTransport // local outgoing incarnations, by ID
}

func (ep *udpEndpoint) attach(in *Inbox) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.pumpDone != nil {
		return fmt.Errorf("link: host %d already attached", ep.host)
	}
	// The only deadline the socket ever carries is the expired one the
	// last detach woke its pump with; that pump is gone (pumpDone is nil).
	if err := ep.conn.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	ep.attached = true
	ep.stop = make(chan struct{})
	ep.pumpDone = make(chan struct{})
	go ep.pump(in, ep.stop, ep.pumpDone)
	return nil
}

func (ep *udpEndpoint) detach() {
	ep.mu.Lock()
	if !ep.attached {
		ep.mu.Unlock()
		return
	}
	ep.attached = false
	stop, done := ep.stop, ep.pumpDone
	ep.edges = map[uint32]*UDPTransport{}
	ep.mu.Unlock()
	close(stop)
	// Expire the pump's blocked read: that is what wakes it, and every
	// read after it fails too, so the pump exits without a socket close
	// (the endpoint survives for the next attach).
	ep.conn.SetReadDeadline(time.Now())
	<-done
	ep.delivers.Wait()
	ep.mu.Lock()
	ep.pumpDone = nil
	ep.mu.Unlock()
}

func (ep *udpEndpoint) dial(to int, peer netip.AddrPort, inc uint32) (*UDPTransport, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if !ep.attached {
		return nil, fmt.Errorf("link: dial %d->%d: host %d is not attached (no credit return path)",
			ep.host, to, ep.host)
	}
	t := &UDPTransport{
		ep:     ep,
		from:   ep.host,
		to:     to,
		peer:   peer,
		inc:    inc,
		window: uint32(ep.n.cfg.Window),
		chunk:  ep.n.cfg.MTU - dgHeaderSize,
		stop:   ep.stop,
		notify: make(chan struct{}, 1),
	}
	ep.edges[inc] = t
	return t, nil
}

// rcvKey identifies one inbound edge incarnation. The sending host is
// part of the key because incarnation IDs are only unique within the
// minting process — daemons on one fabric each run their own counter.
type rcvKey struct {
	from int
	inc  uint32
}

// rcvState is the receive side of one inbound edge incarnation.
// Fragment reassembly fields are pump-owned; consumed and said are shared
// with the deliverer (both credit cumulatively, the sender keeps the max).
type rcvState struct {
	from     int
	inc      uint32
	addr     netip.AddrPort
	nextSeq  uint32 // next absolute fragment sequence expected
	expect   uint16 // next fragment index of the packet being reassembled
	pkt      []byte // that packet so far: its fragments arrive in order or not at all
	q        chan []byte
	consumed atomic.Uint32 // fragments accounted for: the count a credit carries
	said     atomic.Uint32 // the count the last credit datagram carried
}

// pump is the endpoint's socket-reader loop for one attach session. It
// blocks in its read — no deadline is armed while it runs — validates and
// dispatches every datagram, and otherwise never blocks: that is the
// deadlock-freedom invariant.
//
// Credit accounting is by absolute fragment sequence: every fragment the
// sender ever numbered ends up counted in consumed — on arrival
// (non-final), after delivery (final), or when the wire lost it — or the
// sender's window would shrink by one forever per lost datagram. Counting
// is not saying: the deliverer says the count with each admitted packet,
// and account says it once it has run half a window ahead of the last
// count said, or at once for a gap — the sender may be blocked on
// fragments that will never arrive.
func (ep *udpEndpoint) pump(in *Inbox, stop chan struct{}, done chan struct{}) {
	defer close(done)
	n := ep.n
	rcv := map[rcvKey]*rcvState{}
	buf := make([]byte, maxDatagram)
	credit := make([]byte, 0, dgHeaderSize)
	every := int32(max(1, n.cfg.Window/2))
	account := func(rs *rcvState, frags uint32, atOnce bool) {
		// said may trail a count the deliverer is saying right now; the
		// worst that costs is one redundant (idempotent) credit.
		if c := rs.consumed.Add(frags); atOnce || int32(c-rs.said.Load()) >= every {
			ep.sendCredit(credit, rs)
		}
	}
	for {
		nb, raddr, err := ep.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // detach expired the read, or the socket closed under us
		}
		h, payload, err := decodeDatagram(buf[:nb])
		if err != nil {
			n.bad.Add(1)
			continue
		}
		if h.Session != n.cfg.Session || int(h.To) != ep.host {
			n.foreign.Add(1)
			continue
		}
		switch h.Kind {
		case dgData:
			key := rcvKey{from: int(h.From), inc: h.Epoch}
			rs, ok := rcv[key]
			if !ok {
				rs = &rcvState{
					from: key.from,
					inc:  key.inc,
					addr: raddr,
					// A queue of Window packets can never overflow: every
					// queued packet's final fragment is uncounted until
					// delivery, so the sender's window caps the backlog.
					q: make(chan []byte, n.cfg.Window),
				}
				rcv[key] = rs
				ep.delivers.Add(1)
				go ep.deliver(rs, in, stop)
			}
			if h.Seq < rs.nextSeq {
				n.resync.Add(1) // duplicate or reordered stale fragment
				continue
			}
			if h.Seq > rs.nextSeq {
				// Gap: fragments [nextSeq, h.Seq) are lost. Count them,
				// drop the broken partial packet (its fragments were
				// counted on arrival), and resume at the new sequence.
				n.resync.Add(1)
				account(rs, h.Seq-rs.nextSeq, true)
				rs.nextSeq = h.Seq
				rs.pkt, rs.expect = nil, 0
			}
			rs.nextSeq++
			if h.Frag != rs.expect {
				// In-sequence arrival that does not continue the partial
				// packet (a headless tail after loss). Unrecoverable:
				// count it and move on.
				n.resync.Add(1)
				rs.pkt, rs.expect = nil, 0
				if h.Frag != 0 {
					account(rs, 1, false)
					continue
				}
			}
			if h.Frag == 0 {
				// One buffer per packet, each fragment copied once: all but
				// the last are the size of the first. The header's claim is
				// checksummed, not trusted, hence the cap.
				rs.pkt = make([]byte, 0, min(int(h.Frags)*len(payload), maxDatagram))
			}
			rs.pkt = append(rs.pkt, payload...)
			rs.expect++
			if h.Frag+1 < h.Frags {
				account(rs, 1, false)
				continue
			}
			pkt := rs.pkt
			rs.pkt, rs.expect = nil, 0
			select {
			case rs.q <- pkt:
				// The final fragment is counted by the deliverer once the
				// packet clears the inbox gate — that deferral is what turns
				// inbox fullness into sender-side blocking.
			default:
				n.overflow.Add(1)
				account(rs, 1, false)
			}
		case dgCredit:
			ep.mu.Lock()
			t := ep.edges[h.Epoch]
			ep.mu.Unlock()
			if t != nil && t.to == int(h.From) {
				t.credit(h.Seq)
			}
		case dgProbe:
			// A blocked sender lost a credit; answer with the cumulative
			// count (credits supersede, so replies are idempotent). An
			// unknown incarnation has consumed nothing.
			rs := rcv[rcvKey{from: int(h.From), inc: h.Epoch}]
			if rs == nil {
				rs = &rcvState{from: int(h.From), inc: h.Epoch, addr: raddr}
			}
			ep.sendCredit(credit, rs)
		case dgCtl:
			select {
			case n.ctl <- Ctl{To: ep.host, Payload: append([]byte(nil), payload...)}:
			default:
				n.ctlDropped.Add(1)
			}
		}
	}
}

// deliver drains one incarnation's completed-packet queue into the inbox
// through a plain in-process Link — reusing its gate/latency semantics —
// and counts and says the final fragment of each packet once admitted.
func (ep *udpEndpoint) deliver(rs *rcvState, in *Inbox, stop chan struct{}) {
	defer ep.delivers.Done()
	fwd := New(rs.from, in, 0)
	credit := make([]byte, 0, dgHeaderSize)
	for {
		select {
		case pkt := <-rs.q:
			if fwd.Send(pkt, stop) != nil {
				return // detached mid-delivery
			}
			rs.consumed.Add(1)
			ep.sendCredit(credit, rs)
		case <-stop:
			return
		}
	}
}

// sendCredit emits one cumulative credit datagram to rs's sender. buf is
// the caller's scratch encoding buffer (pump and deliverer each own one).
func (ep *udpEndpoint) sendCredit(buf []byte, rs *rcvState) {
	count := rs.consumed.Load()
	rs.said.Store(count)
	dg := appendDatagram(buf[:0], dgHeader{
		Kind: dgCredit, From: uint16(ep.host), To: uint16(rs.from),
		Session: ep.n.cfg.Session, Epoch: rs.inc,
		Seq: count, Frags: 1,
	}, nil)
	ep.conn.WriteToUDPAddrPort(dg, rs.addr) // best-effort: probes recover lost credits
}

// UDPTransport is one dialed edge incarnation: the socket-backed
// Transport. Send fragments the wire packet to the MTU, blocks while the
// credit window is exhausted (the receiver's inbox is full, or the wire
// is ahead of the pump), probes for lost credits, and returns ErrAborted
// on the caller's abort channel or the endpoint's detach. Like every
// Transport it is owned by a single sending goroutine.
type UDPTransport struct {
	ep     *udpEndpoint
	from   int
	to     int
	peer   netip.AddrPort
	inc    uint32
	window uint32
	chunk  int // max payload bytes per datagram

	seq      uint32 // fragments sent (sender-goroutine owned)
	credited atomic.Uint32
	notify   chan struct{}
	stop     chan struct{} // the dialing attach session's stop channel
	buf      []byte        // datagram encoding scratch
}

var _ Transport = (*UDPTransport)(nil)

// From returns the sending host; To the receiving host.
func (t *UDPTransport) From() int { return t.from }

// To returns the receiving host.
func (t *UDPTransport) To() int { return t.to }

// credit records a cumulative credit (pump goroutine). Values may arrive
// stale or out of order; only the max advances the window.
func (t *UDPTransport) credit(v uint32) {
	for {
		cur := t.credited.Load()
		if v <= cur {
			return
		}
		if t.credited.CompareAndSwap(cur, v) {
			select {
			case t.notify <- struct{}{}:
			default:
			}
			return
		}
	}
}

// Send fragments payload into MTU-bounded datagrams and writes them,
// honoring the credit window. Zero-length payloads still send one
// (empty) fragment, preserving frame boundaries.
func (t *UDPTransport) Send(payload []byte, abort <-chan struct{}) error {
	frags := (len(payload) + t.chunk - 1) / t.chunk
	if frags == 0 {
		frags = 1
	}
	if frags > 0xFFFF {
		return fmt.Errorf("link: %d-byte payload needs %d fragments, header field holds 65535", len(payload), frags)
	}
	for f := 0; f < frags; f++ {
		if err := t.waitWindow(abort); err != nil {
			return err
		}
		lo := f * t.chunk
		hi := lo + t.chunk
		if hi > len(payload) {
			hi = len(payload)
		}
		t.buf = appendDatagram(t.buf[:0], dgHeader{
			Kind: dgData, From: uint16(t.from), To: uint16(t.to),
			Session: t.ep.n.cfg.Session, Epoch: t.inc, Seq: t.seq,
			Frag: uint16(f), Frags: uint16(frags),
		}, payload[lo:hi])
		if err := t.write(t.buf, abort); err != nil {
			return err
		}
		t.seq++
	}
	return nil
}

// waitWindow blocks until the credit window has room, probing the
// receiver while stalled (credits are unreliable datagrams too).
func (t *UDPTransport) waitWindow(abort <-chan struct{}) error {
	for t.seq-t.credited.Load() >= t.window {
		timer := time.NewTimer(udpProbeEvery)
		select {
		case <-t.notify:
			timer.Stop()
		case <-timer.C:
			t.sendProbe()
		case <-abort:
			timer.Stop()
			return ErrAborted
		case <-t.stop:
			timer.Stop()
			return ErrAborted
		}
	}
	return nil
}

// sendProbe asks the receiver to restate its cumulative credit.
func (t *UDPTransport) sendProbe() {
	// t.buf is idle here: Send encodes into it only once the window has room.
	t.buf = appendDatagram(t.buf[:0], dgHeader{
		Kind: dgProbe, From: uint16(t.from), To: uint16(t.to),
		Session: t.ep.n.cfg.Session, Epoch: t.inc, Seq: t.seq, Frags: 1,
	}, nil)
	t.ep.conn.WriteToUDPAddrPort(t.buf, t.peer)
}

// write puts one datagram on the wire, briefly retrying the transient
// kernel-pressure errors (ENOBUFS/EAGAIN) a send burst can hit so a
// momentary full device queue does not kill a reliable-engine edge.
func (t *UDPTransport) write(dg []byte, abort <-chan struct{}) error {
	for attempt := 0; ; attempt++ {
		_, err := t.ep.conn.WriteToUDPAddrPort(dg, t.peer)
		if err == nil {
			return nil
		}
		if attempt >= 64 || !transientSendErr(err) {
			return fmt.Errorf("link: udp send %d->%d: %w", t.from, t.to, err)
		}
		timer := time.NewTimer(200 * time.Microsecond)
		select {
		case <-timer.C:
		case <-abort:
			timer.Stop()
			return ErrAborted
		case <-t.stop:
			timer.Stop()
			return ErrAborted
		}
	}
}

// transientSendErr reports whether a socket write failed for a reason
// worth a short retry rather than an edge death.
func transientSendErr(err error) bool {
	return errors.Is(err, syscall.ENOBUFS) || errors.Is(err, syscall.EAGAIN) || errors.Is(err, syscall.EINTR)
}
