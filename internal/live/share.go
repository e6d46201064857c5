package live

import (
	"maps"
	"sort"
	"sync/atomic"

	"repro/internal/live/link"
	"repro/internal/tree"
)

// ReliableShareConfig describes one reliable session of a Share.
type ReliableShareConfig struct {
	Tree *tree.Tree
	// Chaos decorates every transport (nil: none); the driver rebases its
	// clock (Chaos.Start) before it starts the share.
	Chaos *link.Chaos

	// Edge is the template of every edge incarnation: Packets, RTO, RTOMax,
	// RetryBudget, and in JitterSeed the driver's own salt, which the share
	// mixes with the edge's endpoints. The share fills in the rest.
	Edge EdgeSenderConfig
	// NI is the template of every local NI: MsgID, Trace and the hooks. The
	// share fills in Host, Root, Packets and Epoch.
	NI ReliableNIConfig
	// Exhausted reports that an incarnation of edge a->b died — retry
	// budget spent, transport failed, or a mid-run dial that produced no
	// transport — once per incarnation, from a goroutine of the share's.
	// It may block until Aborted closes.
	Exhausted func(a, b int)
	// Suppressed, when non-nil, reports whether host is down right now:
	// sends on its edges vanish (EdgeSenderConfig.Suppressed).
	Suppressed func(host int) bool
	// Remote takes whatever the share and its supervisor send to a host the
	// share does not run: a local child's ACK for a remote parent
	// (OrderAck), and repair orders. Nil when every host is local.
	Remote func(Order)
}

// ReliableShare is one reliable session of a Share, and the only code
// that builds it: a ReliableNI per tree host the Share runs (its local
// hosts), served by that host's NI loop, an EdgeSender incarnation per
// tree edge whose parent is local, the route each child's ACKs take back
// to its incarnation, and the epoch register. It alone decides where a
// message for another host goes: in place, or out through Remote.
// live.RunReliable (every host local) and mcastd.RunReliable (the hosts
// of one OS process, over UDP) drive it; a driver keeps where liveness
// evidence comes from and how Remote reaches another process, never how
// an edge comes up or goes away. Start, Stop, Go and Aborted are the
// Share's.
//
// Route, Epoch and Aborted are safe from any goroutine. Install, Retire
// and SetEpoch belong to one goroutine, the driver's supervisor; NI and
// Totals read state that is quiescent only once Stop has returned.
type ReliableShare struct {
	*Share
	cfg    ReliableShareConfig
	nodes  []int // the tree's hosts, ascending; routes is parallel to it
	nis    map[int]*ReliableNI
	routes []atomic.Pointer[EdgeSender]
	// epoch is the fence register: 0 while the membership plane is
	// unarmed, otherwise the latest view's epoch. Senders stamp it into
	// outgoing frames, receivers discard frames below it.
	epoch atomic.Int64
	all   []*EdgeSender // every incarnation ever built, for Totals
}

// AddReliable joins a reliable session to the share: a ReliableNI per
// tree host the share runs (the root's holds all m packets from the
// outset, so seeding its child edges is the FPFS packet-major injection),
// and an incarnation of every tree edge whose parent is local, dialed
// ascending by child for a deterministic seeding order. Only once every
// edge is up does it register the session at the share's NIs, start the
// senders and queue the root's seeding, which runs after Start. A failed
// dial is the returned error, naming the edge; the caller's Stop then
// detaches every host. The MsgID must be unique among the share's
// sessions.
func (s *Share) AddReliable(cfg ReliableShareConfig) (*ReliableShare, error) {
	m := len(cfg.Edge.Packets)
	rs := &ReliableShare{
		Share: s,
		cfg:   cfg,
		nodes: cfg.Tree.Nodes(),
		nis:   make(map[int]*ReliableNI, len(s.nis)),
	}
	rs.routes = make([]atomic.Pointer[EdgeSender], len(rs.nodes))
	rs.cfg.Edge.Abort, rs.cfg.Edge.Epoch = s.abort, rs.Epoch
	ncfg := &rs.cfg.NI
	ncfg.Packets, ncfg.Epoch = m, rs.cfg.Edge.Epoch
	root := cfg.Tree.Root()
	for _, v := range rs.nodes {
		if s.nis[v] != nil {
			ncfg.Host, ncfg.Root = v, v == root
			rs.nis[v] = newReliableNI(rs, *ncfg)
		}
	}
	for i, b := range rs.nodes { // ascending by child, so ascending per parent
		a, ok := cfg.Tree.Parent(b)
		if !ok || rs.nis[a] == nil {
			continue
		}
		e, err := rs.newEdge(a, b)
		if err != nil {
			return nil, err
		}
		rs.routes[i].Store(e)
		rs.nis[a].children = append(rs.nis[a].children, e)
	}
	reg := map[uint32]map[int]*ReliableNI{cfg.NI.MsgID: rs.nis}
	if old := s.reliable.Load(); old != nil {
		maps.Copy(reg, *old)
	}
	s.reliable.Store(&reg)
	for _, e := range rs.all {
		rs.spawn(e)
	}
	if n := rs.nis[root]; n != nil {
		s.handOff(root, func() { n.replay(n.children) })
	}
	return rs, nil
}

// newEdge builds one incarnation of edge a->b over a fresh, chaos-wrapped
// transport. Both ways it can die on its own — retry budget spent,
// transport failed — report Exhausted.
func (s *ReliableShare) newEdge(a, b int) (*EdgeSender, error) {
	base, err := s.dial(a, b)
	if err != nil {
		return nil, err
	}
	ecfg := s.cfg.Edge
	ecfg.JitterSeed ^= uint64(a+1)<<20 ^ uint64(b+1)
	died := func() { s.cfg.Exhausted(a, b) }
	ecfg.OnExhausted, ecfg.OnDead = died, func(error) { died() }
	if s.cfg.Suppressed != nil {
		ecfg.Suppressed = func() bool { return s.cfg.Suppressed(a) }
	}
	e := NewEdgeSender(s.cfg.Chaos.Wrap(base), ecfg)
	s.all = append(s.all, e)
	return e, nil
}

// spawn runs e under the join of Stop in one allocation, the goroutine's
// closure, where Go would wrap a second around e.Run.
func (s *ReliableShare) spawn(e *EdgeSender) {
	s.wg.Add(1)
	go func() { defer s.wg.Done(); e.Run() }()
}

// route returns the ACK-route cell of tree host v, nil outside the tree.
func (s *ReliableShare) route(v int) *atomic.Pointer[EdgeSender] {
	if i := sort.SearchInts(s.nodes, v); i < len(s.nodes) && s.nodes[i] == v {
		return &s.routes[i]
	}
	return nil
}

// Route returns the incarnation that child's ACKs for frames from parent
// go to, nil when this share runs none (frames still arriving from a
// retired edge go unacknowledged, which nobody awaits). A host hangs off
// one parent at a time, so the route is one cell per tree host.
func (s *ReliableShare) Route(child, parent int) *EdgeSender {
	if r := s.route(child); r != nil {
		if e := r.Load(); e != nil && e.From() == parent {
			return e
		}
	}
	return nil
}

// ack is the one ACK rule, on the NI goroutine of n's host: the host
// acknowledges frame seq from host from at epoch. The chaos plane draws the ACK's loss from
// n's own stream before either branch; a surviving ACK marks a local
// parent's incarnation in place, or leaves through Remote for a remote one.
func (s *ReliableShare) ack(n *ReliableNI, from, seq, epoch int) {
	e := s.Route(n.cfg.Host, from)
	if e == nil && s.nis[from] != nil {
		return // a retired local edge's frame: nobody awaits its ACK
	}
	if s.cfg.Chaos.AckDrop(n.acks) {
		return
	}
	if e == nil {
		s.cfg.Remote(Order{Kind: OrderAck, To: from, A: n.cfg.Host, B: seq, Epoch: epoch})
		return
	}
	e.Ack(EdgeAck{Seq: seq, Epoch: epoch})
}

// Install brings up a fresh incarnation of edge a->b, a local: b's ACKs
// are routed to it first, so the very first replayed frame can be
// acknowledged, then a's NI takes the edge and replays every packet it
// holds into it, on its own goroutine. Installing what is installed does nothing (orders are
// re-sent); installing over another local parent's incarnation retires
// that one first (the order to retire it was lost). When the dial fails —
// a regraft on a closing network — there is no incarnation to run, and
// Exhausted(a, b) is reported once, as for one that died.
func (s *ReliableShare) Install(a, b int) {
	r := s.route(b)
	if r == nil {
		return
	}
	if old := r.Load(); old != nil {
		if old.From() == a {
			return
		}
		s.Retire(old.From(), b)
	}
	e, err := s.newEdge(a, b)
	if err != nil {
		s.Go(func() { s.cfg.Exhausted(a, b) })
		return
	}
	r.Store(e)
	s.spawn(e)
	s.nis[a].AddChild(e)
}

// Retire cancels the installed incarnation of edge a->b (harmless if it
// already died) and detaches it from a's NI. Retiring what is not
// installed does nothing.
func (s *ReliableShare) Retire(a, b int) {
	if e := s.Route(b, a); e != nil {
		s.route(b).Store(nil)
		e.Cancel()
		s.nis[a].DelChild(b)
	}
}

// Epoch returns the fence register.
func (s *ReliableShare) Epoch() int { return int(s.epoch.Load()) }

// SetEpoch raises the fence register to e; it never lowers it, so a
// reordered or replayed announcement cannot reopen a fenced epoch.
func (s *ReliableShare) SetEpoch(e int) {
	if e > s.Epoch() {
		s.epoch.Store(int64(e))
	}
}

// NI returns local host v's NI, nil when v is not this share's.
func (s *ReliableShare) NI(v int) *ReliableNI { return s.nis[v] }

// Totals folds every incarnation's send count into its parent's record
// (HostRecord.Sends) and sums the share's counters over local NIs and
// incarnations, cancelled ones included: their traffic happened. Fenced
// counts stale-epoch data frames and ACKs alike.
func (s *ReliableShare) Totals() (sends, retransmits, duplicates, fenced int) {
	for _, n := range s.nis {
		n.Sends = 0
		duplicates += n.Dups
		fenced += n.Fenced
	}
	for _, e := range s.all {
		s.nis[e.From()].Sends += e.Sends()
		sends += e.Sends()
		retransmits += e.Retransmits()
		fenced += e.Fenced()
	}
	return
}
