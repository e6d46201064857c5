package live

import (
	"maps"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/live/link"
	"repro/internal/tree"
)

// ReliableShareConfig describes one reliable session of a Share.
type ReliableShareConfig struct {
	Tree  *tree.Tree
	MsgID uint32
	// Faults is the armed fault plane (nil: none), read on the share's
	// clock. It decorates every transport and draws every ACK's loss; a host
	// its crash schedule has down blackholes every frame and sends nothing,
	// and with every host local the supervisor reads it as liveness.
	Faults *fault.State

	// Edge is the template of every edge incarnation: Packets, RTO, RTOMax,
	// RetryBudget, and in JitterSeed the driver's own salt, which the share
	// mixes with the edge's endpoints. The share fills in Abort.
	Edge EdgeSenderConfig
	// Trace records the Arrivals and (while the epoch is positive) the
	// Accepts evidence the in-process engine reports per host.
	Trace bool
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
// live.RunReliable and RunVirtual (every host local) and mcastd.RunReliable
// (the hosts of one OS process, over UDP) drive it; a driver keeps how
// Remote reaches another process, never how an edge comes up or goes away.
// Every piece of the session's evidence — a completion, an amnesiac
// rejoin, a dead edge — leaves on the Share's one queue (Reports), which
// the driver's one loop reads. Start, Stop, Go, Aborted, Report and
// Reports are the Share's.
//
// Route, Epoch, Report and Aborted are safe from any goroutine. Install,
// Retire and SetEpoch belong to one goroutine, the driver's supervisor; NI
// and Result read state that is quiescent only once Stop has returned.
type ReliableShare struct {
	*Share
	cfg    ReliableShareConfig
	chaos  *link.Chaos
	nodes  []int // the tree's hosts, ascending; routes is parallel to it
	nis    map[int]*ReliableNI
	routes []atomic.Pointer[EdgeSender]
	// epoch is the fence register: 0 while the membership plane is
	// unarmed, otherwise the latest view's epoch. Senders stamp it into
	// outgoing frames, receivers discard frames below it.
	epoch atomic.Int64
	all   []*EdgeSender // every incarnation ever built, for Result
}

// AddReliable joins a reliable session to the share: a ReliableNI per
// tree host the share runs (the root's holds all m packets from the
// outset, so seeding its child edges is the FPFS packet-major injection),
// and an incarnation of every tree edge whose parent is local, dialed
// ascending by child (Losses keeps that order); an NI forwards in the
// tree's child order. Only once every edge is up does it register the
// session at the share's NIs, start the senders and queue the root's
// seeding, which runs after Start. A failed dial is the returned error,
// naming the edge; the caller's Stop then detaches every host. The MsgID
// must be unique among the share's sessions.
func (s *Share) AddReliable(cfg ReliableShareConfig) (*ReliableShare, error) {
	nodes := cfg.Tree.Nodes()
	rs := &ReliableShare{
		Share:  s,
		cfg:    cfg,
		nodes:  nodes,
		nis:    make(map[int]*ReliableNI, len(s.nis)),
		routes: make([]atomic.Pointer[EdgeSender], len(nodes)),
	}
	rs.cfg.Edge.Abort, rs.chaos = s.abort, link.NewChaos(cfg.Faults, s)
	for _, v := range nodes {
		if s.nis[v] != nil {
			rs.nis[v] = newReliableNI(rs, v)
		}
	}
	for i, b := range rs.nodes {
		a, ok := cfg.Tree.Parent(b)
		if !ok || rs.nis[a] == nil {
			continue
		}
		e, err := rs.newEdge(a, b)
		if err != nil {
			return nil, err
		}
		rs.routes[i].Store(e)
	}
	for _, n := range rs.nis { // FPFS: each NI forwards in the tree's child order
		for _, b := range cfg.Tree.Children(n.Host) {
			n.children = append(n.children, rs.route(b).Load())
		}
	}
	reg := map[uint32]map[int]*ReliableNI{cfg.MsgID: rs.nis}
	if old := s.reliable.Load(); old != nil {
		maps.Copy(reg, *old)
	}
	s.reliable.Store(&reg)
	for _, e := range rs.all {
		rs.spawn(e)
	}
	root := cfg.Tree.Root()
	if n := rs.nis[root]; n != nil {
		s.handOff(root, func() { n.replay(n.children) })
	}
	return rs, nil
}

// newEdge builds one incarnation of edge a->b over a fresh, chaos-wrapped
// transport, belonging to the session: both ways it can die on its own —
// retry budget spent, transport failed — are a ReportExhausted.
func (s *ReliableShare) newEdge(a, b int) (*EdgeSender, error) {
	base, err := s.dial(a, b)
	if err != nil {
		return nil, err
	}
	ecfg := s.cfg.Edge
	ecfg.JitterSeed ^= uint64(a+1)<<20 ^ uint64(b+1)
	e := s.edgeSender(s.virt.transport(base, s.chaos.Wrap(base)), ecfg)
	s.all = append(s.all, e)
	return e, nil
}

// down reports whether the crash schedule has host down at offset at.
func (s *ReliableShare) down(host int, at time.Duration) bool {
	return s.cfg.Faults.HostDown(host, link.US(at))
}

// spawn runs e on the wall under the join of Stop in one allocation, the
// goroutine's closure, where Go would wrap a second around e.Run.
func (s *ReliableShare) spawn(e *EdgeSender) {
	if s.virt == nil {
		s.wg.Add(1)
		go func() { defer s.wg.Done(); e.Run() }()
	}
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

// ack is the one ACK rule, on n's NI: n acknowledges frame seq from host
// from at epoch. Its loss is drawn first, from n's own stream; a surviving
// ACK marks a local parent's incarnation in place, or leaves through Remote.
func (s *ReliableShare) ack(n *ReliableNI, from, seq, epoch int) {
	e := s.Route(n.Host, from)
	if e == nil && s.nis[from] != nil {
		return // a retired local edge's frame: nobody awaits its ACK
	}
	if n.acks.AckLost() {
		return
	}
	if e == nil {
		s.cfg.Remote(Order{Kind: OrderAck, To: from, A: n.Host, B: seq, Epoch: epoch})
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
// its exhaustion is reported once, as for one that died, from a goroutine
// of the share's: the caller may be the queue's own reader.
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
		s.Go(func() { s.Report(Report{Kind: ReportExhausted, Host: a, To: b}) })
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

// Result is the session's record over the share's hosts, read from the
// quiescent share at wall: each local NI's record, its Sends folded from
// its incarnations (cancelled ones included: their traffic happened), the
// last local DoneAt as Latency, the counters summed over NIs and
// incarnations (Fenced counts stale-epoch data frames and ACKs alike), the
// epoch-stamp trace, each incarnation's loss decisions and the fault
// plane's counters. The driver adds the verdict and the supervisor's part.
func (s *ReliableShare) Result(wall time.Duration) *ReliableResult {
	res := &ReliableResult{
		Hosts:   make(map[int]*HostRecord, len(s.nis)),
		Wall:    wall,
		Packets: len(s.cfg.Edge.Packets),
		Epoch:   s.Epoch(),
		Faults:  s.cfg.Faults.Stats(),
	}
	for _, v := range s.nodes {
		if n := s.nis[v]; n != nil {
			n.Sends = 0
			res.Hosts[v] = &n.HostRecord
			res.Latency = max(res.Latency, n.DoneAt)
			res.Duplicates += n.Dups
			res.Fenced += n.Fenced
			res.Accepts = append(res.Accepts, n.Accepts...)
		}
	}
	// Stable: accepts arrive grouped per host in goroutine order, and ties
	// on At must not reorder a host's own chronology (epoch monotonicity
	// per host is an invariant the harness checks).
	sort.SliceStable(res.Accepts, func(i, j int) bool { return res.Accepts[i].At < res.Accepts[j].At })
	for _, e := range s.all {
		s.nis[e.From()].Sends += e.Sends()
		res.Sends += e.Sends()
		res.Retransmits += e.Retransmits()
		res.Fenced += e.Fenced()
		if ft, ok := e.tr.(interface{ Pattern() fault.Pattern }); ok && ft.Pattern().Sent > 0 {
			res.Losses = append(res.Losses, ft.Pattern())
		}
	}
	return res
}
