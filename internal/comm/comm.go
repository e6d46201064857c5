// Package comm is the user-facing group-communication layer, in the style
// of an MPI communicator: a fixed group of hosts addressed by rank, with
// byte-level collective operations. It glues the repository's planes
// together — messages are fragmented into wire-format packets
// (internal/message), trees are planned per Theorem 3 (internal/core),
// the event simulator prices the operation (internal/sim), and every
// destination's payload is reassembled and verified.
//
//	group := comm.New(sys, []int{0, 5, 9, 23, 44})
//	res, err := group.Bcast(0, payload, params) // rank 0 broadcasts
//	// res.Data[r] == payload for every rank r, res.Latency in us
package comm

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/membership"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stepsim"
)

// Group is a fixed set of communicating hosts addressed by rank.
//
// Concurrency: a Group is safe for concurrent collective calls. Session
// IDs come from an atomic counter, and every other field (hosts, the
// rank map, the planner tables) is written only inside New and read-only
// afterwards. Concurrent operations on one group get distinct message
// IDs and therefore distinct, non-interfering sessions.
type Group struct {
	sys   *core.System
	hosts []int
	rank  map[int]int // host -> rank; populated in New, immutable after
	msgID atomic.Uint32
}

// nextMsgID allocates a fresh session/message ID. IDs start at 1 so a
// zero MsgID always means "unset".
func (g *Group) nextMsgID() uint32 { return g.msgID.Add(1) }

// New creates a group over the given hosts (rank i = hosts[i]). Hosts
// must be distinct and valid for the system.
func New(sys *core.System, hosts []int) (*Group, error) {
	if len(hosts) < 2 {
		return nil, fmt.Errorf("comm: group needs at least 2 hosts, got %d", len(hosts))
	}
	g := &Group{sys: sys, hosts: append([]int(nil), hosts...), rank: map[int]int{}}
	for i, h := range hosts {
		if h < 0 || h >= sys.Net.NumHosts() {
			return nil, fmt.Errorf("comm: host %d out of range", h)
		}
		if _, dup := g.rank[h]; dup {
			return nil, fmt.Errorf("comm: duplicate host %d", h)
		}
		g.rank[h] = i
	}
	return g, nil
}

// Size returns the number of ranks.
func (g *Group) Size() int { return len(g.hosts) }

// Host returns the host of a rank.
func (g *Group) Host(rank int) int {
	if rank < 0 || rank >= len(g.hosts) {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, len(g.hosts)))
	}
	return g.hosts[rank]
}

// Rank returns the rank of a host, or -1.
func (g *Group) Rank(host int) int {
	r, ok := g.rank[host]
	if !ok {
		return -1
	}
	return r
}

// BcastResult is the outcome of a broadcast.
type BcastResult struct {
	// Data holds, per rank, the delivered message (the root's slot aliases
	// the input).
	Data [][]byte
	// Latency is the simulated multicast latency in microseconds.
	Latency float64
	// Packets is the message length in wire packets.
	Packets int
	// K is the fanout bound of the tree used.
	K int
}

// Bcast broadcasts data from the root rank to every other rank: the
// message is packetized, an optimal k-binomial tree is planned for the
// resulting packet count, the event simulator prices it, and each
// destination's copy is reassembled from the wire packets and verified.
func (g *Group) Bcast(root int, data []byte, p sim.Params) (*BcastResult, error) {
	b, err := g.prepare(root, data, p, false)
	if err != nil {
		return nil, err
	}
	plan := g.sys.Plan(b.spec)
	res := g.sys.Simulate(plan, p, stepsim.FPFS)

	// Nothing moved real bytes here, so each rank's copy is reassembled
	// from the wire packets the root would have sent.
	var rerr error
	out := &BcastResult{Latency: res.Latency, Packets: len(b.pkts), K: plan.K}
	out.Data, _, err = g.collect(b, data, true, func(host int) ([]byte, bool) {
		got, err := reassemble(b.pkts)
		if err != nil {
			rerr = fmt.Errorf("comm: rank %d reassembly: %w", g.rank[host], err)
		}
		return got, err == nil
	})
	if rerr != nil {
		err = rerr // collect only saw a rank with nothing; say why
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// reassemble runs pkts through a fresh reassembler, as a destination's NI
// would.
func reassemble(pkts [][]byte) ([]byte, error) {
	r := message.NewReassembler()
	for _, pkt := range pkts {
		if _, err := r.Add(pkt); err != nil {
			return nil, err
		}
	}
	return r.Bytes(), nil
}

// others lists every host of the group but the root rank's, in rank order.
func (g *Group) others(root int) []int {
	dests := make([]int, 0, len(g.hosts)-1)
	for i, h := range g.hosts {
		if i != root {
			dests = append(dests, h)
		}
	}
	return dests
}

// bcast is a broadcast made ready to run: the front half all six Bcast
// variants share.
type bcast struct {
	root int // rank
	id   uint32
	pkts [][]byte
	spec core.Spec // OptimalTree over the other ranks, for len(pkts) packets
}

// prepare checks the root rank (and p, for the engines that would
// otherwise fail late on it), allocates the message ID, fragments data
// into p.PacketBytes wire packets and states the tree to plan.
func (g *Group) prepare(root int, data []byte, p sim.Params, validate bool) (*bcast, error) {
	if root < 0 || root >= len(g.hosts) {
		return nil, fmt.Errorf("comm: root rank %d out of range", root)
	}
	if validate {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("comm: params: %w", err)
		}
	}
	b := &bcast{root: root, id: g.nextMsgID()}
	var err error
	if b.pkts, err = message.Packetize(b.id, g.hosts[root], data, p.PacketBytes); err != nil {
		return nil, err
	}
	b.spec = core.Spec{Source: g.hosts[root], Dests: g.others(root), Packets: len(b.pkts), Policy: core.OptimalTree}
	return b, nil
}

// collect is the back half: fetch returns what a destination host holds
// after the run, and every copy must equal data byte for byte. The root's
// slot aliases data. A rank holding nothing is an error when all must
// deliver, and otherwise listed in undelivered (ascending).
func (g *Group) collect(b *bcast, data []byte, all bool, fetch func(host int) ([]byte, bool)) (out [][]byte, undelivered []int, err error) {
	out = make([][]byte, len(g.hosts))
	out[b.root] = data
	for i, h := range g.hosts {
		if i == b.root {
			continue
		}
		got, ok := fetch(h)
		switch {
		case !ok && all:
			return nil, nil, fmt.Errorf("comm: rank %d delivered nothing", i)
		case !ok:
			undelivered = append(undelivered, i)
		case !bytes.Equal(got, data):
			return nil, nil, fmt.Errorf("comm: rank %d payload corrupted", i)
		default:
			out[i] = got
		}
	}
	return out, undelivered, nil
}

// fetchLive adapts a live runtime's per-host records to collect.
func fetchLive(hosts map[int]*live.HostRecord) func(int) ([]byte, bool) {
	return func(host int) ([]byte, bool) {
		rec := hosts[host]
		if rec == nil || rec.Data == nil {
			return nil, false
		}
		return rec.Data, true
	}
}

// BcastLiveResult is the outcome of a live broadcast: real reassembled
// bytes from real concurrent execution, plus the simulator's predicted
// latency for the same plan so callers can put the wall clock next to
// the model.
type BcastLiveResult struct {
	// Data holds, per rank, the delivered message, reassembled and
	// checksum-verified by that rank's NI goroutine (the root's slot
	// aliases the input).
	Data [][]byte
	// WallLatency is the measured wall-clock time from injection start to
	// the last destination's completion ACK.
	WallLatency time.Duration
	// PredictedLatency is the event simulator's latency for the same plan,
	// in microseconds (the model the live run is differentially checked
	// against — structure matches; wall-clock time is not comparable).
	PredictedLatency float64
	// Packets is the message length in wire packets; K the tree fanout;
	// Sends the packet copies actually injected, (n-1)*Packets.
	Packets int
	K       int
	Sends   int
	// Live is the runtime's per-host detail (arrival order, per-host
	// send/receive counts, completion instants).
	Live *live.SessionResult
}

// BcastLive broadcasts data from the root rank by actually executing the
// planned FPFS multicast on the live runtime: one goroutine per
// participating NI and channel links along the tree edges. The returned
// payloads are what each destination's NI reassembled, not an echo of
// the input. Groups are safe for concurrent BcastLive calls; each call
// runs on its own fabric.
func (g *Group) BcastLive(root int, data []byte, p sim.Params) (*BcastLiveResult, error) {
	return g.bcastLive(root, data, p, false)
}

// BcastLiveUDP is BcastLive with the fabric on real sockets: the same
// plan and FPFS NIs, but every tree edge is dialed over a loopback UDP
// network provisioned for the call (fragmentation, checksums and
// credit-based backpressure all exercised for real). The fabric is torn
// down before returning. Intended for integration testing and the
// mcastsim -net mode; multi-machine deployments use internal/mcastd.
func (g *Group) BcastLiveUDP(root int, data []byte, p sim.Params) (*BcastLiveResult, error) {
	return g.bcastLive(root, data, p, true)
}

func (g *Group) bcastLive(root int, data []byte, p sim.Params, udp bool) (*BcastLiveResult, error) {
	b, err := g.prepare(root, data, p, true)
	if err != nil {
		return nil, err
	}
	plan := g.sys.Plan(b.spec)
	cfg, what := live.Config{}, "live broadcast"
	if udp {
		nw, err := link.NewLoopbackUDP(plan.Tree.Nodes(), link.UDPConfig{Session: uint64(b.id)})
		if err != nil {
			return nil, fmt.Errorf("comm: loopback fabric: %w", err)
		}
		defer nw.Close()
		cfg.Network, what = nw, "live UDP broadcast"
	}
	res, err := live.Run([]live.Session{{Tree: plan.Tree, Packets: b.pkts, MsgID: b.id}}, cfg)
	if err != nil {
		return nil, fmt.Errorf("comm: %s: %w", what, err)
	}
	sr := res.Sessions[0]
	out := &BcastLiveResult{
		WallLatency:      sr.Latency,
		PredictedLatency: g.sys.Simulate(plan, p, stepsim.FPFS).Latency,
		Packets:          len(b.pkts),
		K:                plan.K,
		Sends:            res.Sends,
		Live:             &sr,
	}
	if out.Data, _, err = g.collect(b, data, true, fetchLive(sr.Hosts)); err != nil {
		return nil, err
	}
	return out, nil
}

// BcastReliableResult is the outcome of a fault-tolerant broadcast, on the
// switched network (BcastReliable) or the live runtime
// (BcastLiveReliable). Unlike Bcast, it is defined under host crashes:
// instead of hanging or failing opaquely, it reports per-rank delivery,
// the membership views installed while the group reconfigured, and an
// explicit partial-delivery verdict.
type BcastReliableResult struct {
	// Data holds, per rank, the delivered message — nil for ranks the
	// operation could not reach (the root's slot aliases the input).
	Data [][]byte
	// Status is the delivery verdict; Undelivered lists the ranks without
	// the message, ascending (empty when Status == Delivered).
	Status      reliable.Status
	Undelivered []int
	// Latency is run start to the last destination's completion, on the
	// run's clock: virtual for BcastReliable, wall for BcastLiveReliable.
	Latency time.Duration
	// Packets is the message length in wire packets; K the tree fanout.
	Packets int
	K       int
	// Epoch and Views expose the membership plane: the final epoch (0 when
	// the run never armed the detector) and every installed view.
	Epoch int
	Views []membership.View
	// Protocol is the underlying run detail (retransmissions, epochs,
	// fault counters, adoptions, per-host records).
	Protocol *live.ReliableResult
}

// BcastLiveReliable broadcasts data from the root rank on the reliable
// live engine under cfg's fault plane: cfg.Faults seeds transport chaos
// and schedules NI crashes (addressed by host — use Host to map a rank),
// and the retransmission/membership knobs come from cfg as given. p
// contributes only the packetization size; the runtime knobs live in
// cfg.Live. Like BcastReliable, the error is the protocol's typed failure
// and the result is still returned alongside it when the run produced
// one.
func (g *Group) BcastLiveReliable(root int, data []byte, p sim.Params, cfg live.ReliableConfig) (*BcastReliableResult, error) {
	b, err := g.prepare(root, data, p, false)
	if err != nil {
		return nil, err
	}
	plan := g.sys.Plan(b.spec)
	res, runErr := live.RunReliable(live.Session{Tree: plan.Tree, Packets: b.pkts, MsgID: b.id}, cfg)
	if res == nil {
		return nil, fmt.Errorf("comm: live reliable broadcast: %w", runErr)
	}
	return g.reliableResult(b, data, plan.K, res, runErr)
}

// BcastReliable broadcasts data from the root rank over the reliable
// protocol under the given fault plan. The error is the protocol's typed
// failure (*reliable.DeliveryError or *reliable.CrashError) when delivery
// fell short of the config's quorum; on a quorum-satisfying partial
// delivery the error is nil and Status/Undelivered carry the shortfall.
func (g *Group) BcastReliable(root int, data []byte, cfg reliable.Config, fp fault.Plan) (*BcastReliableResult, error) {
	b, err := g.prepare(root, data, cfg.Params, false)
	if err != nil {
		return nil, err
	}
	cfg.MsgID = b.id
	plan := g.sys.Plan(b.spec)
	res, runErr := live.Deliver(g.sys, plan, data, cfg, fp)
	if res == nil {
		return nil, runErr
	}
	return g.reliableResult(b, data, plan.K, res, runErr)
}

// reliableResult is both reliable broadcasts' back half: the run's verdict
// and per-rank bytes, returned alongside its typed failure.
func (g *Group) reliableResult(b *bcast, data []byte, k int, res *live.ReliableResult, runErr error) (*BcastReliableResult, error) {
	out := &BcastReliableResult{
		Status:   res.Status,
		Latency:  res.Latency,
		Packets:  res.Packets,
		K:        k,
		Epoch:    res.Epoch,
		Views:    res.Views,
		Protocol: res,
	}
	var err error
	if out.Data, out.Undelivered, err = g.collect(b, data, false, fetchLive(res.Hosts)); err != nil {
		return nil, err
	}
	return out, runErr
}

// ScatterResult is the outcome of a scatter.
type ScatterResult struct {
	// Data holds, per rank, the chunk delivered to it (root keeps its own).
	Data [][]byte
	// Latency is the simulated makespan in microseconds.
	Latency float64
}

// Scatter distributes chunks[i] to rank i (chunks[root] stays local). All
// chunks ride the multicast tree's paths as independent messages.
func (g *Group) Scatter(root int, chunks [][]byte, p sim.Params) (*ScatterResult, error) {
	if root < 0 || root >= len(g.hosts) {
		return nil, fmt.Errorf("comm: root rank %d out of range", root)
	}
	if len(chunks) != len(g.hosts) {
		return nil, fmt.Errorf("comm: %d chunks for %d ranks", len(chunks), len(g.hosts))
	}
	// Timing: the per-destination message lengths differ; the simulator's
	// session abstraction carries one packet count per session, so each
	// destination gets its own session along its tree path.
	maxPkts := 1
	out := &ScatterResult{Data: make([][]byte, len(g.hosts))}
	out.Data[root] = chunks[root]
	for i, chunk := range chunks {
		if i == root {
			continue
		}
		pkts, err := message.Packetize(g.nextMsgID(), g.hosts[root], chunk, p.PacketBytes)
		if err != nil {
			return nil, err
		}
		maxPkts = max(maxPkts, len(pkts))
		got, err := reassemble(pkts)
		if err != nil {
			return nil, fmt.Errorf("comm: rank %d reassembly: %w", i, err)
		}
		if !bytes.Equal(got, chunk) {
			return nil, fmt.Errorf("comm: rank %d chunk corrupted", i)
		}
		out.Data[i] = got
	}
	// Price the operation with the uniform worst-case chunk size (the
	// collectives engine streams whole messages per destination).
	spec := core.Spec{Source: g.hosts[root], Dests: g.others(root), Packets: maxPkts, Policy: core.OptimalTree}
	out.Latency = collectives.Scatter(g.sys, spec, p).Latency
	return out, nil
}

// BcastScheduledResult is the outcome of one scheduler-backed broadcast.
type BcastScheduledResult struct {
	// Data holds, per rank, the delivered message, reassembled and
	// checksum-verified on real shared-fabric NIs (root keeps its own).
	Data [][]byte
	// QueueWait is the time from submission to the root NI's take of the
	// session; WallLatency the in-flight span, from that take (its first
	// injection) to the last destination done: sched.Result's QueueWait and
	// Latency.
	QueueWait, WallLatency time.Duration
	// Packets is the wire packet count, K the planned fanout bound —
	// possibly different from the idle optimum when the congestion-aware
	// planner steered around in-flight trees.
	Packets, K int
	// Sched is the scheduler's full per-session record.
	Sched *sched.Result
}

// BcastScheduled broadcasts through a session scheduler instead of a
// private one-shot fabric: the tree is planned against the scheduler's
// live edge census (sched.Scheduler.PlanBcast), the session is submitted
// for admission-controlled execution on the shared NIs, and the call
// blocks until the scheduler settles it. Safe to call from many
// goroutines against one scheduler — that is the point: concurrent
// broadcasts share the fabric, bounded by the scheduler's window, instead
// of multiplying goroutine fabrics. The scheduler must span every host in
// the group.
func (g *Group) BcastScheduled(s *sched.Scheduler, root int, data []byte, p sim.Params) (*BcastScheduledResult, error) {
	b, err := g.prepare(root, data, p, true)
	if err != nil {
		return nil, err
	}
	tr, k, err := s.PlanBcast(g.sys, b.spec.Source, b.spec.Dests, len(b.pkts))
	if err != nil {
		return nil, fmt.Errorf("comm: scheduled plan: %w", err)
	}
	h, err := s.Submit(live.Session{Tree: tr, Packets: b.pkts, MsgID: b.id})
	if err != nil {
		return nil, fmt.Errorf("comm: scheduled broadcast: %w", err)
	}
	res, err := h.Wait()
	if err != nil {
		return nil, fmt.Errorf("comm: scheduled broadcast: %w", err)
	}
	out := &BcastScheduledResult{
		QueueWait:   res.QueueWait,
		WallLatency: res.Latency,
		Packets:     len(b.pkts),
		K:           k,
		Sched:       res,
	}
	if out.Data, _, err = g.collect(b, data, true, fetchLive(res.Hosts)); err != nil {
		return nil, err
	}
	return out, nil
}
