package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/mcastd"
	"repro/internal/message"
	"repro/internal/psim"
	"repro/internal/reliable"
	"repro/internal/routing"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/tree"
)

// opTimeout is the watchdog handed to every engine: far above any healthy
// op, so a wedge surfaces as a typed failure instead of hanging the run.
const opTimeout = 20 * time.Second

// testbedHosts is the size of the paper's irregular testbed (64 hosts on 16
// eight-port switches) every multicast workload plans on.
const testbedHosts = 64

// errMismatch marks a wrong answer — bytes that differ, a send count off the
// (n-1)·m identity, engines that disagree — as opposed to a typed protocol
// failure. It makes the whole command exit non-zero.
var errMismatch = errors.New("bench: wrong output")

// errSkipped marks a workload that cannot run here (no loopback UDP).
var errSkipped = errors.New("skipped")

// shape is the size of one workload's multicast.
type shape struct {
	Dests        int // destinations per op
	PayloadBytes int // message size
	PacketBytes  int // wire packet size, header included
	Buffer       int // live BufferPackets (0 = unbounded)
}

// packets is m, the wire packets one message occupies.
func (s shape) packets() int {
	per := s.PacketBytes - message.HeaderSize
	return (s.PayloadBytes + per - 1) / per
}

// sends is the (n-1)·m packet copies one lossless multicast injects.
func (s shape) sends() int { return s.Dests * s.packets() }

// loop is one closed loop the single generator goroutine drives.
type loop interface {
	// setup builds what ops need (system, routes, payload, long-lived
	// fabric) from the generator. errSkipped-wrapped errors skip the
	// workload.
	setup(g *gen) error
	// step advances the loop by one call and records every op it completed
	// in r. Spans go to tr, which is nil in untraced rounds.
	step(r *round, tr *tracer)
	// flush completes what step left outstanding, inside the round's wall
	// time.
	flush(r *round, tr *tracer)
	close()
}

type workloadDef struct {
	Name  string
	Why   string
	Shape shape
	New   func(shape) loop
}

// workloads lists the seven loops in report order. The Why strings are
// copied into BENCHMARK.json (checked by the tests).
var workloads = []workloadDef{
	{"live_small", "smallest packets (16 dests x 8 x 64 B, in-proc): per-packet NI loop, goroutine spin-up and the channel hop dominate; floor for every rung",
		shape{Dests: 16, PayloadBytes: 8 * (64 - message.HeaderSize), PacketBytes: 64},
		func(s shape) loop { return newLive(s, false) }},
	{"live_bulk", "largest packets (31 dests x 256 KiB in 4 KiB packets, buffer 8): message packetize/checksum/reassemble dominates and the gate backpressures; bypasses the wire",
		shape{Dests: 31, PayloadBytes: 256 << 10, PacketBytes: 4096, Buffer: 8},
		func(s shape) loop { return newLive(s, false) }},
	{"udp_bulk", "loopback UDP fabric per op (16 dests x 128 KiB, 4 fragments per packet): framing, fragmentation, credits and one syscall per fragment dominate; live_bulk is its bypass",
		shape{Dests: 16, PayloadBytes: 128 << 10, PacketBytes: 4096, Buffer: 8},
		func(s shape) loop { return newLive(s, true) }},
	{"daemon_clean", "deployed reliable daemon on a clean loopback wire (16 dests x 2 KiB): ctl ACKs, heartbeats, DONE/STOP handshake and provisioning dominate, payload is negligible",
		shape{Dests: 16, PayloadBytes: 2048, PacketBytes: 256},
		func(s shape) loop { return newDaemon(s) }},
	{"reliable_lossy", "in-proc reliable runtime at 1% frame loss (16 dests x 8 x 64 B): retransmission timers do the work, the CPU idles; eager-retransmit changes show here",
		shape{Dests: 16, PayloadBytes: 8 * (64 - message.HeaderSize), PacketBytes: 64},
		func(s shape) loop { return newReliable(s) }},
	{"sched_sat", "256 sessions outstanding on one long-lived scheduler (7 dests x 4 x 64 B): admission, sharded injection, per-NI DRR and congestion-aware planning at saturation",
		shape{Dests: 7, PayloadBytes: 4 * (64 - message.HeaderSize), PacketBytes: 64},
		func(s shape) loop { return &schedWL{mcast: mcast{sh: s}} }},
	{"sim_scale", "one k=4, 2-packet multicast to all 10,000 hosts of a 100x100 mesh on sim, psim W=1 and psim W=GOMAXPROCS: host-time cost of the two event kernels, no live code",
		shape{Dests: simArity*simArity - 1, PayloadBytes: 2 * (64 - message.HeaderSize), PacketBytes: 64},
		func(s shape) loop { return &simWL{arity: simArity} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// mcast is what the multicast workloads share: the testbed system, the
// payload, the per-op draw of source, destinations and message id, and the
// one-op-per-step loop around the workload's own run.
type mcast struct {
	sh      shape
	udp     bool // every op provisions a loopback UDP fabric
	g       *gen
	sys     *core.System
	payload []byte
	msgID   uint32
	// run is one op of the workload, from plan to verify.
	run func(r *round, tr *tracer, source int, dests []int) error
}

func (m *mcast) setup(g *gen) error {
	if m.udp {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return fmt.Errorf("%w: loopback UDP unavailable: %v", errSkipped, err)
		}
		c.Close()
	}
	m.g = g
	m.sys = core.NewIrregularSystem(topology.DefaultIrregular(), g.seed)
	m.payload = g.payload(m.sh.PayloadBytes)
	return nil
}

// step draws one op's inputs and times the op around them.
func (m *mcast) step(r *round, tr *tracer) {
	source, dests := m.next()
	start := time.Now()
	op := tr.begin("op")
	err := m.run(r, tr, source, dests)
	tr.end(op)
	r.done(start, m.deliveredBytes(), err)
}

func (m *mcast) flush(*round, *tracer) {}
func (m *mcast) close()                {}

// next draws the next op's inputs, before its timer starts: a fresh source
// and destination set, a fresh message id, and the id stamped into the
// payload so that no two ops carry the same bytes.
func (m *mcast) next() (source int, dests []int) {
	m.msgID++
	binary.LittleEndian.PutUint32(m.payload, m.msgID)
	return m.g.destSet(testbedHosts, m.sh.Dests)
}

func (m *mcast) plan(tr *tracer, source int, dests []int) *core.Plan {
	s := tr.begin("core.plan")
	p := m.sys.Plan(core.Spec{Source: source, Dests: dests, Packets: m.sh.packets(), Policy: core.OptimalTree})
	tr.end(s)
	return p
}

func (m *mcast) packetize(tr *tracer, source int, payload []byte) ([][]byte, error) {
	s := tr.begin("message.packetize")
	pkts, err := message.Packetize(m.msgID, source, payload, m.sh.PacketBytes)
	tr.end(s)
	return pkts, err
}

// verify compares every destination's reassembled bytes with what was sent.
func verify(tr *tracer, want []byte, dests []int, got func(host int) []byte) error {
	s := tr.begin("bench.verify")
	defer tr.end(s)
	for _, d := range dests {
		if !bytes.Equal(got(d), want) {
			return fmt.Errorf("%w: destination %d holds different bytes", errMismatch, d)
		}
	}
	return nil
}

// deliveredBytes is the payload one verified op delivered, summed over
// destinations; headers and retransmissions are not counted.
func (m *mcast) deliveredBytes() int { return m.sh.PayloadBytes * m.sh.Dests }

// provision opens the op's loopback UDP fabric over the tree's hosts.
func (m *mcast) provision(tr *tracer, hosts []int) (*link.UDPNetwork, error) {
	s := tr.begin("link.provision")
	nw, err := link.NewLoopbackUDP(hosts, link.UDPConfig{Session: uint64(m.msgID)})
	tr.end(s)
	return nw, err
}

// recordEvery is the share of a traced round's live.Run ops that set
// live.Config.Record: enough hops for percentiles, little enough to keep
// trace.overhead_frac small.
const recordEvery = 64

// liveWL is live.Run on the in-process fabric (live_small, live_bulk) or on
// a loopback UDP fabric provisioned and closed inside every op (udp_bulk).
type liveWL struct{ mcast }

func newLive(s shape, udp bool) *liveWL {
	w := &liveWL{mcast{sh: s, udp: udp}}
	w.run = w.op
	return w
}

func (w *liveWL) op(r *round, tr *tracer, source int, dests []int) error {
	plan := w.plan(tr, source, dests)
	pkts, err := w.packetize(tr, source, w.payload)
	if err != nil {
		return err
	}
	// Event capture costs the program time, so the traced round asks for
	// it on one op in recordEvery only.
	cfg := live.Config{BufferPackets: w.sh.Buffer, Timeout: opTimeout, Record: tr != nil && w.msgID%recordEvery == 0}
	if w.udp {
		nw, err := w.provision(tr, plan.Tree.Nodes())
		if err != nil {
			return err
		}
		cfg.Network = nw
		defer closeUDP(r, tr, nw)
	}
	s := tr.begin("live.run")
	res, err := live.Run([]live.Session{{Tree: plan.Tree, Packets: pkts, MsgID: w.msgID}}, cfg)
	tr.end(s)
	if err != nil {
		return err
	}
	r.count("live.sends", float64(res.Sends))
	if res.Sends != w.sh.sends() {
		return fmt.Errorf("%w: %d sends, want (n-1)*m = %d", errMismatch, res.Sends, w.sh.sends())
	}
	if cfg.Record {
		r.events = append(r.events, res.Events)
	}
	hosts := res.Sessions[0].Hosts
	return verify(tr, w.payload, dests, func(h int) []byte { return hosts[h].Data })
}

// closeUDP tears an op's fabric down inside the op (a caller pays for it)
// and keeps its drop counters.
func closeUDP(r *round, tr *tracer, nw *link.UDPNetwork) {
	s := tr.begin("link.provision")
	st := nw.Stats()
	nw.Close()
	tr.end(s)
	r.total("link.udp_bad_datagrams", float64(st.BadDatagrams))
	r.total("link.udp_resyncs", float64(st.Resyncs))
	r.total("link.udp_overflow", float64(st.Overflow))
	r.total("link.udp_ctl_dropped", float64(st.CtlDropped))
}

// reliableWL is live.RunReliable in-process with 1% frame loss.
type reliableWL struct{ mcast }

func newReliable(s shape) *reliableWL {
	w := &reliableWL{mcast{sh: s}}
	w.run = w.op
	return w
}

func (w *reliableWL) op(r *round, tr *tracer, source int, dests []int) error {
	cfg := live.DefaultReliableConfig()
	cfg.Live.Timeout = opTimeout
	cfg.Faults = link.Faults{Seed: w.g.rng.Uint64(), DropRate: 0.01}
	plan := w.plan(tr, source, dests)
	pkts, err := w.packetize(tr, source, w.payload)
	if err != nil {
		return err
	}
	s := tr.begin("live.run_reliable")
	res, err := live.RunReliable(live.Session{Tree: plan.Tree, Packets: pkts, MsgID: w.msgID}, cfg)
	tr.end(s)
	if err != nil {
		return err
	}
	if res.Status != reliable.Delivered {
		return fmt.Errorf("verdict %v, want delivered", res.Status)
	}
	r.count("live.reliable_sends", float64(res.Sends))
	r.count("live.retransmits", float64(res.Retransmits))
	r.count("live.duplicates", float64(res.Duplicates))
	r.count("live.fenced", float64(res.Fenced))
	r.count("live.adoptions", float64(res.Adoptions))
	r.count("link.chaos_dropped", float64(res.Faults.Dropped))
	r.count("link.chaos_ackdropped", float64(res.Faults.AcksDropped))
	return verify(tr, w.payload, dests, func(h int) []byte { return res.Hosts[h].Data })
}

// daemonWL is mcastd.RunReliable with every host local to one engine and
// every edge a loopback UDP socket, no faults injected.
type daemonWL struct{ mcast }

func newDaemon(s shape) *daemonWL {
	w := &daemonWL{mcast{sh: s, udp: true}}
	w.run = w.op
	return w
}

func (w *daemonWL) op(r *round, tr *tracer, source int, dests []int) error {
	plan := w.plan(tr, source, dests)
	pkts, err := w.packetize(tr, source, w.payload)
	if err != nil {
		return err
	}
	nw, err := w.provision(tr, plan.Tree.Nodes())
	if err != nil {
		return err
	}
	defer closeUDP(r, tr, nw)
	s := tr.begin("mcastd.run_reliable")
	res, err := mcastd.RunReliable(mcastd.Config{
		Tree: plan.Tree, Packets: pkts, MsgID: w.msgID, Local: plan.Tree.Nodes(), Net: nw, Timeout: opTimeout,
	}, mcastd.DefaultReliableConfig())
	tr.end(s)
	if err != nil {
		return err
	}
	if res.Status != reliable.Delivered {
		return fmt.Errorf("verdict %v, want delivered", res.Status)
	}
	var lastDone time.Duration
	for _, h := range res.Hosts {
		if h.DoneAt > lastDone {
			lastDone = h.DoneAt
		}
	}
	r.observe("mcastd.handshake_us", float64(res.Wall-lastDone)/1e3)
	r.count("mcastd.retransmits", float64(res.Retransmits))
	r.count("mcastd.duplicates", float64(res.Duplicates))
	r.count("mcastd.fenced", float64(res.Fenced))
	return verify(tr, w.payload, dests, func(h int) []byte { return res.Hosts[h].Data })
}

// schedOutstanding is C, the sessions the one submitter keeps in the
// scheduler (queued or in flight) at all times.
const schedOutstanding = 256

// schedWL keeps schedOutstanding sessions in one long-lived scheduler: each
// step plans, packetizes and submits one session and, once the ring is full,
// first waits for the oldest and verifies it. An op is one session; its
// latency is the scheduler's own FinishAt - SubmitAt.
type schedWL struct {
	mcast
	s        *sched.Scheduler
	ring     []schedSlot
	head, n  int
	lastStat sched.Stats
}

type schedSlot struct {
	h     *sched.Handle
	want  []byte
	dests []int
}

func (w *schedWL) setup(g *gen) error {
	if err := w.mcast.setup(g); err != nil {
		return err
	}
	hosts := make([]int, testbedHosts)
	for i := range hosts {
		hosts[i] = i
	}
	s, err := sched.New(hosts, sched.Config{Window: 64, QueueDepth: schedOutstanding, SessionTimeout: opTimeout})
	if err != nil {
		return err
	}
	w.s = s
	w.ring = make([]schedSlot, schedOutstanding)
	for i := range w.ring {
		w.ring[i].want = make([]byte, w.sh.PayloadBytes)
	}
	return nil
}

func (w *schedWL) step(r *round, tr *tracer) {
	op := tr.begin("op")
	if w.n == len(w.ring) {
		w.reap(r, tr)
	}
	source, dests := w.next()
	slot := &w.ring[(w.head+w.n)%len(w.ring)]
	copy(slot.want, w.payload)
	slot.dests = dests
	err := w.submit(tr, slot, source)
	tr.end(op)
	if err != nil {
		r.done(time.Now(), 0, err)
		return
	}
	w.n++
}

func (w *schedWL) submit(tr *tracer, slot *schedSlot, source int) error {
	s := tr.begin("sched.plan_bcast")
	tr1, _, err := w.s.PlanBcast(w.sys, source, slot.dests, w.sh.packets())
	tr.end(s)
	if err != nil {
		return err
	}
	pkts, err := w.packetize(tr, source, slot.want)
	if err != nil {
		return err
	}
	s = tr.begin("sched.submit")
	slot.h, err = w.s.Submit(live.Session{Tree: tr1, Packets: pkts, MsgID: w.msgID})
	tr.end(s)
	return err
}

// reap waits for the oldest outstanding session and verifies it.
func (w *schedWL) reap(r *round, tr *tracer) {
	slot := &w.ring[w.head]
	w.head = (w.head + 1) % len(w.ring)
	w.n--
	s := tr.begin("sched.wait")
	res, err := slot.h.Wait()
	tr.end(s)
	if err == nil {
		err = verify(tr, slot.want, slot.dests, func(h int) []byte { return res.Hosts[h].Data })
	}
	if err != nil {
		r.done(time.Now(), 0, err)
		return
	}
	r.observe("sched.queue_wait_us", float64(res.QueueWait)/1e3)
	r.observe("sched.inflight_us", float64(res.Latency)/1e3)
	r.doneIn(res.FinishAt-res.SubmitAt, w.deliveredBytes())
}

func (w *schedWL) flush(r *round, tr *tracer) {
	for w.n > 0 {
		op := tr.begin("op")
		w.reap(r, tr)
		tr.end(op)
	}
	st := w.s.Stats()
	r.total("sched.dropped_frames", float64(st.DroppedFrames-w.lastStat.DroppedFrames))
	r.total("sched.rejected", float64(st.RejectedFull+st.RejectedDuplicate-w.lastStat.RejectedFull-w.lastStat.RejectedDuplicate))
	r.total("sched.timed_out", float64(st.TimedOutQueue+st.TimedOutInflight-w.lastStat.TimedOutQueue-w.lastStat.TimedOutInflight))
	r.set("sched.max_inflight", float64(st.MaxInflight))
	w.lastStat = st
}

func (w *schedWL) close() {
	if w.s != nil {
		w.s.Close()
	}
}

// simArity is the side of the sim_scale mesh: 100 x 100 = 10,000 hosts.
const simArity = 100

// simEngines is the input the three event-kernel runs of one sim_scale op
// share: one fixed-k multicast from a seeded source to every other host of an
// arity x arity mesh, with routes and partitions precomputed for psim (sim
// takes neither).
type simEngines struct {
	router   routing.Router
	sessions []sim.Session
	params   sim.Params
	w1, wn   psim.Config
	edges    [][2]int
}

func newSimEngines(arity, source int) *simEngines {
	net := topology.Mesh(arity, 2)
	router := routing.NewMeshDimOrder(net, arity, 2)
	n := net.NumHosts()
	chain := make([]int, n)
	for i := range chain {
		chain[i] = (source + i) % n
	}
	tr := tree.KBinomial(chain, 4)
	e := &simEngines{
		router:   router,
		sessions: []sim.Session{{Tree: tr, Packets: 2}},
		params:   sim.DefaultParams(),
	}
	routes := make(map[[2]int]routing.Route, n)
	for _, v := range tr.Nodes() {
		for _, c := range tr.Children(v) {
			e.edges = append(e.edges, [2]int{v, c})
			routes[[2]int{v, c}] = router.Route(v, c)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	e.w1 = psim.Config{Workers: 1, Parts: topology.Partition(net, 1), Routes: routes}
	e.wn = psim.Config{Workers: workers, Parts: topology.Partition(net, workers), Routes: routes}
	return e
}

func (e *simEngines) serial() *sim.ConcurrentResult {
	return sim.Concurrent(e.router, e.sessions, e.params, stepsim.FPFS)
}

func (e *simEngines) parallel(cfg psim.Config, ws *psim.WindowStats) *sim.ConcurrentResult {
	cfg.Stats = ws
	return psim.Concurrent(e.router, e.sessions, e.params, stepsim.FPFS, cfg)
}

// run executes the multicast on the three kernels and requires identical
// results. The WindowStats of the two psim runs are returned for the ledger.
func (e *simEngines) run(tr *tracer) (res *sim.ConcurrentResult, ws1, wsn psim.WindowStats, err error) {
	s := tr.begin("sim.concurrent")
	serial := e.serial()
	tr.end(s)

	s = tr.begin("psim.w1")
	one := e.parallel(e.w1, &ws1)
	tr.end(s)

	s = tr.begin("psim.wn")
	many := e.parallel(e.wn, &wsn)
	tr.end(s)

	s = tr.begin("bench.verify")
	defer tr.end(s)
	if !sameResult(serial, one) || !sameResult(serial, many) {
		return nil, ws1, wsn, fmt.Errorf("%w: sim and psim results diverge", errMismatch)
	}
	return serial, ws1, wsn, nil
}

// sameResult is reflect.DeepEqual for two ConcurrentResults without its
// allocations: DeepEqual boxes every entry of the 10,000-entry maps (about
// 180,000 objects per op), which would bury the kernels' own ~400 in
// allocs_per_op. A test pins the field counts so that a field added to the
// result types cannot go uncompared.
func sameResult(a, b *sim.ConcurrentResult) bool {
	if len(a.Sessions) != len(b.Sessions) {
		return false
	}
	for i, sa := range a.Sessions {
		sb := b.Sessions[i]
		if sa.Latency != sb.Latency || !sameMap(sa.NIDone, sb.NIDone) || !sameMap(sa.HostDone, sb.HostDone) {
			return false
		}
	}
	return sameMap(a.MaxBuffered, b.MaxBuffered) && a.ChannelWait == b.ChannelWait && a.Sends == b.Sends &&
		a.Makespan == b.Makespan && a.Faults == b.Faults && reflect.DeepEqual(a.Incomplete, b.Incomplete)
}

func sameMap[V comparable](a, b map[int]V) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		if vb, ok := b[k]; !ok || va != vb {
			return false
		}
	}
	return true
}

// simWL runs no live code at all: one op is the same 10,000-host multicast
// on sim, psim W=1 and psim W=GOMAXPROCS.
type simWL struct {
	arity int
	e     *simEngines
}

func (w *simWL) setup(g *gen) error {
	w.e = newSimEngines(w.arity, g.rng.Intn(w.arity*w.arity))
	return nil
}

func (w *simWL) step(r *round, tr *tracer) {
	start := time.Now()
	op := tr.begin("op")
	res, ws1, wsn, err := w.e.run(tr)
	tr.end(op)
	r.done(start, 0, err)
	if err != nil {
		return
	}
	r.set("sim_makespan_us", res.Makespan)
	r.set("sim.sends", float64(res.Sends))
	r.set("sim.channel_wait_us", res.ChannelWait)
	r.set("sim.events", float64(ws1.Events))
	r.set("psim.windows", float64(wsn.Windows))
	r.set("psim.mailed", float64(wsn.Mailed))
	r.set("psim.events_per_window", wsn.PerWindow.Mean())
}

func (w *simWL) flush(*round, *tracer) {}
func (w *simWL) close()                {}
