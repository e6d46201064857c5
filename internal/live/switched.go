package live

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/membership"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/stepsim"
)

// Deliver multicasts payload from the plan's tree root to every other tree
// node under the fault plan, on the reliable runtime in virtual time
// (RunVirtual) over sys's switch geometry: every frame pays the
// simulator's costs (switched), kills are folded into the routes at an
// exhaustion (reliable.Geometry), and a repair's chain is cut from the
// system's ordering. The fault plan's times are microseconds. The
// retransmission timeout is one lossless FPFS multicast of the plan plus
// one t_ns, doubling twice at most: a lossless frame is queued after t_s
// and delivered by that latency less t_r, so a lossless run never
// retransmits. The failure detector runs membership.DefaultConfig's
// timeouts. A destination is done once its host has copied the message
// off the NI, t_r after the NI completes, unless a crash-stop lands first;
// Wall and Crashed are read at the later of the run's settling and its
// last copy. A refused config, payload or plan (a field a switched
// network cannot carry out is a *fault.RefusedError) or a watchdog stall
// returns no result; a shortfall returns one with a *reliable.DeliveryError
// or *reliable.CrashError. A run is a function of its inputs.
func Deliver(sys *core.System, plan *core.Plan, payload []byte, cfg reliable.Config, fp fault.Plan) (*ReliableResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := cfg.Params
	pkts, err := message.Packetize(cfg.MsgID, plan.Tree.Root(), payload, p.PacketBytes)
	if err != nil {
		return nil, err
	}
	rcfg := DefaultReliableConfig()
	rcfg.Faults, rcfg.RetryBudget, rcfg.Quorum = fp, cfg.RetryBudget, cfg.Quorum
	rcfg.RTO = dur(sim.Multicast(sys.Router, plan.Tree, len(pkts), p, stepsim.FPFS).Latency + p.TNISend)
	rcfg.RTOMax = 4 * rcfg.RTO
	det := membership.DefaultConfig()
	rcfg.Heartbeat = HeartbeatParams{SuspectAfter: dur(det.SuspectAfter), ConfirmAfter: dur(det.ConfirmAfter)}
	return runVirtual(Session{Tree: plan.Tree, Packets: pkts, MsgID: cfg.MsgID}, rcfg, &virtual{sys: sys, p: p})
}

// RunSwitched runs plain sessions as Run does, in virtual time over sys's
// switch geometry at p's costs: root i hands its NI the message at
// start[i] + t_s (µs), a host is done once it copied the message off the
// NI (t_r), and a turn forwards a whole backlog (quantum: the largest m),
// so the run equals sim.Concurrent FPFS to the ns (virtual-matches-sim).
func RunSwitched(sys *core.System, sessions []Session, start []float64, p sim.Params) (*Result, error) {
	quantum := 0
	for _, s := range sessions {
		quantum = max(quantum, len(s.Packets))
	}
	return runSwitched(sys, sessions, start, p, quantum)
}

// runSwitched is RunSwitched at the given DRR quantum.
func runSwitched(sys *core.System, sessions []Session, start []float64, p sim.Params, quantum int) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(start) != len(sessions) || slices.ContainsFunc(start, func(t float64) bool { return !(t >= 0 && t <= math.MaxFloat64) }) {
		return nil, fmt.Errorf("live: start times %v for %d sessions", start, len(sessions))
	}
	v := &virtual{sys: sys, p: p}
	s, entries, err := joinShare(sessions, quantum, Config{}, v)
	if err != nil {
		return nil, err
	}
	for i, e := range entries {
		v.atUS(start[i]+p.THostSend, func() { s.Inject(e) })
	}
	v.eng.Run()
	s.Stop()
	if v.err != nil {
		return nil, v.err
	}
	return assemble(entries, v.copied, false), nil
}

// dur converts microseconds to the run clock's nanoseconds, rounded.
func dur(us float64) time.Duration { return time.Duration(math.Round(us * float64(time.Microsecond))) }

// switched is the transport state of a run over a switch geometry. Every
// frame pays the simulator's FPFS costs: it waits in its sender's one FIFO
// for one of Params.Ports() engines; the engine that takes it pays t_ns
// (after any stall), reserves the route's wormhole channels on the run's
// engine and is free once the frame is on the wire; the frame reaches the
// receiving NI t_nr after its tail. A frame whose route crosses a killed
// link is lost, a dead send, before the loss stream draws; a crashed NI's
// queue dies with it.
type switched struct {
	v      *virtual
	geo    *reliable.Geometry
	faults *fault.State
	nics   map[int]*nic
}

// nic is one host's send side: the frames of all its edges waiting, in
// the order their senders handed them over, and the engines busy.
type nic struct {
	host  int
	queue []sframe
	busy  int
}

type sframe struct {
	l       *slink
	payload []byte
}

func newSwitched(v *virtual, faults *fault.State) *switched {
	return &switched{v: v, geo: reliable.NewGeometry(v.sys, faults), faults: faults, nics: map[int]*nic{}}
}

// nic returns host h's send side.
func (sw *switched) nic(h int) *nic {
	n := sw.nics[h]
	if n == nil {
		n = &nic{host: h}
		sw.nics[h] = n
	}
	return n
}

// pump has n's free engines take the frames at the head of its queue.
func (sw *switched) pump(n *nic) {
	for n.busy < sw.v.p.Ports() && len(n.queue) > 0 {
		f := n.queue[0]
		n.queue = n.queue[1:]
		sw.inject(n, f)
	}
}

// inject is one of n's engines taking frame f now.
func (sw *switched) inject(n *nic, f sframe) {
	v, p := sw.v, sw.v.p
	now := v.eng.Now()
	if sw.faults.HostDown(n.host, now) {
		return
	}
	route := sw.geo.Route(n.host, f.l.To())
	wire := p.WireTime()
	start, arrive := v.eng.ReservePath(route, now+sw.faults.StallDelay(n.host, now)+p.TNISend, wire, p.RouterDelay)
	n.busy++
	v.atUS(start+wire, func() {
		n.busy--
		sw.pump(n)
	})
	if sw.faults.RouteDead(route.Channels, start) {
		return
	}
	out := f.payload
	if f.l.ft != nil {
		if out = f.l.ft.Transmit(out); out == nil {
			return
		}
	}
	v.atUS(arrive+p.TNIRecv, func() {
		_ = f.l.Transport.Send(out, nil) // the NI's turn frees the slot it takes
		f.l.to.step()
	})
}

// slink is an edge's transport over the switch geometry: Send queues the
// frame at the sender's NI, which carries it (switched). The fault
// plane's stream decides the frame's loss; its stall windows are the
// NI's, and kills are the links'.
type slink struct {
	vedge
	sw   *switched
	from *nic
}

func (l *slink) Send(payload []byte, _ <-chan struct{}) error {
	l.from.queue = append(l.from.queue, sframe{l, payload})
	l.sw.pump(l.from)
	return nil
}
