package live

import (
	"slices"
	"time"

	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/workload"
)

// ReliableNIConfig parameterizes one ReliableNI the way EdgeSenderConfig
// parameterizes a sender: the hooks decouple the receive path from any
// particular runtime (where an ACK goes is the share's rule, not a hook).
// Every hook is called from the host's NI goroutine and is handed Host
// first, so one set of hooks serves every NI of a run: a driver fills in
// MsgID, Trace and the hooks once, and ReliableShare stamps each NI's
// Host, Root, Packets and Epoch onto that template.
type ReliableNIConfig struct {
	Host    int
	MsgID   uint32
	Packets int // the message's packet count
	// Root marks the multicast source: it starts holding every packet (so
	// seeding its child edges IS the FPFS packet-major injection) and
	// reassembles nothing.
	Root bool

	// Epoch returns the global fence register: frames stamped below it are
	// discarded unacknowledged, and ACKs carry it.
	Epoch func() int
	// OnDone reports a complete reassembly (again after an amnesiac
	// rejoin), at offset at from the share's start.
	OnDone func(host int, at time.Duration)

	// Down, when non-nil, reports whether the NI is inside a scheduled
	// crash window at offset at: a down NI keeps draining its inbox
	// (releasing buffer slots so blocked senders never wedge) but
	// blackholes every frame — silent death. OnRejoin fires on the first
	// frame served after such a window, once the NI has wiped its state.
	Down     func(host int, at time.Duration) bool
	OnRejoin func(host int, at time.Duration)
	// Trace records the Arrivals and (while the epoch is positive) the
	// Accepts evidence the in-process engine reports per host.
	Trace bool
}

// ReliableNI is one host's state in one reliable session, its loss- and
// crash-tolerant network interface. It has no goroutine of its own: the
// host's NI loop (Share) hands it each of the session's frames, and runs
// the supervisor's tree-shape updates (AddChild, DelChild) in call order.
// Per frame it validates (once), fences stale epochs, ACKs, suppresses
// duplicates, forwards novel packets to every child edge the moment they
// arrive (FPFS) and reassembles. AddChild and DelChild may be called from
// the supervisor goroutine; everything else belongs to the NI loop, and
// the exported fields (its report) may be read only once the share has
// stopped.
type ReliableNI struct {
	// HostRecord is the host's result, filled in place and handed out by
	// reference like HostSession's: Recvs counts novel acceptances and
	// Arrivals lists them in order (Trace); Data and DoneAt are the latest
	// complete reassembly (nil at the root and until complete) and survive
	// an amnesiac rejoin — the message reached the host before the crash;
	// Sends is the total of the host's edge incarnations, folded in by
	// ReliableShare.Totals.
	HostRecord
	Accepts    []EpochAccept // the arrivals' epoch stamps (Trace, armed runs)
	Dups       int           // duplicate frames suppressed
	Fenced     int           // stale-epoch frames discarded
	CrashDrops int           // frames eaten while down

	cfg      ReliableNIConfig
	share    *ReliableShare // routes the NI's ACKs
	acks     *workload.RNG  // the chaos plane's ACK-loss stream, drawn here only
	children []*EdgeSender
	got      []bool              // per-packet dedup bitmap
	reasm    message.Reassembler // idle at the root, which owns the original
	wasDown  bool
}

// newReliableNI builds one of share's NIs; the share wires its initial
// children.
func newReliableNI(share *ReliableShare, cfg ReliableNIConfig) *ReliableNI {
	n := &ReliableNI{
		HostRecord: HostRecord{Host: cfg.Host},
		cfg:        cfg,
		share:      share,
		acks:       share.cfg.Chaos.AckRNG(cfg.Host),
		got:        make([]bool, cfg.Packets),
	}
	if cfg.Root {
		for j := range n.got {
			n.got[j] = true
		}
	}
	return n
}

// AddChild attaches a mid-run child edge; the NI replays every packet it
// holds into it. DelChild detaches the edge to the given host. Neither
// blocks: both are handed to the host's NI loop.
func (n *ReliableNI) AddChild(e *EdgeSender) {
	n.share.handOff(n.cfg.Host, func() {
		n.children = append(n.children, e)
		n.replay([]*EdgeSender{e})
	})
}

func (n *ReliableNI) DelChild(to int) {
	n.share.handOff(n.cfg.Host, func() {
		n.children = slices.DeleteFunc(n.children, func(e *EdgeSender) bool { return e.To() == to })
	})
}

// Held counts the packets the NI holds, for watchdog diagnostics.
func (n *ReliableNI) Held() int {
	held := 0
	for _, g := range n.got {
		if g {
			held++
		}
	}
	return held
}

// replay enqueues every packet this NI holds into the given edges,
// packet-major (packet 0 to every edge, then packet 1, ...), mirroring
// the simulator's graft replay and the root's FPFS seeding.
func (n *ReliableNI) replay(edges []*EdgeSender) {
	for seq, have := range n.got {
		if !have {
			continue
		}
		for _, e := range edges {
			e.Enqueue(seq)
		}
	}
}

// serve handles one frame of the session: crash blackhole, amnesiac
// rejoin, integrity and epoch checks, ACK, dedup, FPFS forward,
// reassembly. The NI loop releases the frame's slot after it.
func (n *ReliableNI) serve(f link.Frame) {
	now := time.Since(n.share.start)
	if n.cfg.Down != nil {
		if n.cfg.Down(n.cfg.Host, now) {
			n.wasDown = true
			n.CrashDrops++
			return
		}
		if n.wasDown {
			// Amnesiac rejoin: the crash dropped all NI state — dedup
			// bitmap and reassembly restart from nothing (the root keeps
			// its packets: they live in host memory, not NI buffers). The
			// supervisor must hear of it: packets ACKed before the crash
			// are erased here but retired at the parent edge, so only a
			// fresh-edge full replay can recover them — and a crash
			// shorter than the suspicion window means the failure detector
			// will never order that replay on its own.
			n.wasDown = false
			if !n.cfg.Root {
				n.got = make([]bool, n.cfg.Packets)
				n.reasm = message.Reassembler{}
				n.cfg.OnRejoin(n.cfg.Host, now)
			}
		}
	}
	// Corrupted in transit or out of range: drop silently; retransmission
	// recovers.
	h, body, err := message.Parse(f.Payload)
	if err != nil || int(h.Seq) >= n.cfg.Packets {
		return
	}
	g := n.cfg.Epoch()
	if int(h.Epoch) < g {
		n.Fenced++ // stale epoch: discard wholesale, no ACK
		return
	}
	seq := int(h.Seq)
	// ACK every valid in-epoch frame, duplicates included — the lost half
	// of a duplicate exchange may have been the ACK.
	n.share.ack(n, f.From, seq, g)
	if n.got[seq] {
		n.Dups++
		return
	}
	n.got[seq] = true
	n.Recvs++
	if n.cfg.Trace {
		n.Arrivals = append(n.Arrivals, Arrival{Packet: seq, From: f.From})
		if g > 0 {
			n.Accepts = append(n.Accepts, EpochAccept{Host: n.cfg.Host, Packet: seq, Epoch: int(h.Epoch), At: now})
		}
	}
	// FPFS: forward the novel packet to every child the moment it arrives.
	for _, ce := range n.children {
		ce.Enqueue(seq)
	}
	// Novel, so the message was incomplete until now (and this is not the
	// root, which holds every packet from the start).
	if done, err := n.reasm.Put(h, body); err == nil && done {
		n.Data, n.DoneAt = n.reasm.Bytes(), time.Since(n.share.start)
		n.cfg.OnDone(n.cfg.Host, n.DoneAt)
	}
}
