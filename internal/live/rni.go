package live

import (
	"slices"

	"repro/internal/fault"
	"repro/internal/live/link"
	"repro/internal/message"
)

// ReliableNI is one host's state in one reliable session, its loss- and
// crash-tolerant network interface; what it needs of the session — epoch,
// clock, fault plane, trace switch, the share's evidence queue — it reads
// there. The
// root's starts holding every packet (so seeding its child edges IS the
// FPFS packet-major injection) and reassembles nothing. It has no
// goroutine of its own: the host's NI loop (Share) hands it each of the
// session's frames, and runs the supervisor's tree-shape updates
// (AddChild, DelChild) in call order. Per frame it validates (once),
// fences stale epochs, ACKs, suppresses duplicates, forwards novel packets
// to every child edge the moment they arrive (FPFS), reassembles, and
// reports a completion or an amnesiac rejoin on the share. AddChild and
// DelChild may be called from the supervisor goroutine; everything else
// belongs to the NI loop, and the exported fields (its report) may be read
// only once the share has stopped.
type ReliableNI struct {
	// HostRecord is the host's result, filled in place and handed out by
	// reference like HostSession's: Recvs counts novel acceptances and
	// Arrivals lists them in order (Trace); Data and DoneAt are the latest
	// complete reassembly (nil at the root and until complete) and survive
	// an amnesiac rejoin — the message reached the host before the crash;
	// Sends is the total of the host's edge incarnations, folded in by
	// ReliableShare.Result.
	HostRecord
	Accepts []EpochAccept // the arrivals' epoch stamps (Trace, armed runs)
	Dups    int           // duplicate frames suppressed
	Fenced  int           // stale-epoch frames discarded

	share    *ReliableShare
	acks     fault.Stream // the host's ACK-loss stream, drawn here only
	children []*EdgeSender
	got      []bool              // per-packet dedup bitmap
	reasm    message.Reassembler // idle at the root, which owns the original
	wasDown  bool
}

// newReliableNI builds host's NI of share; the share wires its initial
// children.
func newReliableNI(share *ReliableShare, host int) *ReliableNI {
	n := &ReliableNI{
		HostRecord: HostRecord{Host: host},
		share:      share,
		acks:       share.cfg.Faults.Acks(host),
		got:        make([]bool, len(share.cfg.Edge.Packets)),
	}
	if host == share.cfg.Tree.Root() {
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
	n.share.handOff(n.Host, func() {
		n.children = append(n.children, e)
		n.replay([]*EdgeSender{e})
	})
}

func (n *ReliableNI) DelChild(to int) {
	n.share.handOff(n.Host, func() {
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

// serve handles one frame of the session, h its header as the NI loop
// decoded it: crash blackhole, amnesiac rejoin, integrity and epoch checks,
// ACK, dedup, FPFS forward, reassembly. The loop then releases its slot.
func (n *ReliableNI) serve(f link.Frame, h message.Header) {
	s := n.share
	now := s.Now()
	if s.down(n.Host, now) {
		// Inside a scheduled crash window: keep draining (the loop releases
		// the slot, so blocked senders never wedge) but eat every frame.
		n.wasDown = true
		s.cfg.Faults.NoteCrashDrop()
		return
	}
	if n.wasDown {
		// Amnesiac rejoin: the crash dropped all NI state — dedup bitmap and
		// reassembly restart from nothing (the root keeps its packets: they
		// live in host memory, not NI buffers). The supervisor must hear of
		// it: packets ACKed before the crash are erased here but retired at
		// the parent edge, so only a fresh-edge full replay can recover
		// them — and a crash shorter than the suspicion window means the
		// failure detector will never order that replay on its own.
		n.wasDown = false
		if n.Host != s.cfg.Tree.Root() {
			n.got = make([]bool, len(n.got))
			n.reasm = message.Reassembler{}
			s.Report(Report{Kind: ReportRejoin, Host: n.Host, At: now})
		}
	}
	// Corrupted in transit or out of range: drop silently; retransmission
	// recovers.
	body, err := h.Verify(f.Payload)
	if err != nil || int(h.Seq) >= len(n.got) {
		return
	}
	g := s.Epoch()
	if int(h.Epoch) < g {
		n.Fenced++ // stale epoch: discard wholesale, no ACK
		return
	}
	seq := int(h.Seq)
	// ACK every valid in-epoch frame, duplicates included — the lost half
	// of a duplicate exchange may have been the ACK.
	s.ack(n, f.From, seq, g)
	if n.got[seq] {
		n.Dups++
		return
	}
	n.got[seq] = true
	n.Recvs++
	if s.cfg.Trace {
		n.Arrivals = append(n.Arrivals, Arrival{Packet: seq, From: f.From})
		if g > 0 {
			n.Accepts = append(n.Accepts, EpochAccept{Host: n.Host, Packet: seq, Epoch: int(h.Epoch), At: now})
		}
	}
	// FPFS: forward the novel packet to every child the moment it arrives.
	for _, ce := range n.children {
		ce.Enqueue(seq)
	}
	// Novel, so the message was incomplete until now (and this is not the
	// root, which holds every packet from the start).
	if done, err := n.reasm.Put(h, body); err == nil && done {
		at := s.Now()
		s.virt.receive(&n.HostRecord, n.reasm.Bytes(), at)
		s.Report(Report{Kind: ReportDone, Host: n.Host, At: at})
	}
}
