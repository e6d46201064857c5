package live

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/workload"
)

// EdgeAck is one acknowledgment handed to an EdgeSender, stamped with
// the receiver's epoch so stale control traffic is fenced like stale
// data.
type EdgeAck struct {
	Seq, Epoch int
}

// EdgeSenderConfig parameterizes one EdgeSender incarnation. Every edge
// belongs to a session, a ReliableShare's or a bare edge's own, which
// stamps its epoch, keeps its clock and crash schedule, and hears it die.
type EdgeSenderConfig struct {
	Packets     [][]byte      // the session's wire packets, indexed by sequence
	RTO         time.Duration // base retransmission timeout
	RTOMax      time.Duration // backoff cap
	RetryBudget int           // retransmissions per packet before the edge dies
	JitterSeed  uint64        // private backoff-jitter stream seed

	Abort <-chan struct{} // runtime teardown
}

// EdgeSender is one reliable tree-edge incarnation: the edge's transport
// and one retransmission timer, stepped by its goroutine (Run) or by
// RunVirtual's events. It wakes only to send: an enqueued packet, or what
// the timer finds due. Packets go serially in enqueue order (sequence
// order from a single parent), so a zero-fault plane reproduces the
// lossless engine's per-edge FIFO behavior exactly.
//
// Enqueue, Ack and Cancel may be called from any goroutine: an ACK is a
// mark the sender reads before it sends, Cancel a flag. The steps own the
// rest; read Sends and Retransmits only after the runtime's WaitGroup
// drains (cancelled edges keep their counts — they happened).
type EdgeSender struct {
	tr   link.Transport
	cfg  EdgeSenderConfig
	s    *ReliableShare // the session
	in   chan int       // novel/replayed sequence numbers from the owning NI
	jrng *workload.RNG  // backoff jitter stream

	acked     []atomic.Bool // per-packet ACK bitmap, set by Ack
	cancelled atomic.Bool
	fenced    atomic.Int64 // stale-epoch ACKs discarded

	attempts    []int           // per packet: transmissions so far (0: unsent)
	due         []time.Duration // per packet: when it is next resent, on the session's clock
	next        time.Duration   // the earliest due the timer must wake for (forever: none)
	armed       time.Duration   // the due the timer is set for (0: stopped or spent)
	sends       int
	retransmits int
}

// NewEdgeSender builds a bare incarnation over the given transport, of a
// session of its own: on the wall clock, at epoch 0, never down, its death
// heard by nobody. The caller starts the loop with go es.Run().
func NewEdgeSender(tr link.Transport, cfg EdgeSenderConfig) *EdgeSender {
	return (&ReliableShare{Share: &Share{start: time.Now(), reports: make(chan Report, 1)}}).edgeSender(tr, cfg)
}

// edgeSender builds an incarnation of session s over the given transport.
func (s *ReliableShare) edgeSender(tr link.Transport, cfg EdgeSenderConfig) *EdgeSender {
	m := len(cfg.Packets)
	return &EdgeSender{
		tr:       tr,
		cfg:      cfg,
		s:        s,
		next:     forever,
		in:       make(chan int, 2*m+8),
		jrng:     workload.NewRNG(cfg.JitterSeed),
		acked:    make([]atomic.Bool, m),
		attempts: make([]int, m),
		due:      make([]time.Duration, m),
	}
}

// From and To name the edge after the underlying transport.
func (e *EdgeSender) From() int { return e.tr.From() }
func (e *EdgeSender) To() int   { return e.tr.To() }

// Enqueue hands a sequence number to the edge sender (in virtual time, the
// sender takes its turn at once, as a forwarding NI does). Channel
// capacity covers the worst case (a replay and a novel pass over the
// whole message, and Cancel's pokes), so this blocks only if that
// invariant is broken — and then the abort path still unwedges it.
func (e *EdgeSender) Enqueue(seq int) {
	if e.s.virt != nil {
		e.s.virt.step(e, seq)
		return
	}
	select {
	case e.in <- seq:
	case <-e.cfg.Abort:
	}
}

// Ack marks a packet acknowledged, on the caller's goroutine and without
// waking the sender: a stale-epoch ACK is fenced (counted, dropped), any
// other settles its packet, which is then never sent or resent again.
func (e *EdgeSender) Ack(a EdgeAck) {
	if a.Epoch < e.s.Epoch() {
		e.fenced.Add(1) // stale control traffic: ignore, retransmit fresh
		return
	}
	if a.Seq >= 0 && a.Seq < len(e.acked) {
		e.acked[a.Seq].Store(true)
	}
}

// Cancel retires the incarnation: it sends nothing more, and an idle
// sender is poked awake to return. Calling it again does nothing new.
func (e *EdgeSender) Cancel() {
	e.cancelled.Store(true)
	select {
	case e.in <- -1:
	default: // full: the sender has enqueued work to wake it
	}
}

// Sends, Retransmits and Fenced report the edge's counters, once it is joined.
func (e *EdgeSender) Sends() int       { return e.sends }
func (e *EdgeSender) Retransmits() int { return e.retransmits }
func (e *EdgeSender) Fenced() int      { return int(e.fenced.Load()) }

// Run is the edge sender's goroutine: wait for a packet, the timer or the
// abort, then step, and re-arm the timer when the step's next wake moved.
func (e *EdgeSender) Run() {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		seq := -1
		select {
		case seq = <-e.in:
		case <-timer.C:
			e.armed = 0
		case <-e.cfg.Abort:
			return
		}
		wake, alive := e.step(seq)
		if !alive {
			return
		}
		if wake != forever && wake != e.armed {
			e.armed = wake
			rearm(timer, wake-e.s.Now())
		}
	}
}

// step is one turn of the sender. A packet handed over (seq >= 0) is sent
// at once (the transport's admission gate is the only send window) unless
// ACKed or already sent; a timer wake (seq < 0) resends every due, un-ACKed
// packet in sequence order, with capped exponential backoff plus seeded
// jitter. It returns when the timer must next fire (forever: never), and
// false once the incarnation is over: cancelled, dead (reported), aborted.
func (e *EdgeSender) step(seq int) (wake time.Duration, alive bool) {
	if e.cancelled.Load() {
		return 0, false
	}
	if seq >= 0 {
		if e.acked[seq].Load() || e.attempts[seq] > 0 {
			return e.next, true
		}
		if !e.send(seq, false) {
			return 0, false
		}
		e.attempts[seq], e.due[seq] = 1, e.s.Now()+e.rto(1)
		e.next = min(e.next, e.due[seq])
		return e.next, true
	}
	now := e.s.Now()
	e.next = forever
	for seq, n := range e.attempts {
		if n == 0 || e.acked[seq].Load() {
			continue
		}
		if e.due[seq] <= now {
			if n > e.cfg.RetryBudget {
				// Budget spent: this incarnation dies; the supervisor
				// repairs or abandons the subtree behind it.
				e.s.Report(Report{Kind: ReportExhausted, Host: e.From(), To: e.To()})
				return 0, false
			}
			if !e.send(seq, true) {
				return 0, false
			}
			e.attempts[seq]++
			e.due[seq] = now + e.rto(n+1)
		}
		e.next = min(e.next, e.due[seq])
	}
	return e.next, true
}

// rearm points a timer that may already have fired at a new delay,
// leaving no stale tick in its channel.
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// send injects one (re)transmission, stamped with the session's epoch
// once the membership plane is armed. While the session's crash schedule
// has the parent down the send vanishes silently but still burns retry
// budget, so a long crash exhausts the edge and triggers repair even
// before a failure detector confirms. Returns false when the incarnation
// must die: on abort, or on a genuine transport error (reported, so the
// repair machinery routes around the dead link).
func (e *EdgeSender) send(seq int, retrans bool) bool {
	if e.s.down(e.From(), e.s.Now()) {
		return true
	}
	pkt := e.cfg.Packets[seq]
	if g := e.s.Epoch(); g > 0 {
		if stamped, err := message.WithEpoch(pkt, uint16(g)); err == nil {
			pkt = stamped
		}
	}
	if err := e.tr.Send(pkt, e.cfg.Abort); err != nil {
		if !errors.Is(err, link.ErrAborted) {
			e.s.Report(Report{Kind: ReportExhausted, Host: e.From(), To: e.To()})
		}
		return false
	}
	e.sends++
	if retrans {
		e.retransmits++
	}
	return true
}

// rto returns the retransmission timeout for the given attempt count,
// jittered from the edge's private stream (decorrelated from any chaos
// plane's loss stream, like sim's jrng).
func (e *EdgeSender) rto(attempt int) time.Duration {
	return Backoff(e.cfg.RTO, e.cfg.RTOMax, attempt, e.jrng)
}

// Backoff is the one retry pacer of the runtime and the daemon's ctl
// plane: the delay before retry number attempt (1-based) is base doubled
// per earlier attempt, capped at max, widened by up to 25% jitter drawn
// from rng.
func Backoff(base, max time.Duration, attempt int, rng *workload.RNG) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	d = min(d, max)
	return d + time.Duration(rng.Float64()*0.25*float64(d))
}
