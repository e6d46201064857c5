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

// EdgeSenderConfig parameterizes one EdgeSender incarnation. An edge a
// ReliableShare builds belongs to its session, which stamps its epoch,
// holds its crash schedule and hears of its death; a bare edge (nil
// session) sends at epoch 0, is never down, and dies unheard.
type EdgeSenderConfig struct {
	Packets     [][]byte      // the session's wire packets, indexed by sequence
	RTO         time.Duration // base retransmission timeout
	RTOMax      time.Duration // backoff cap
	RetryBudget int           // retransmissions per packet before the edge dies
	JitterSeed  uint64        // private backoff-jitter stream seed

	Abort <-chan struct{} // runtime teardown
}

// EdgeSender is one reliable tree-edge incarnation: a dedicated sender
// goroutine owning the edge's transport and its one retransmission timer.
// It wakes only to send: an enqueued packet, or what the timer finds due.
// Packets are sent serially in enqueue order (sequence order from a
// single parent), so a zero-fault plane reproduces the lossless engine's
// per-edge FIFO behavior exactly.
//
// Enqueue, Ack and Cancel may be called from any goroutine: an ACK is a
// mark the sender reads before it sends, Cancel a flag. Run owns the
// rest; read Sends and Retransmits only after the runtime's WaitGroup
// drains (cancelled edges keep their counts — they happened).
type EdgeSender struct {
	tr   link.Transport
	cfg  EdgeSenderConfig
	s    *ReliableShare // the session; nil for a bare edge
	in   chan int       // novel/replayed sequence numbers from the owning NI
	jrng *workload.RNG  // backoff jitter stream

	acked     []atomic.Bool // per-packet ACK bitmap, set by Ack
	cancelled atomic.Bool
	fenced    atomic.Int64 // stale-epoch ACKs discarded

	attempts    []int       // per packet: transmissions so far (0: unsent)
	due         []time.Time // per packet: when it is next resent
	sends       int
	retransmits int
}

// NewEdgeSender builds an incarnation over the given transport. The
// caller starts the loop with go es.Run().
func NewEdgeSender(tr link.Transport, cfg EdgeSenderConfig) *EdgeSender {
	m := len(cfg.Packets)
	return &EdgeSender{
		tr:       tr,
		cfg:      cfg,
		in:       make(chan int, 2*m+8),
		jrng:     workload.NewRNG(cfg.JitterSeed),
		acked:    make([]atomic.Bool, m),
		attempts: make([]int, m),
		due:      make([]time.Time, m),
	}
}

// From and To name the edge after the underlying transport.
func (e *EdgeSender) From() int { return e.tr.From() }
func (e *EdgeSender) To() int   { return e.tr.To() }

// Enqueue hands a sequence number to the edge sender. Channel capacity
// covers the worst case (one replay plus one novel pass over the whole
// message, and Cancel's pokes), so this blocks only if that invariant is
// broken — and then the abort path still unwedges it.
func (e *EdgeSender) Enqueue(seq int) {
	select {
	case e.in <- seq:
	case <-e.cfg.Abort:
	}
}

// Ack marks a packet acknowledged, on the caller's goroutine and without
// waking the sender: a stale-epoch ACK is fenced (counted, dropped), any
// other settles its packet, which is then never sent or resent again.
func (e *EdgeSender) Ack(a EdgeAck) {
	if a.Epoch < e.epoch() {
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

// Sends, Retransmits and Fenced report the edge's counters. Call only
// after the sender goroutine has been joined.
func (e *EdgeSender) Sends() int       { return e.sends }
func (e *EdgeSender) Retransmits() int { return e.retransmits }
func (e *EdgeSender) Fenced() int      { return int(e.fenced.Load()) }

// epoch is the session's fence register, 0 for a bare edge.
func (e *EdgeSender) epoch() int {
	if e.s == nil {
		return 0
	}
	return e.s.Epoch()
}

// die reports the incarnation's death to its session, once, from the
// sender goroutine.
func (e *EdgeSender) die() {
	if e.s != nil {
		e.s.Report(Report{Kind: ReportExhausted, Host: e.From(), To: e.To()})
	}
}

// Run is the edge sender loop: send a new sequence at once (the
// transport's admission gate is the only send window) unless it is ACKed
// or already sent; on the timer, resend every due, un-ACKed packet in
// sequence order with capped exponential backoff plus seeded jitter; die
// on budget exhaustion or transport death (reporting either), cancel, or
// abort.
func (e *EdgeSender) Run() {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	var armed time.Time // the timer's due; zero while it is stopped or spent
	for {
		select {
		case seq := <-e.in:
			if e.cancelled.Load() {
				return
			}
			if e.acked[seq].Load() || e.attempts[seq] > 0 {
				continue
			}
			if !e.send(seq, false) {
				return
			}
			now := time.Now()
			e.attempts[seq], e.due[seq] = 1, now.Add(e.rto(1))
			if armed.IsZero() || e.due[seq].Before(armed) {
				armed = e.due[seq]
				rearm(timer, armed.Sub(now))
			}
		case <-timer.C:
			if e.cancelled.Load() {
				return
			}
			now := time.Now()
			armed = time.Time{}
			for seq, n := range e.attempts {
				if n == 0 || e.acked[seq].Load() {
					continue
				}
				if !e.due[seq].After(now) {
					if n > e.cfg.RetryBudget {
						// Budget spent: this incarnation dies; the supervisor
						// repairs or abandons the subtree behind it.
						e.die()
						return
					}
					if !e.send(seq, true) {
						return
					}
					e.attempts[seq]++
					e.due[seq] = now.Add(e.rto(n + 1))
				}
				if armed.IsZero() || e.due[seq].Before(armed) {
					armed = e.due[seq]
				}
			}
			if !armed.IsZero() {
				timer.Reset(time.Until(armed))
			}
		case <-e.cfg.Abort:
			return
		}
	}
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
	if e.s != nil && e.s.down(e.From(), time.Since(e.s.start)) {
		return true
	}
	pkt := e.cfg.Packets[seq]
	if g := e.epoch(); g > 0 {
		if stamped, err := message.WithEpoch(pkt, uint16(g)); err == nil {
			pkt = stamped
		}
	}
	if err := e.tr.Send(pkt, e.cfg.Abort); err != nil {
		if !errors.Is(err, link.ErrAborted) {
			e.die()
		}
		return false
	}
	e.sends++
	if retrans {
		e.retransmits++
	}
	return true
}

// rto returns the retransmission timeout for the given attempt count:
// base RTO doubling per attempt, capped, widened by a jitter draw from
// the edge's private stream (decorrelated from any chaos plane's loss
// stream, like sim's jrng).
func (e *EdgeSender) rto(attempt int) time.Duration {
	d := e.cfg.RTO
	for i := 1; i < attempt && d < e.cfg.RTOMax; i++ {
		d *= 2
	}
	if d > e.cfg.RTOMax {
		d = e.cfg.RTOMax
	}
	return d + time.Duration(e.jrng.Float64()*0.25*float64(d))
}
