package live

import (
	"errors"
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

// EdgeSenderConfig parameterizes one EdgeSender incarnation. The hooks
// decouple the retransmission protocol from any particular runtime: the
// in-process reliable engine and the multi-process daemon both drive
// the same loop with different epoch registers and failure reporters.
type EdgeSenderConfig struct {
	Packets     [][]byte      // the session's wire packets, indexed by sequence
	RTO         time.Duration // base retransmission timeout
	RTOMax      time.Duration // backoff cap
	RetryBudget int           // retransmissions per packet before the edge dies
	JitterSeed  uint64        // private backoff-jitter stream seed

	Abort <-chan struct{} // runtime teardown

	// Epoch, when non-nil, returns the sender's current epoch: positive
	// values are stamped into every (re)transmission and ACKs from older
	// epochs are fenced. Nil leaves the membership plane unarmed.
	Epoch func() int
	// Suppressed, when non-nil and true, makes sends vanish silently (a
	// crashed NI emits nothing) while still burning retry budget, so a
	// long crash exhausts the edge and triggers repair even before a
	// failure detector confirms.
	Suppressed func() bool
	// OnExhausted is called (once, from the sender goroutine) when a
	// packet spends its retry budget; the edge dies immediately after.
	OnExhausted func()
	// OnDead is called (once, from the sender goroutine) when the
	// transport fails with a genuine error — not an abort — killing the
	// incarnation. Repair machinery should treat it like exhaustion.
	OnDead func(error)
}

// EdgeSender is one reliable tree-edge incarnation: a dedicated sender
// goroutine owning the edge's transport, pending set and retransmission
// timers. Packets are sent serially in enqueue order (sequence order
// from a single parent), so a zero-fault plane reproduces the lossless
// engine's per-edge FIFO behavior exactly.
//
// Enqueue and Ack may be called from any goroutine; Run owns everything
// else. The counters are goroutine-owned: read them only after the
// runtime's WaitGroup drains (cancelled edges keep their counts — they
// happened).
type EdgeSender struct {
	tr     link.Transport
	cfg    EdgeSenderConfig
	in     chan int      // novel/replayed sequence numbers from the owning NI
	acks   chan EdgeAck  // from the receiving NI (lossy: overflow drops)
	cancel chan struct{} // closed by the supervisor to retire the incarnation
	jrng   *workload.RNG // backoff jitter stream

	acked       []bool
	sends       int
	retransmits int
	fenced      int // stale-epoch ACKs discarded
}

// NewEdgeSender builds an incarnation over the given transport. The
// caller starts the loop with go es.Run().
func NewEdgeSender(tr link.Transport, cfg EdgeSenderConfig) *EdgeSender {
	m := len(cfg.Packets)
	return &EdgeSender{
		tr:     tr,
		cfg:    cfg,
		in:     make(chan int, 2*m+8),
		acks:   make(chan EdgeAck, 4*m+16),
		cancel: make(chan struct{}),
		acked:  make([]bool, m),
		jrng:   workload.NewRNG(cfg.JitterSeed),
	}
}

// From and To name the edge after the underlying transport.
func (e *EdgeSender) From() int { return e.tr.From() }
func (e *EdgeSender) To() int   { return e.tr.To() }

// Enqueue hands a sequence number to the edge sender. Channel capacity
// covers the worst case (one replay plus one novel pass over the whole
// message), so this blocks only if that invariant is broken — and then
// the abort path still unwedges it.
func (e *EdgeSender) Enqueue(seq int) {
	select {
	case e.in <- seq:
	case <-e.cfg.Abort:
	}
}

// Ack delivers an acknowledgment without ever blocking the receiving
// NI; an overflowing (or retired) edge just loses the ACK, and the
// retransmission path recovers.
func (e *EdgeSender) Ack(a EdgeAck) {
	select {
	case e.acks <- a:
	default:
	}
}

// Cancel retires the incarnation. ReliableShare.Retire, on the
// supervisor's goroutine, takes the incarnation off its route before it
// cancels, so a given edge is cancelled at most once; Cancel must not
// race itself.
func (e *EdgeSender) Cancel() { close(e.cancel) }

// Sends, Retransmits and Fenced report the edge's counters. Call only
// after the sender goroutine has been joined.
func (e *EdgeSender) Sends() int       { return e.sends }
func (e *EdgeSender) Retransmits() int { return e.retransmits }
func (e *EdgeSender) Fenced() int      { return e.fenced }

// flight is one unacknowledged packet's retransmission state.
type flight struct {
	attempts int
	due      time.Time
}

// Run is the edge sender loop: send new sequences immediately (the
// transport's admission gate is the only send window), retransmit on
// timer with capped exponential backoff plus seeded jitter, retire on
// ACK, die on budget exhaustion or transport death (reporting either),
// cancel, or abort.
func (e *EdgeSender) Run() {
	inflight := map[int]*flight{}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		wake := time.Hour
		now := time.Now()
		for _, fl := range inflight {
			if r := fl.due.Sub(now); r < wake {
				wake = r
			}
		}
		if wake < 0 {
			wake = 0
		}
		rearm(timer, wake)

		select {
		case seq := <-e.in:
			if e.acked[seq] {
				continue
			}
			if _, dup := inflight[seq]; dup {
				continue
			}
			if !e.send(seq, false) {
				return
			}
			inflight[seq] = &flight{attempts: 1, due: time.Now().Add(e.rto(1))}
		case a := <-e.acks:
			if e.cfg.Epoch != nil && a.Epoch < e.cfg.Epoch() {
				e.fenced++ // stale control traffic: ignore, retransmit fresh
				continue
			}
			if a.Seq >= 0 && a.Seq < len(e.acked) && !e.acked[a.Seq] {
				e.acked[a.Seq] = true
				delete(inflight, a.Seq)
			}
		case <-timer.C:
			now := time.Now()
			for seq, fl := range inflight {
				if fl.due.After(now) {
					continue
				}
				if fl.attempts > e.cfg.RetryBudget {
					// Budget spent: this incarnation dies; the supervisor
					// repairs or abandons the subtree behind it.
					if e.cfg.OnExhausted != nil {
						e.cfg.OnExhausted()
					}
					return
				}
				if !e.send(seq, true) {
					return
				}
				fl.attempts++
				fl.due = now.Add(e.rto(fl.attempts))
			}
		case <-e.cancel:
			return
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

// send injects one (re)transmission, stamped with the current epoch when
// the membership plane is armed. A suppressed send vanishes silently but
// still burns retry budget. Returns false when the incarnation must die:
// on abort, or on a genuine transport error (reported via OnDead so the
// repair machinery routes around the dead link).
func (e *EdgeSender) send(seq int, retrans bool) bool {
	if e.cfg.Suppressed != nil && e.cfg.Suppressed() {
		return true
	}
	pkt := e.cfg.Packets[seq]
	if e.cfg.Epoch != nil {
		if g := e.cfg.Epoch(); g > 0 {
			if stamped, err := message.WithEpoch(pkt, uint16(g)); err == nil {
				pkt = stamped
			}
		}
	}
	if err := e.tr.Send(pkt, e.cfg.Abort); err != nil {
		if !errors.Is(err, link.ErrAborted) && e.cfg.OnDead != nil {
			e.cfg.OnDead(err)
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
