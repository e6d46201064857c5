package link

import (
	"sync"
	"time"

	"repro/internal/fault"
)

// Faults is the plan of the live chaos plane: the one fault plane's plan
// (package fault), whose times are microseconds from the plane's start.
// A live fabric kills directed host pairs (fault.Pair), not links.
type Faults = fault.Plan

// Chaos is the wall-clock adapter of one run's armed fault plane, shared
// by every transport of a fabric: stall windows become sleeps, and each
// transport draws loss, corruption, jitter and reordering from its edge
// incarnation's stream (fault.State.Edge), generations numbered per
// directed pair in dial order. Each edge sender owns its transport, so the
// streams need no locking; the state's counters are atomic. A nil *Chaos
// is the lossless plane: Wrap returns transports unchanged and its ACK
// streams never lose anything.
type Chaos struct {
	st    *fault.State
	start time.Time

	mu  sync.Mutex
	gen map[[2]int]int // per-pair dial count: the next incarnation's generation
}

// NewChaos adapts an armed plane to the wall clock, which starts at
// time-of-call; Start rebases it (the runtime calls Start at t0 so stall
// and kill offsets align with its own timeline).
func NewChaos(st *fault.State) *Chaos {
	return &Chaos{st: st, start: time.Now(), gen: map[[2]int]int{}}
}

// Start rebases the plane's wall clock. Call before any traffic flows;
// the field is read without synchronization afterwards.
func (c *Chaos) Start(t time.Time) {
	if c != nil {
		c.start = t
	}
}

// Acks returns host's ACK-loss stream, for the receiving NI goroutine
// that owns it.
func (c *Chaos) Acks(host int) fault.Stream {
	if c == nil {
		return fault.Stream{}
	}
	return c.st.Acks(host)
}

// Wrap decorates a transport with this fault plane. A nil plane, or one
// that leaves transmissions alone, returns t unchanged — the lossless fast
// path stays byte-identical to the reference fabric. Each (from, to)
// redial is the pair's next generation, with a fresh, decorrelated stream,
// so a repaired edge does not replay its predecessor's loss pattern.
func (c *Chaos) Wrap(t Transport) Transport {
	if c == nil || c.st.Quiet() {
		return t
	}
	key := [2]int{t.From(), t.To()}
	c.mu.Lock()
	gen := c.gen[key]
	c.gen[key]++
	c.mu.Unlock()
	return &FaultyTransport{c: c, inner: t, loss: c.st.Edge(t.From(), t.To(), gen)}
}

// FaultyTransport decorates a Transport with the armed chaos plane:
// frame drop, single-byte corruption, hold-one reordering, bounded delay
// jitter, sender stall windows and scheduled kills. Like every Transport
// it is owned by one sending goroutine.
type FaultyTransport struct {
	c     *Chaos
	inner Transport
	loss  fault.Stream
	held  []byte // reorder: frame held back to swap with the next send
}

var _ Transport = (*FaultyTransport)(nil)

// From returns the sending host; To the receiving host.
func (ft *FaultyTransport) From() int { return ft.inner.From() }

// To returns the receiving host.
func (ft *FaultyTransport) To() int { return ft.inner.To() }

// Send pushes one frame through the fault plane. Injected faults are
// silent: a dropped, eaten or held frame still returns nil, because a
// real NI cannot tell either. Only an abort surfaces as an error.
func (ft *FaultyTransport) Send(payload []byte, abort <-chan struct{}) error {
	st := ft.c.st
	now := float64(time.Since(ft.c.start)) / float64(time.Microsecond)
	if d := st.StallDelay(ft.From(), now); d > 0 {
		if err := sleepAbort(time.Duration(d*float64(time.Microsecond)), abort); err != nil {
			return err
		}
		now += d
	}
	frames := 1
	if ft.held != nil {
		frames++
	}
	if st.PairDead(ft.From(), ft.To(), now, frames) {
		// The edge is dead: this frame and any held one are eaten.
		ft.held = nil
		return nil
	}
	drop, bad := ft.loss.Transmit(len(payload))
	if drop {
		return nil
	}
	if bad >= 0 {
		payload = append([]byte(nil), payload...)
		payload[bad] ^= 0xA5
	}
	if err := sleepAbort(ft.loss.Delay(), abort); err != nil {
		return err
	}
	if ft.held != nil {
		// A frame is being held back: deliver the new one first, then
		// flush the held one — the two swap places on the wire.
		if err := ft.inner.Send(payload, abort); err != nil {
			return err
		}
		h := ft.held
		ft.held = nil
		return ft.inner.Send(h, abort)
	}
	if ft.loss.Hold() {
		ft.held = payload
		return nil
	}
	return ft.inner.Send(payload, abort)
}

// Pattern returns what the transport's loss stream has decided so far.
func (ft *FaultyTransport) Pattern() fault.Pattern { return ft.loss.Pattern() }

// sleepAbort sleeps d, returning ErrAborted early if abort closes.
func sleepAbort(d time.Duration, abort <-chan struct{}) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-abort:
		return ErrAborted
	}
}
