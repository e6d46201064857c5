package link

import (
	"sync"
	"time"

	"repro/internal/fault"
)

// Faults is the plan of the live chaos plane: the one fault plane's plan
// (package fault), whose times are microseconds on the run's Clock.
// A live fabric kills directed host pairs (fault.Pair), not links.
type Faults = fault.Plan

// Clock is one run's clock, the time since its start: on the wall, or in a
// virtual driver's time. A run has one, which all its parts read.
type Clock interface{ Now() time.Duration }

// US converts d to microseconds, the fault plane's and detector's unit.
func US(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Chaos is one run's armed fault plane, shared by every transport of a
// fabric: each transport draws loss, corruption, jitter and reordering
// from its edge incarnation's stream (fault.State.Edge), generations
// numbered per directed pair in dial order, and reads stall and kill
// times on the run's clock. Each edge sender owns its transport, so the
// streams need no locking; the state's counters are atomic. A nil *Chaos
// is the lossless plane: Wrap returns transports unchanged.
type Chaos struct {
	st    *fault.State
	clock Clock

	mu  sync.Mutex
	gen map[[2]int]int // per-pair dial count: the next incarnation's generation
}

// NewChaos adapts an armed plane (nil: lossless) to the run's clock.
func NewChaos(st *fault.State, clock Clock) *Chaos {
	return &Chaos{st: st, clock: clock, gen: map[[2]int]int{}}
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

// Send pushes one frame through the fault plane: it sleeps the verdict's
// wait, then sends what leaves. Injected faults are silent: a dropped,
// eaten or held frame still returns nil, because a real NI cannot tell
// either. Only an abort surfaces as an error.
func (ft *FaultyTransport) Send(payload []byte, abort <-chan struct{}) error {
	wait, first, second := ft.Verdict(payload, ft.c.clock.Now())
	if err := sleepAbort(wait, abort); err != nil || first == nil {
		return err
	}
	if err := ft.inner.Send(first, abort); err != nil || second == nil {
		return err
	}
	return ft.inner.Send(second, abort)
}

// Verdict decides what becomes of a frame offered at at, in the plane's
// one order: a stall window holds the sender first; a killed pair then
// eats the frame and any held back; else the edge's stream drops it or
// damages a byte, and draws its jitter and whether it is held back. The
// sender waits wait, stall and jitter, before first leaves, then second:
// nothing, the frame, or the frame and the one held back before it.
func (ft *FaultyTransport) Verdict(payload []byte, at time.Duration) (wait time.Duration, first, second []byte) {
	st, now := ft.c.st, US(at)
	if d := st.StallDelay(ft.From(), now); d > 0 {
		wait, now = time.Duration(d*float64(time.Microsecond)), now+d
	}
	frames := 1
	if ft.held != nil {
		frames++
	}
	if st.PairDead(ft.From(), ft.To(), now, frames) {
		ft.held = nil
		return wait, nil, nil
	}
	if payload = ft.Transmit(payload); payload == nil {
		return wait, nil, nil
	}
	wait += ft.loss.Delay()
	if ft.held != nil {
		// The held frame leaves after the new one: the two swap places.
		first, second, ft.held = payload, ft.held, nil
		return wait, first, second
	}
	if ft.loss.Hold() {
		ft.held = payload
		return wait, nil, nil
	}
	return wait, payload, nil
}

// Transmit draws one transmission of payload from the edge's stream: nil
// when it is dropped, else the frame, a copy with one damaged byte when it
// is corrupted.
func (ft *FaultyTransport) Transmit(payload []byte) []byte {
	drop, bad := ft.loss.Transmit(len(payload))
	if drop {
		return nil
	}
	if bad >= 0 {
		payload = append([]byte(nil), payload...)
		payload[bad] ^= 0xA5
	}
	return payload
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
