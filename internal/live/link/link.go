// Package link is the transport of the live multicast runtime: bounded,
// optionally latency-shaped point-to-point channels between network
// interfaces, plus the admission gate that turns a receiver's finite
// packet buffer into real sender-side backpressure.
//
// The model mirrors the event simulator's PR-3 semantics (admission
// reservation, see DESIGN.md §9) on real goroutines: a sender claims a
// slot of the receiving NI's buffer *before* the frame enters the wire,
// and blocks — backpressure — while the buffer is full. The receiver
// releases the slot only once the packet has been fully served (every
// child copy forwarded, local delivery done), so slot residency equals
// the paper's Section 3.3 buffer residency.
//
// Trees cannot deadlock under this discipline: every blocked-send chain
// ends at a leaf, which always drains. Cyclic link graphs with bounded
// buffers can — the classic store-and-forward credit cycle — which the
// package's deadlock test demonstrates and the runtime's watchdog
// surfaces (see DESIGN.md §11).
package link

import (
	"errors"
	"fmt"
	"time"
)

// ErrAborted is returned by blocking operations when their abort channel
// closes: a run's teardown, or one session's.
var ErrAborted = errors.New("link: aborted")

// Transport is one directed edge of a live multicast tree: something a
// sending NI can push wire-format packets into. *Link — an in-process
// channel with admission reservation — is the reference implementation;
// FaultyTransport decorates one with a seeded chaos plane. Send may block
// (backpressure) and must return ErrAborted once abort closes. A Transport
// is owned by a single sending goroutine; implementations need not be safe
// for concurrent Sends.
type Transport interface {
	From() int
	To() int
	Send(payload []byte, abort <-chan struct{}) error
}

// Frame is one wire-format packet in flight between two NIs.
type Frame struct {
	// From is the sending host — the tree edge actually used, recorded by
	// the receiver for the differential bridge (the multicast source lives
	// in the payload's message header, not here).
	From int
	// Payload is the encoded packet (internal/message wire format). It is
	// shared, not copied: receivers must treat it as read-only.
	Payload []byte

	readyAt time.Time // latency shaping: earliest delivery instant
}

// Wait blocks until the frame's latency stamp has elapsed. Receivers that
// drain the wire channel directly (Wire) instead of through Recv call it
// before serving the frame, so latency shaping is preserved. An unshaped
// frame carries no stamp and returns without reading the clock.
func (f Frame) Wait() {
	if f.readyAt.IsZero() {
		return
	}
	if wait := time.Until(f.readyAt); wait > 0 {
		time.Sleep(wait)
	}
}

// Gate is a counting semaphore over a receiver NI's packet-buffer slots.
// A nil *Gate means an unbounded buffer: Acquire and Release are no-ops.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a gate with n slots. n must be positive; use a nil
// *Gate for the unbounded case.
func NewGate(n int) *Gate {
	if n < 1 {
		panic(fmt.Sprintf("link: gate needs >= 1 slot, got %d", n))
	}
	return &Gate{slots: make(chan struct{}, n)}
}

// Acquire claims one buffer slot, blocking while the buffer is full.
// It returns ErrAborted if abort closes first.
func (g *Gate) Acquire(abort <-chan struct{}) error {
	if g == nil {
		return nil
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-abort:
		return ErrAborted
	}
}

// TryAcquire claims a slot without blocking, reporting success.
func (g *Gate) TryAcquire() bool {
	if g == nil {
		return true
	}
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release frees one previously acquired slot.
func (g *Gate) Release() {
	if g == nil {
		return
	}
	select {
	case <-g.slots:
	default:
		panic("link: Release without matching Acquire")
	}
}

// Inbox is the receiving side of an NI: a single fan-in wire shared by
// every inbound link of the host, plus the buffer gate senders reserve
// against. One goroutine (the NI) drains it; any number send into it.
type Inbox struct {
	host int
	gate *Gate
	wire chan Frame
}

// NewInbox builds the receive side of host's NI. capacity sizes the wire
// channel (it must be able to hold every reserved frame, so callers pass
// the buffer bound when one is set, or the total expected inbound frame
// count when unbounded). slots > 0 bounds the NI packet buffer; slots = 0
// means unbounded (no gate), mirroring sim.Params.NIBufferPackets.
func NewInbox(host, capacity, slots int) *Inbox {
	if capacity < 1 {
		capacity = 1
	}
	in := &Inbox{host: host, wire: make(chan Frame, capacity)}
	if slots > 0 {
		in.gate = NewGate(slots)
		if capacity < slots {
			// The wire must never block a sender that already holds a
			// reservation, or the gate's accounting and the channel's
			// would fight; size it to the bound.
			in.wire = make(chan Frame, slots)
		}
	}
	return in
}

// Recv blocks for the next frame, honoring each frame's latency stamp.
// ok is false once abort has fired.
func (in *Inbox) Recv(abort <-chan struct{}) (f Frame, ok bool) {
	select {
	case f = <-in.wire:
		f.Wait()
		return f, true
	case <-abort:
		return Frame{}, false
	}
}

// Wire exposes the receive channel for NIs that must select over frames
// and control traffic in one loop (the reliable runtime). Callers own the
// latency stamp: invoke Frame.Wait before serving, and Release after.
func (in *Inbox) Wire() <-chan Frame { return in.wire }

// Release frees one buffer slot after the NI has fully served a packet
// (all child copies sent, local delivery done).
func (in *Inbox) Release() { in.gate.Release() }

// Link is a directed edge from one host's NI to another's inbox —
// one multicast tree edge of one session. It is the reference Transport.
type Link struct {
	from    int
	to      *Inbox
	latency time.Duration
}

// New wires a link from host from to the given inbox with the given
// one-way latency (0 = unshaped).
func New(from int, to *Inbox, latency time.Duration) *Link {
	if to == nil {
		panic("link: nil inbox")
	}
	if latency < 0 {
		panic(fmt.Sprintf("link: negative latency %v", latency))
	}
	return &Link{from: from, to: to, latency: latency}
}

var _ Transport = (*Link)(nil)

// From returns the sending host; To the receiving host.
func (l *Link) From() int { return l.from }

// To returns the receiving host.
func (l *Link) To() int { return l.to.host }

// Send reserves a slot of the receiver's packet buffer (blocking while it
// is full — the backpressure), stamps the frame with the link latency and
// puts it on the wire. It returns ErrAborted if abort closes while the
// sender is stalled.
func (l *Link) Send(payload []byte, abort <-chan struct{}) error {
	if err := l.to.gate.Acquire(abort); err != nil {
		return err
	}
	f := Frame{From: l.from, Payload: payload}
	if l.latency > 0 {
		f.readyAt = time.Now().Add(l.latency)
	}
	select {
	case l.to.wire <- f:
		return nil
	case <-abort:
		// The abort may end one session on a fabric that outlives it.
		l.to.gate.Release()
		return ErrAborted
	}
}
