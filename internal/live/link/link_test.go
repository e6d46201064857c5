package link

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSendRecvRoundTrip(t *testing.T) {
	in := NewInbox(7, 4, 0)
	l := New(3, in, 0)
	if l.From() != 3 || l.To() != 7 {
		t.Fatalf("link endpoints = %d->%d, want 3->7", l.From(), l.To())
	}
	abort := make(chan struct{})
	payload := []byte{0xde, 0xad}
	if err := l.Send(payload, abort); err != nil {
		t.Fatalf("Send: %v", err)
	}
	f, ok := in.Recv(abort)
	if !ok {
		t.Fatal("Recv reported an abort")
	}
	if f.From != 3 || string(f.Payload) != string(payload) {
		t.Fatalf("got frame from %d payload %v", f.From, f.Payload)
	}
	close(abort)
	if _, ok := in.Recv(abort); ok {
		t.Fatal("Recv on an empty wire after the abort should report !ok")
	}
}

func TestGateBoundsAdmission(t *testing.T) {
	g := NewGate(2)
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("two slots should be free")
	}
	if g.TryAcquire() {
		t.Fatal("third acquire should fail on a 2-slot gate")
	}
	g.Release()
	if !g.TryAcquire() {
		t.Fatal("released slot should be reusable")
	}
	// Unbounded (nil) gate never blocks.
	var ub *Gate
	if !ub.TryAcquire() {
		t.Fatal("nil gate should admit freely")
	}
	ub.Release()
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire should panic")
		}
	}()
	NewGate(1).Release()
}

func TestSendBlocksUntilRelease(t *testing.T) {
	in := NewInbox(1, 1, 1)
	l := New(0, in, 0)
	abort := make(chan struct{})
	if err := l.Send([]byte{1}, abort); err != nil {
		t.Fatalf("first Send: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- l.Send([]byte{2}, abort) }()
	select {
	case err := <-done:
		t.Fatalf("second Send completed (%v) despite a full 1-slot buffer", err)
	case <-time.After(20 * time.Millisecond):
	}
	// Serve the first frame; the blocked sender must proceed.
	if _, ok := in.Recv(abort); !ok {
		t.Fatal("Recv failed")
	}
	in.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unblocked Send: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send still blocked after the slot was released")
	}
}

func TestAbortUnblocksSender(t *testing.T) {
	in := NewInbox(1, 1, 1)
	l := New(0, in, 0)
	abort := make(chan struct{})
	if err := l.Send([]byte{1}, abort); err != nil {
		t.Fatalf("first Send: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- l.Send([]byte{2}, abort) }()
	time.Sleep(10 * time.Millisecond)
	close(abort)
	select {
	case err := <-done:
		if err != ErrAborted {
			t.Fatalf("aborted Send returned %v, want ErrAborted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send ignored the abort")
	}
	// After abort, Recv may still surface the frame already on the wire
	// (select picks among ready cases), but once the wire is drained it
	// must report !ok instead of blocking.
	if _, ok := in.Recv(abort); ok {
		if _, ok := in.Recv(abort); ok {
			t.Fatal("Recv delivered more frames than were sent on an aborted run")
		}
	}
}

func TestLatencyShaping(t *testing.T) {
	const lat = 30 * time.Millisecond
	in := NewInbox(1, 1, 0)
	l := New(0, in, lat)
	abort := make(chan struct{})
	start := time.Now()
	if err := l.Send([]byte{1}, abort); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, ok := in.Recv(abort); !ok {
		t.Fatal("Recv failed")
	}
	if got := time.Since(start); got < lat {
		t.Fatalf("frame delivered after %v, shaped latency is %v", got, lat)
	}
}

// TestCyclicBackpressureDeadlocks demonstrates the store-and-forward
// credit cycle the package documentation warns about: three NIs with
// 1-slot buffers wired in a ring, each holding its only slot while
// blocked on the next hop's full buffer. No progress is possible; the
// watchdog (here, the test's timer) is the only way out, and the abort
// channel must unblock every participant cleanly.
func TestCyclicBackpressureDeadlocks(t *testing.T) {
	const n = 3
	abort := make(chan struct{})
	inboxes := make([]*Inbox, n)
	for i := range inboxes {
		inboxes[i] = NewInbox(i, 1, 1)
	}
	links := make([]*Link, n)
	for i := range links {
		links[i] = New(i, inboxes[(i+1)%n], 0)
	}
	// Fill every buffer: each NI's single slot is now occupied by a frame
	// from its ring predecessor.
	for i, l := range links {
		if err := l.Send([]byte{byte(i)}, abort); err != nil {
			t.Fatalf("priming send %d: %v", i, err)
		}
	}
	// Every NI now "serves" its frame by forwarding downstream before
	// releasing its own slot — the FPFS service order. All three block
	// acquiring the next hop's slot: a credit cycle.
	errs := make(chan error, n)
	for i := range inboxes {
		go func(i int) {
			f, ok := inboxes[i].Recv(abort)
			if !ok {
				errs <- ErrAborted
				return
			}
			err := links[i].Send(f.Payload, abort) // blocks: next buffer full
			if err == nil {
				inboxes[i].Release()
			}
			errs <- err
		}(i)
	}
	// Watchdog: nothing may complete while the cycle holds.
	select {
	case err := <-errs:
		t.Fatalf("a ring NI made progress (%v); the credit cycle should deadlock", err)
	case <-time.After(100 * time.Millisecond):
	}
	// The watchdog's abort must unblock all three cleanly.
	close(abort)
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err != ErrAborted {
				t.Fatalf("ring NI returned %v after abort, want ErrAborted", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("ring NI still blocked after abort")
		}
	}
}

// Satellite: Gate abort semantics under concurrency — many senders blocked
// on a full gate, abort closes while others release. No slot may leak and
// no Release may double-free (which panics).
func TestGateConcurrentAbortNoSlotLeak(t *testing.T) {
	const slots, senders = 4, 32
	g := NewGate(slots)
	for i := 0; i < slots; i++ {
		if !g.TryAcquire() {
			t.Fatal("gate should start empty")
		}
	}
	abort := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- g.Acquire(abort)
		}()
	}
	time.Sleep(10 * time.Millisecond) // let every sender block on the full gate
	close(abort)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != ErrAborted {
			t.Fatalf("blocked Acquire on a full gate returned %v, want ErrAborted", err)
		}
	}
	// No leak: after releasing the original holders, exactly `slots` slots
	// are acquirable — not one more, not one fewer.
	for i := 0; i < slots; i++ {
		g.Release()
	}
	for i := 0; i < slots; i++ {
		if !g.TryAcquire() {
			t.Fatalf("slot %d leaked after concurrent abort", i)
		}
	}
	if g.TryAcquire() {
		t.Fatal("aborted Acquire left a phantom slot")
	}
}

// The racy variant: releases and the abort fire concurrently, so some
// blocked senders win a slot and some abort. Accounting must balance
// exactly and never double-release.
func TestGateAbortRaceWithReleases(t *testing.T) {
	const slots, senders = 2, 24
	g := NewGate(slots)
	for i := 0; i < slots; i++ {
		g.TryAcquire()
	}
	abort := make(chan struct{})
	var wg sync.WaitGroup
	var won atomic.Int64
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g.Acquire(abort) == nil {
				won.Add(1)
			}
		}()
	}
	go func() {
		for i := 0; i < slots; i++ {
			g.Release() // hand the initial slots to blocked senders
		}
	}()
	time.Sleep(5 * time.Millisecond)
	close(abort)
	wg.Wait()
	// Every winner holds a real slot: release them all, then the gate must
	// hold exactly `slots` free slots again.
	for i := int64(0); i < won.Load(); i++ {
		g.Release()
	}
	for i := 0; i < slots; i++ {
		if !g.TryAcquire() {
			t.Fatalf("slot %d leaked (won=%d)", i, won.Load())
		}
	}
	if g.TryAcquire() {
		t.Fatal("phantom slot after abort race")
	}
}

// Senders blocked inside Link.Send (gate full) must all come back with
// ErrAborted or success when abort races the receiver's drain loop.
func TestSendAbortWhileBlocked(t *testing.T) {
	in := NewInbox(9, 2, 2)
	abort := make(chan struct{})
	const senders = 16
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for i := 0; i < senders; i++ {
		l := New(100+i, in, 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- l.Send([]byte{1}, abort)
		}()
	}
	go func() {
		time.Sleep(2 * time.Millisecond)
		close(abort)
	}()
	// Drain like an NI until the abort lands.
	for {
		f, ok := in.Recv(abort)
		if !ok {
			break
		}
		_ = f
		in.Release()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && err != ErrAborted {
			t.Fatalf("Send returned %v", err)
		}
	}
}

// An aborted Send returns the slot it reserved: the abort may end one
// session on a fabric that outlives it, so a leaked slot would shrink the
// receiver's buffer for good.
func TestAbortedSendReleasesItsSlot(t *testing.T) {
	const slots = 4
	in := NewInbox(5, slots, slots)
	l := New(1, in, 0)
	abort := make(chan struct{})
	close(abort)
	for i := 0; i < 64; i++ {
		// Either side of each select may win, the slot or the abort and
		// then the wire or the abort; serve what reached the wire, as an
		// NI would.
		switch err := l.Send([]byte{byte(i)}, abort); err {
		case nil:
			<-in.Wire()
			in.Release()
		case ErrAborted:
		default:
			t.Fatalf("Send %d returned %v", i, err)
		}
	}
	for i := 0; i < slots; i++ {
		if !in.gate.TryAcquire() {
			t.Fatalf("aborted sends leaked %d of %d slots", slots-i, slots)
		}
	}
}

// countingNet is a Network that refuses to attach one host and records
// who is attached.
type countingNet struct {
	refuse   int
	attached map[int]bool
}

func (n *countingNet) Attach(host int, in *Inbox) error {
	if host == n.refuse {
		return errors.New("no socket")
	}
	n.attached[host] = true
	return nil
}
func (n *countingNet) Detach(host int)                      { delete(n.attached, host) }
func (n *countingNet) Dial(from, to int) (Transport, error) { return nil, errors.New("not dialed") }

func TestAttachAll(t *testing.T) {
	inboxes := map[int]*Inbox{}
	for v := 0; v < 5; v++ {
		inboxes[v] = NewInbox(v, 1, 0)
	}
	nw := &countingNet{refuse: -1, attached: map[int]bool{}}
	detach, err := AttachAll(nw, inboxes)
	if err != nil || len(nw.attached) != 5 {
		t.Fatalf("AttachAll = %v with %d hosts attached, want all 5", err, len(nw.attached))
	}
	if detach(); len(nw.attached) != 0 {
		t.Fatalf("detach left %v attached", nw.attached)
	}
	// One refusal rolls back whichever hosts were attached before it.
	nw.refuse = 3
	if _, err := AttachAll(nw, inboxes); err == nil || !strings.Contains(err.Error(), "host 3") || len(nw.attached) != 0 {
		t.Fatalf("AttachAll with host 3 refused = %v, %v still attached; want an error naming it and nobody attached", err, nw.attached)
	}
	// No network is the in-process fabric: nothing to do, nothing to undo.
	detach, err = AttachAll(nil, nil)
	if err != nil {
		t.Fatalf("AttachAll(nil) = %v", err)
	}
	detach()
}
