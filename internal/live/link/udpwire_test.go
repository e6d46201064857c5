package link

import (
	"bytes"
	"net"
	"slices"
	"testing"
	"time"
)

// rawSender plays the sending side of one edge incarnation (host 0 →
// host 1, incarnation 1) on a bare socket: hand-built datagrams out,
// credit datagrams decoded back. It is how the tests below see what the
// receiving endpoint says on the wire, not what a UDPTransport makes of it.
type rawSender struct {
	t       *testing.T
	c       *net.UDPConn
	to      *net.UDPAddr
	session uint64
	window  int
}

// newRawSender attaches in to host 1 of a fresh one-host fabric and
// returns a raw socket aimed at it.
func newRawSender(t *testing.T, window int, in *Inbox) *rawSender {
	t.Helper()
	const session = 0x5A1D
	nw := mustLoopback(t, []int{1}, UDPConfig{Session: session, Window: window})
	if err := nw.Attach(1, in); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nw.Detach(1) })
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawSender{t: t, c: c, to: nw.Addr(1), session: session, window: window}
}

// frag sends fragment frag of frags under absolute sequence seq.
func (s *rawSender) frag(seq uint32, frag, frags int, payload []byte) {
	s.t.Helper()
	dg := appendDatagram(nil, dgHeader{
		Kind: dgData, From: 0, To: 1, Session: s.session, Epoch: 1,
		Seq: seq, Frag: uint16(frag), Frags: uint16(frags),
	}, payload)
	if _, err := s.c.WriteToUDP(dg, s.to); err != nil {
		s.t.Fatalf("raw write: %v", err)
	}
}

// credit reads the next credit datagram's count; ok is false when none
// arrives within d.
func (s *rawSender) credit(d time.Duration) (count uint32, ok bool) {
	s.t.Helper()
	buf := make([]byte, maxDatagram)
	s.c.SetReadDeadline(time.Now().Add(d))
	n, _, err := s.c.ReadFromUDP(buf)
	if err != nil {
		return 0, false
	}
	h, _, err := decodeDatagram(buf[:n])
	if err != nil || h.Kind != dgCredit || h.From != 1 || h.To != 0 || h.Session != s.session || h.Epoch != 1 {
		s.t.Fatalf("receiver said %+v (err %v), want a credit for incarnation 1", h, err)
	}
	return h.Seq, true
}

// creditsThrough returns every credit said up to the one carrying last,
// plus whatever still follows it on a wire given 30 ms to go quiet.
func (s *rawSender) creditsThrough(last uint32) []uint32 {
	s.t.Helper()
	var said []uint32
	for len(said) == 0 || said[len(said)-1] != last {
		c, ok := s.credit(5 * time.Second)
		if !ok {
			s.t.Fatalf("credits %v, then silence: the count %d was never said", said, last)
		}
		said = append(said, c)
	}
	for {
		c, ok := s.credit(30 * time.Millisecond)
		if !ok {
			return said
		}
		said = append(said, c)
	}
}

// packet sends one frags-fragment packet starting at sequence seq the way
// a UDPTransport would — never more than the window ahead of the last
// credit — and returns the credits it heard. A sender that would have had
// to probe fails the test.
func (s *rawSender) packet(seq uint32, frags int, fill byte) (said []uint32) {
	s.t.Helper()
	credited := seq
	for f := 0; f < frags; f++ {
		for seq+uint32(f)-credited >= uint32(s.window) {
			c, ok := s.credit(5 * time.Second)
			if !ok {
				s.t.Fatalf("window shut after fragment %d with credits %v: only a probe would reopen it", f, said)
			}
			said = append(said, c)
			credited = max(credited, c)
		}
		s.frag(seq+uint32(f), f, frags, bytes.Repeat([]byte{fill}, 100))
	}
	return append(said, s.creditsThrough(seq+uint32(frags))...)
}

// recvPacket takes one delivered packet off the inbox and checks its shape.
func recvPacket(t *testing.T, in *Inbox, frags int, fill byte) {
	t.Helper()
	select {
	case f := <-in.Wire():
		if f.From != 0 || !bytes.Equal(f.Payload, bytes.Repeat([]byte{fill}, 100*frags)) {
			t.Fatalf("delivered %d bytes from host %d, want %d of %#x from host 0", len(f.Payload), f.From, 100*frags, fill)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("packet never delivered")
	}
}

// TestUDPCreditsSaid pins what the receiving endpoint says on the wire:
// a credit when the sender needs one, not one per fragment.
func TestUDPCreditsSaid(t *testing.T) {
	t.Run("packet-within-window", func(t *testing.T) {
		// Four fragments at window 16: nothing is said until the packet has
		// cleared the inbox gate, then one credit carries all four.
		in := NewInbox(1, 8, 0)
		s := newRawSender(t, 16, in)
		if said := s.packet(0, 4, 'a'); !slices.Equal(said, []uint32{4}) {
			t.Fatalf("credits said %v, want [4]", said)
		}
		recvPacket(t, in, 4, 'a')
	})
	t.Run("packet-longer-than-window", func(t *testing.T) {
		// 52 fragments at window 16: the pump says the count every half
		// window, which keeps the sender moving without a probe, and the
		// deliverer says the rest.
		in := NewInbox(1, 8, 0)
		s := newRawSender(t, 16, in)
		want := []uint32{8, 16, 24, 32, 40, 48, 52}
		if said := s.packet(0, 52, 'b'); !slices.Equal(said, want) {
			t.Fatalf("credits said %v, want %v", said, want)
		}
		recvPacket(t, in, 52, 'b')
	})
	t.Run("gap", func(t *testing.T) {
		// Fragment 1 of 4 is lost. The fragment after it exposes the gap
		// and the count (one arrived, one lost) is said at once — the
		// sender may be blocked on the lost one. The headless tail is
		// counted silently; the next whole packet says everything.
		in := NewInbox(1, 8, 0)
		s := newRawSender(t, 16, in)
		s.frag(0, 0, 4, []byte("head"))
		s.frag(2, 2, 4, []byte("tail"))
		s.frag(3, 3, 4, []byte("tail"))
		if said := s.creditsThrough(2); !slices.Equal(said, []uint32{2}) {
			t.Fatalf("credits said %v after a gap, want [2]", said)
		}
		if said := s.packet(4, 1, 'c'); !slices.Equal(said, []uint32{5}) {
			t.Fatalf("credits said %v after the gap's packet, want [5]", said)
		}
		recvPacket(t, in, 1, 'c')
	})
	t.Run("window-1", func(t *testing.T) {
		// Half of a one-fragment window is still one fragment: every
		// fragment is said, as it always was.
		in := NewInbox(1, 8, 0)
		s := newRawSender(t, 1, in)
		if said := s.packet(0, 3, 'd'); !slices.Equal(said, []uint32{1, 2, 3}) {
			t.Fatalf("credits said %v, want [1 2 3]", said)
		}
		recvPacket(t, in, 3, 'd')
	})
	t.Run("full-gate", func(t *testing.T) {
		// One buffer slot: the first packet takes it and is credited; the
		// second packet's final fragment stays uncounted until Release.
		in := NewInbox(1, 1, 1)
		s := newRawSender(t, 16, in)
		if said := s.packet(0, 2, 'e'); !slices.Equal(said, []uint32{2}) {
			t.Fatalf("credits said %v, want [2]", said)
		}
		s.frag(2, 0, 2, bytes.Repeat([]byte{'f'}, 100))
		s.frag(3, 1, 2, bytes.Repeat([]byte{'f'}, 100))
		if c, ok := s.credit(100 * time.Millisecond); ok {
			t.Fatalf("credit %d said while the inbox gate is full", c)
		}
		recvPacket(t, in, 2, 'e')
		in.Release()
		if said := s.creditsThrough(4); !slices.Equal(said, []uint32{4}) {
			t.Fatalf("credits said %v after Release, want [4]", said)
		}
		recvPacket(t, in, 2, 'f')
	})
}

// TestUDPPacketAllocations: a four-fragment packet sent, pumped,
// reassembled, delivered and credited over loopback costs its reassembly
// buffer and nothing per datagram — no peer address per read, no address
// conversion per write.
func TestUDPPacketAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates AllocsPerRun")
	}
	nw := mustLoopback(t, []int{0, 1}, UDPConfig{Session: 21})
	in1 := NewInbox(1, 8, 0)
	for h, in := range map[int]*Inbox{0: NewInbox(0, 8, 0), 1: in1} {
		if err := nw.Attach(h, in); err != nil {
			t.Fatal(err)
		}
		defer nw.Detach(h)
	}
	tr, err := nw.Dial(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ut := tr.(*UDPTransport)
	payload := make([]byte, 4*(DefaultUDPMTU-dgHeaderSize))
	abort := make(chan struct{})
	n := testing.AllocsPerRun(200, func() {
		if err := ut.Send(payload, abort); err != nil {
			t.Fatal(err)
		}
		if f, ok := in1.Recv(abort); !ok || len(f.Payload) != len(payload) {
			t.Fatalf("received %d bytes ok=%v", len(f.Payload), ok)
		}
		for ut.credited.Load() != ut.seq {
			time.Sleep(10 * time.Microsecond) // not Gosched: a spinning P starves the netpoller
		}
	})
	if n > 3 {
		t.Errorf("one 4-fragment packet over loopback allocates %v times, want <= 3", n)
	}
}

// TestUDPPeerByResolvedAddress pins the address form a peer is held in.
// A peer registered by "127.0.0.1:port" resolves to a 4-in-6 address
// (::ffff:127.0.0.1); written as is to an IPv4 socket it fails with
// "non-IPv4 address", which only the two-process daemon tests would see.
func TestUDPPeerByResolvedAddress(t *testing.T) {
	cfg := UDPConfig{Session: 46}
	a, b := mustLoopback(t, []int{0}, cfg), mustLoopback(t, []int{1}, cfg)
	if err := a.AddPeer(1, b.Addr(1).String()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(0, a.Addr(0).String()); err != nil {
		t.Fatal(err)
	}
	in1 := NewInbox(1, 4, 0)
	if err := a.Attach(0, NewInbox(0, 4, 0)); err != nil {
		t.Fatal(err)
	}
	defer a.Detach(0)
	if err := b.Attach(1, in1); err != nil {
		t.Fatal(err)
	}
	defer b.Detach(1)
	tr, err := a.Dial(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	abort := make(chan struct{})
	if err := tr.Send([]byte("across"), abort); err != nil {
		t.Fatalf("send to a peer added by address: %v", err)
	}
	if f, ok := in1.Recv(abort); !ok || string(f.Payload) != "across" {
		t.Fatalf("received %+v ok=%v", f, ok)
	}
	if err := a.SendCtl(0, 1, []byte("ctl")); err != nil {
		t.Fatalf("ctl to a peer added by address: %v", err)
	}
	select {
	case got := <-b.Ctl():
		if got.To != 1 || string(got.Payload) != "ctl" {
			t.Fatalf("ctl to %d, payload %q", got.To, got.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ctl datagram never arrived")
	}
}

// TestUDPDetachPromptReattachReads: the pump of an idle host sits in a
// read with no deadline, so Detach has to wake it — promptly — and the
// expired deadline it wakes it with must not outlive the detach, or the
// next attach's pump would exit on its first read.
func TestUDPDetachPromptReattachReads(t *testing.T) {
	nw := mustLoopback(t, []int{0, 1}, UDPConfig{Session: 64})
	if err := nw.Attach(0, NewInbox(0, 4, 0)); err != nil {
		t.Fatal(err)
	}
	defer nw.Detach(0)
	abort := make(chan struct{})
	fastest := time.Hour
	for cycle := 0; cycle < 5; cycle++ {
		in := NewInbox(1, 4, 0)
		if err := nw.Attach(1, in); err != nil {
			t.Fatalf("attach %d: %v", cycle, err)
		}
		tr, err := nw.Dial(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Send([]byte{byte(cycle)}, abort); err != nil {
			t.Fatal(err)
		}
		select {
		case f := <-in.Wire():
			if len(f.Payload) != 1 || f.Payload[0] != byte(cycle) {
				t.Fatalf("attach %d received %+v", cycle, f)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("attach %d never received: its pump is not reading", cycle)
		}
		time.Sleep(5 * time.Millisecond) // the pump is back in its read, idle
		start := time.Now()
		nw.Detach(1)
		fastest = min(fastest, time.Since(start))
	}
	// The fastest of five: one slow cycle on a loaded box is scheduling,
	// five are a pump that was not woken.
	if fastest >= 20*time.Millisecond {
		t.Fatalf("Detach of an idle host took %v at best, want < 20ms", fastest)
	}
}
