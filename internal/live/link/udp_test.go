package link

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/workload"
)

// mustLoopback builds a loopback fabric or skips the test in sandboxes
// that forbid even 127.0.0.1 sockets.
func mustLoopback(t *testing.T, hosts []int, cfg UDPConfig) *UDPNetwork {
	t.Helper()
	n, err := NewLoopbackUDP(hosts, cfg)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// TestDatagramRoundTrip is the codec property test: random headers and
// payloads encode and decode to themselves, for every kind and for
// payload sizes from empty through multi-KB.
func TestDatagramRoundTrip(t *testing.T) {
	rng := workload.NewRNG(0xD67A_0001)
	for i := 0; i < 2000; i++ {
		h := dgHeader{
			Kind:    uint8(dgData + rng.Intn(4)),
			From:    uint16(rng.Intn(1 << 16)),
			To:      uint16(rng.Intn(1 << 16)),
			Session: rng.Uint64(),
			Epoch:   uint32(rng.Uint64()),
			Seq:     uint32(rng.Uint64()),
		}
		h.Frags = uint16(1 + rng.Intn(1<<10))
		h.Frag = uint16(rng.Intn(int(h.Frags)))
		payload := make([]byte, rng.Intn(4096))
		for j := range payload {
			payload[j] = byte(rng.Uint64())
		}
		dg := appendDatagram(nil, h, payload)
		if len(dg) != dgHeaderSize+len(payload) {
			t.Fatalf("case %d: encoded %d bytes, want %d", i, len(dg), dgHeaderSize+len(payload))
		}
		got, gotPayload, err := decodeDatagram(dg)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		h.Length = uint16(len(payload))
		if got != h {
			t.Fatalf("case %d: header %+v round-tripped to %+v", i, h, got)
		}
		if !bytes.Equal(gotPayload, payload) {
			t.Fatalf("case %d: payload mutated in transit", i)
		}
	}
}

// TestDatagramAppendPreservesPrefix pins the append contract: encoding
// extends dst without touching its existing bytes.
func TestDatagramAppendPreservesPrefix(t *testing.T) {
	prefix := []byte("prefix")
	dg := appendDatagram(append([]byte{}, prefix...), dgHeader{Kind: dgCredit, Frags: 1}, nil)
	if !bytes.HasPrefix(dg, prefix) {
		t.Fatalf("appendDatagram clobbered the prefix: %q", dg[:len(prefix)])
	}
	if _, _, err := decodeDatagram(dg[len(prefix):]); err != nil {
		t.Fatalf("suffix does not decode: %v", err)
	}
}

// TestDatagramReject is the rejection table: every malformed shape the
// receive pump can see must decode to the right sentinel, never a panic
// or a silent accept.
func TestDatagramReject(t *testing.T) {
	good := appendDatagram(nil, dgHeader{
		Kind: dgData, From: 3, To: 4, Session: 77, Epoch: 9, Seq: 12, Frag: 1, Frags: 3,
	}, []byte("payload bytes"))

	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte{}, good...)
		return f(b)
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrBadDatagram},
		{"truncated-header", good[:dgHeaderSize-1], ErrBadDatagram},
		{"truncated-payload", good[:len(good)-4], ErrBadDatagram},
		{"oversized", make([]byte, maxDatagram+1), ErrBadDatagram},
		{"bad-magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadDatagram},
		{"wrong-version", mutate(func(b []byte) []byte {
			b[2] = DatagramVersion + 1
			return b
		}), ErrWrongVersion},
		{"version-zero", mutate(func(b []byte) []byte { b[2] = 0; return b }), ErrWrongVersion},
		{"unknown-kind", mutate(func(b []byte) []byte { b[3] = 9; return b }), ErrBadDatagram},
		{"kind-zero", mutate(func(b []byte) []byte { b[3] = 0; return b }), ErrBadDatagram},
		{"zero-frags", mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[26:28], 0)
			return b
		}), ErrBadDatagram},
		{"frag-beyond-count", mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[24:26], 3)
			return b
		}), ErrBadDatagram},
		{"length-lies", mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[28:30], 5)
			return b
		}), ErrBadDatagram},
		{"payload-flip", mutate(func(b []byte) []byte {
			b[len(b)-1] ^= 0x40
			return b
		}), ErrBadDatagram},
		{"header-flip", mutate(func(b []byte) []byte {
			b[9] ^= 0x01 // session byte: checksum must catch it
			return b
		}), ErrBadDatagram},
		{"checksum-flip", mutate(func(b []byte) []byte {
			b[31] ^= 0x80
			return b
		}), ErrBadDatagram},
	}
	for _, tc := range cases {
		if _, _, err := decodeDatagram(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// The mutations above must each have produced a *different* rejection
	// reason than simply rejecting everything: the good datagram decodes.
	if _, _, err := decodeDatagram(good); err != nil {
		t.Fatalf("control datagram rejected: %v", err)
	}
}

// sendRaw fires one raw datagram at a network endpoint, bypassing every
// transport-layer check — the adversarial path of the rejection tests.
func sendRaw(t *testing.T, to *net.UDPAddr, b []byte) {
	t.Helper()
	c, err := net.DialUDP("udp", nil, to)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Write(b); err != nil {
		t.Fatalf("raw write: %v", err)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestUDPRejectsForeignDatagrams pins the receiver-side filters: wrong
// session, wrong destination host, wrong version and truncated datagrams
// are counted and dropped, and none of them reaches the inbox.
func TestUDPRejectsForeignDatagrams(t *testing.T) {
	nw := mustLoopback(t, []int{0, 1}, UDPConfig{Session: 101})
	in := NewInbox(1, 8, 0)
	if err := nw.Attach(1, in); err != nil {
		t.Fatal(err)
	}
	defer nw.Detach(1)
	addr := nw.Addr(1)

	wrongSession := appendDatagram(nil, dgHeader{
		Kind: dgData, From: 0, To: 1, Session: 999, Frags: 1,
	}, []byte("other run"))
	wrongHost := appendDatagram(nil, dgHeader{
		Kind: dgData, From: 0, To: 7, Session: 101, Frags: 1,
	}, []byte("not for you"))
	wrongVersion := appendDatagram(nil, dgHeader{
		Kind: dgData, From: 0, To: 1, Session: 101, Frags: 1,
	}, []byte("future build"))
	wrongVersion[2] = DatagramVersion + 1

	sendRaw(t, addr, wrongSession)
	sendRaw(t, addr, wrongHost)
	sendRaw(t, addr, wrongVersion)
	sendRaw(t, addr, []byte("runt"))

	waitFor(t, 2*time.Second, func() bool {
		s := nw.Stats()
		return s.Foreign >= 2 && s.BadDatagrams >= 2
	}, "foreign/bad counters")
	select {
	case f := <-in.Wire():
		t.Fatalf("foreign datagram delivered: %+v", f)
	default:
	}
}

// TestUDPRoundTrip sends wire packets across a dialed edge — including
// one large enough to fragment — and checks byte-exact, in-order
// arrival with the sending host recorded on each frame.
func TestUDPRoundTrip(t *testing.T) {
	nw := mustLoopback(t, []int{4, 9}, UDPConfig{Session: 7, MTU: 256})
	in4 := NewInbox(4, 32, 0)
	in9 := NewInbox(9, 32, 0)
	if err := nw.Attach(4, in4); err != nil {
		t.Fatal(err)
	}
	defer nw.Detach(4)
	if err := nw.Attach(9, in9); err != nil {
		t.Fatal(err)
	}
	defer nw.Detach(9)

	tr, err := nw.Dial(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if tr.From() != 4 || tr.To() != 9 {
		t.Fatalf("edge identifies as %d->%d, want 4->9", tr.From(), tr.To())
	}
	abort := make(chan struct{})
	rng := workload.NewRNG(0xF00D)
	var want [][]byte
	for i := 0; i < 20; i++ {
		size := 1 + rng.Intn(1000) // spans 1..5 fragments at MTU 256
		if i == 0 {
			size = 0 // empty frame keeps its boundary
		}
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(rng.Uint64())
		}
		want = append(want, p)
	}
	done := make(chan error, 1)
	go func() {
		for _, p := range want {
			if err := tr.Send(p, abort); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i, p := range want {
		f, ok := in9.Recv(abort)
		if !ok {
			t.Fatalf("inbox closed after %d frames", i)
		}
		if f.From != 4 {
			t.Fatalf("frame %d records sender %d, want 4", i, f.From)
		}
		if !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d: %d bytes, want %d; corrupted in flight", i, len(f.Payload), len(p))
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if s := nw.Stats(); s.BadDatagrams != 0 || s.Resyncs != 0 || s.Overflow != 0 {
		t.Fatalf("lossless loopback counted drops: %+v", s)
	}
}

// TestUDPBackpressure pins the credit loop: with a one-slot receiver
// inbox and a two-fragment window, the third Send blocks until the
// receiver actually serves a packet — datagram flow control behaving
// like the in-process gate.
func TestUDPBackpressure(t *testing.T) {
	nw := mustLoopback(t, []int{0, 1}, UDPConfig{Session: 3, Window: 2})
	in0 := NewInbox(0, 4, 0)
	in1 := NewInbox(1, 1, 1) // one buffer slot: real admission pressure
	if err := nw.Attach(0, in0); err != nil {
		t.Fatal(err)
	}
	defer nw.Detach(0)
	if err := nw.Attach(1, in1); err != nil {
		t.Fatal(err)
	}
	defer nw.Detach(1)
	tr, err := nw.Dial(0, 1)
	if err != nil {
		t.Fatal(err)
	}

	abort := make(chan struct{})
	sent := make(chan int, 4)
	go func() {
		for i := 0; i < 4; i++ {
			if err := tr.Send([]byte{byte(i)}, abort); err != nil {
				return
			}
			sent <- i
		}
	}()
	// Frame 0 is admitted (the one slot) and credited; frames 1 and 2
	// queue uncredited — exactly the window. The fourth send must block:
	// its window check sees 2 uncredited fragments.
	waitFor(t, 2*time.Second, func() bool { return len(sent) >= 3 }, "first three sends")
	time.Sleep(100 * time.Millisecond) // long enough to send all 4 if unblocked
	if got := len(sent); got != 3 {
		t.Fatalf("%d sends completed against a stalled receiver, want exactly 3", got)
	}
	// Serve the queue: each Recv+Release frees a slot, credits flow back,
	// and the remaining sends complete.
	for i := 0; i < 4; i++ {
		f, ok := in1.Recv(abort)
		if !ok || len(f.Payload) != 1 || f.Payload[0] != byte(i) {
			t.Fatalf("frame %d wrong: %+v ok=%v", i, f, ok)
		}
		in1.Release()
	}
	waitFor(t, 2*time.Second, func() bool { return len(sent) == 4 }, "all sends")
}

// TestUDPSendAborts pins both abort paths of a blocked sender: the
// caller's abort channel, and a Detach of the sending host.
func TestUDPSendAborts(t *testing.T) {
	for _, mode := range []string{"abort-channel", "detach"} {
		t.Run(mode, func(t *testing.T) {
			nw := mustLoopback(t, []int{0, 1}, UDPConfig{Session: 5, Window: 1})
			in0 := NewInbox(0, 4, 0)
			in1 := NewInbox(1, 1, 1)
			if err := nw.Attach(0, in0); err != nil {
				t.Fatal(err)
			}
			defer nw.Detach(0)
			if err := nw.Attach(1, in1); err != nil {
				t.Fatal(err)
			}
			defer nw.Detach(1)
			tr, err := nw.Dial(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			abort := make(chan struct{})
			errc := make(chan error, 1)
			go func() {
				for i := 0; ; i++ {
					if err := tr.Send([]byte{byte(i)}, abort); err != nil {
						errc <- err
						return
					}
				}
			}()
			time.Sleep(30 * time.Millisecond) // let the sender hit the window
			if mode == "abort-channel" {
				close(abort)
			} else {
				nw.Detach(0)
			}
			select {
			case err := <-errc:
				if !errors.Is(err, ErrAborted) {
					t.Fatalf("blocked send returned %v, want ErrAborted", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("blocked send never aborted")
			}
		})
	}
}

// TestUDPTopologyErrors pins the provisioning error surface.
func TestUDPTopologyErrors(t *testing.T) {
	nw := mustLoopback(t, []int{0}, UDPConfig{Session: 1})
	if _, err := nw.Listen(0, "127.0.0.1:0"); err == nil {
		t.Fatal("duplicate Listen accepted")
	}
	if _, err := nw.Listen(1<<16, "127.0.0.1:0"); err == nil {
		t.Fatal("host beyond the header's 16-bit range accepted")
	}
	if _, err := nw.Dial(0, 1); err == nil {
		t.Fatal("dial from an unattached host accepted")
	}
	in := NewInbox(0, 4, 0)
	if err := nw.Attach(0, in); err != nil {
		t.Fatal(err)
	}
	if err := nw.Attach(0, NewInbox(0, 4, 0)); err == nil {
		t.Fatal("double attach accepted")
	}
	if _, err := nw.Dial(0, 99); err == nil {
		t.Fatal("dial to an unknown peer accepted")
	}
	if _, err := nw.Dial(5, 0); err == nil {
		t.Fatal("dial from a non-local host accepted")
	}
	nw.Detach(0)
	nw.Detach(0) // idempotent
	if err := nw.Attach(0, in); err != nil {
		t.Fatalf("re-attach after detach: %v", err)
	}
	nw.Detach(0)
	nw.Close()
	if err := nw.Attach(0, in); err == nil {
		t.Fatal("attach on a closed network accepted")
	}
	if _, err := NewUDPNetwork(UDPConfig{MTU: 10}); err == nil {
		t.Fatal("absurd MTU accepted")
	}
	if _, err := NewUDPNetwork(UDPConfig{Window: -1}); err == nil {
		t.Fatal("negative window accepted")
	}
}

// TestUDPCtlPlane round-trips daemon control datagrams between two
// endpoints, including the size guard.
func TestUDPCtlPlane(t *testing.T) {
	nw := mustLoopback(t, []int{2, 3}, UDPConfig{Session: 9})
	for _, h := range []int{2, 3} {
		if err := nw.Attach(h, NewInbox(h, 4, 0)); err != nil {
			t.Fatal(err)
		}
		defer nw.Detach(h)
	}
	// Both local hosts feed the one queue, each datagram tagged with
	// the host it was addressed to.
	for _, to := range []int{2, 3} {
		msg := []byte(fmt.Sprintf("DONE host=%d", 5-to))
		if err := nw.SendCtl(5-to, to, msg); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-nw.Ctl():
			if got.To != to || !bytes.Equal(got.Payload, msg) {
				t.Fatalf("ctl %d %q, want %d %q", got.To, got.Payload, to, msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("ctl datagram never arrived")
		}
	}
	if err := nw.SendCtl(2, 3, make([]byte, nw.cfg.MTU)); err == nil {
		t.Fatal("oversized ctl payload accepted")
	}
}

// TestUDPLostCreditRecovers proves the probe path: a credit datagram
// vanishing cannot wedge the sender, because a blocked sender probes and
// the receiver restates its cumulative count. The test simulates the
// loss by crediting out from under the transport (forcing its window
// shut) and watching the probe reopen it.
func TestUDPLostCreditRecovers(t *testing.T) {
	nw := mustLoopback(t, []int{0, 1}, UDPConfig{Session: 11, Window: 1})
	in0 := NewInbox(0, 4, 0)
	in1 := NewInbox(1, 8, 0)
	if err := nw.Attach(0, in0); err != nil {
		t.Fatal(err)
	}
	defer nw.Detach(0)
	if err := nw.Attach(1, in1); err != nil {
		t.Fatal(err)
	}
	defer nw.Detach(1)
	tr, err := nw.Dial(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ut := tr.(*UDPTransport)
	abort := make(chan struct{})
	if err := ut.Send([]byte("one"), abort); err != nil {
		t.Fatal(err)
	}
	f, ok := in1.Recv(abort)
	if !ok || string(f.Payload) != "one" {
		t.Fatalf("first frame: %+v ok=%v", f, ok)
	}
	// Pretend the credit for frame one was lost: roll the window back to
	// zero. The next Send must block, probe, receive the restated credit
	// and complete on its own.
	ut.credited.Store(0)
	done := make(chan error, 1)
	go func() { done <- ut.Send([]byte("two"), abort) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("send after lost credit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sender wedged: probe never recovered the lost credit")
	}
	if f, ok := in1.Recv(abort); !ok || string(f.Payload) != "two" {
		t.Fatalf("second frame: %+v ok=%v", f, ok)
	}
}

// TestUDPConfigDefaults pins the zero-value normalization.
func TestUDPConfigDefaults(t *testing.T) {
	cfg, err := UDPConfig{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MTU != DefaultUDPMTU || cfg.Window != DefaultUDPWindow {
		t.Fatalf("defaults: %+v", cfg)
	}
	if fmt.Sprint(cfg.Session) != "0" {
		t.Fatalf("session default mutated: %d", cfg.Session)
	}
}
