package mcastd

import (
	"errors"
	"net"
	"testing"

	"repro/internal/live/link"
	"repro/internal/reliable"
)

// FuzzCtl hammers the ctl decoder with arbitrary bytes: it must never
// panic, must reject unknown kinds and truncated payloads, and whatever
// it accepts must encode and decode back to itself (trailing bytes are
// the only non-canonical input). The checked-in corpus under
// testdata/fuzz seeds truncations — among them STOP without its epoch or
// its status byte — unknown kinds and trailing bytes.
func FuzzCtl(f *testing.F) {
	for _, fr := range []ctlFrame{
		{kind: ctlDone, a: 5},
		{kind: ctlStop, a: 7, status: reliable.DeliveredPartial},
		{kind: ctlAck, a: 3, b: 17, c: 2},
		{kind: ctlExhausted, a: ctlFieldMax, b: 0, c: ctlFieldMax},
	} {
		b, err := fr.encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, ok := decodeCtl(b)
		if !ok {
			return
		}
		if ctlLen[fr.kind] == 0 {
			t.Fatalf("accepted unknown kind %d", fr.kind)
		}
		if len(b) < ctlLen[fr.kind] {
			t.Fatalf("accepted %d-byte payload of kind %d", len(b), fr.kind)
		}
		re, err := fr.encode(nil)
		if err != nil {
			t.Fatalf("decoded frame %+v does not encode: %v", fr, err)
		}
		back, ok := decodeCtl(re)
		if !ok || back != fr {
			t.Fatalf("round trip %+v -> %x -> %+v (ok=%v)", fr, re, back, ok)
		}
	})
}

// Every in-range frame of every kind survives encode∘decode, and a field
// one past either end of the 16-bit space is rejected with a *RangeError
// instead of aliasing onto a valid value.
func TestCtlCodec(t *testing.T) {
	for kind, n := range ctlLen {
		if n == 0 {
			if _, err := (ctlFrame{kind: byte(kind)}).encode(nil); err == nil {
				t.Fatalf("unknown kind %d encoded", kind)
			}
			continue
		}
		for _, v := range []int{0, 1, 0x1234, ctlFieldMax} {
			fr := ctlFrame{kind: byte(kind), a: v}
			if n == 7 {
				fr.b, fr.c = ctlFieldMax-v, v/2
			}
			if kind == ctlStop {
				fr.status = reliable.Failed
			}
			b, err := fr.encode(nil)
			if err != nil {
				t.Fatalf("kind %d value %d: %v", kind, v, err)
			}
			if got, ok := decodeCtl(b); !ok || got != fr {
				t.Fatalf("kind %d: %+v round-tripped to %+v (ok=%v)", kind, fr, got, ok)
			}
		}
		for _, bad := range []int{-1, ctlFieldMax + 1, 1 << 20} {
			_, err := ctlFrame{kind: byte(kind), a: bad}.encode(nil)
			var re *RangeError
			if !errors.As(err, &re) || re.Value != bad {
				t.Fatalf("kind %d field %d: err = %v, want *RangeError", kind, bad, err)
			}
		}
	}
	if _, ok := decodeCtl([]byte{ctlAck, 0, 1, 0, 2, 0}); ok {
		t.Fatal("truncated ACK accepted")
	}
	// STOP has one shape: an epoch and a status byte.
	for _, short := range [][]byte{{ctlStop}, {ctlStop, 0}, {ctlStop, 0, 7}} {
		if fr, ok := decodeCtl(short); ok {
			t.Fatalf("short STOP %x accepted as %+v", short, fr)
		}
	}
}

// TestSendCtlAllocations pins one allocation per ctl frame sent: the frame
// is encoded on the stack and copied into the datagram, the one buffer.
// The peer is a bare socket nobody reads, so no receive pump allocates
// while the sends are counted.
func TestSendCtlAllocations(t *testing.T) {
	skipWithoutLoopback(t)
	if raceEnabled {
		t.Skip("allocation budgets are not measurable under -race")
	}
	nw, err := link.NewUDPNetwork(link.UDPConfig{Session: 0xC7A})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if _, err := nw.Listen(0, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := nw.AddPeer(1, peer.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Net: nw}
	for _, f := range []ctlFrame{{kind: ctlAck, a: 0, b: 5, c: 1}, {kind: ctlStop, a: 2, status: reliable.Failed}} {
		if n := testing.AllocsPerRun(50, func() { cfg.sendCtl(0, 1, f) }); n > 1 {
			t.Fatalf("sendCtl of kind %d: %.1f allocations per frame, want <= 1", f.kind, n)
		}
	}
}
