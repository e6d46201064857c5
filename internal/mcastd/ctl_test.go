package mcastd

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/tree"
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
		if fr.status < reliable.Delivered || fr.status > reliable.Failed {
			t.Fatalf("accepted undefined STOP status %d", fr.status)
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
	// STOP has one shape: an epoch and a status byte naming a verdict
	// reliable.Status defines.
	for _, bad := range [][]byte{{ctlStop}, {ctlStop, 0}, {ctlStop, 0, 7}, {ctlStop, 0, 1, byte(reliable.Failed) + 1}, {ctlStop, 0, 1, 9}} {
		if fr, ok := decodeCtl(bad); ok {
			t.Fatalf("malformed STOP %x accepted as %+v", bad, fr)
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

// TestOneCtlListenerPerProcess: a daemon process reads its fabric's one
// ctl queue in one place, however many hosts it runs. Each arm runs one
// process with three local hosts of the tree 0-1-2-3 against a scripted
// peer on a second fabric holding the fourth, waits for the ctl frame that
// shows the process coordinating, and counts the goroutines whose stacks
// are in listenCtl: one in a plain or a reliable root's process, none in
// a reliable follower's, whose destLoop reads the queue itself. The peer
// then ends the run with the frames the protocol expects.
func TestOneCtlListenerPerProcess(t *testing.T) {
	skipWithoutLoopback(t)
	tr := tree.Binomial([]int{0, 1, 2, 3})
	pkts, err := message.Packetize(1, 0, testPayload(100), 64)
	if err != nil {
		t.Fatal(err)
	}
	listeners := func() int {
		buf := make([]byte, 1<<16)
		for {
			if n := runtime.Stack(buf, true); n < len(buf) {
				return strings.Count(string(buf[:n]), "mcastd.listenCtl(")
			}
			buf = make([]byte, 2*len(buf))
		}
	}
	for i, arm := range []struct {
		name     string
		local    []int
		peer     int
		reliable bool
		want     int
	}{
		{"plain-root", []int{0, 1, 2}, 3, false, 1},
		{"reliable-root", []int{0, 1, 2}, 3, true, 1},
		{"reliable-follower", []int{1, 2, 3}, 0, true, 0},
	} {
		t.Run(arm.name, func(t *testing.T) {
			nw, nwPeer := daemonPair(t, 0x1C7+uint64(i), arm.local, []int{arm.peer})
			if err := nwPeer.Attach(arm.peer, link.NewInbox(arm.peer, 4*len(pkts)+16, 0)); err != nil {
				t.Fatal(err)
			}
			peer := Config{Net: nwPeer}
			// await returns once the process has sent the peer a frame of kind.
			await := func(kind byte) {
				t.Helper()
				deadline := time.After(10 * time.Second)
				for {
					select {
					case c := <-nwPeer.Ctl():
						if f, ok := decodeCtl(c.Payload); ok && f.kind == kind {
							return
						}
					case <-deadline:
						t.Fatalf("no ctl frame of kind %d reached the peer", kind)
					}
				}
			}
			cfg := Config{Tree: tr, Packets: pkts, MsgID: 1, Local: arm.local, Net: nw, Timeout: 20 * time.Second}
			done := make(chan error, 1)
			go func() {
				var err error
				if arm.reliable {
					_, err = RunReliable(cfg, ReliableConfig{})
				} else {
					_, err = Run(cfg)
				}
				done <- err
			}()
			if arm.peer == tr.Root() {
				await(ctlBeat) // sent by a follower's destLoop
			} else {
				peer.sendCtl(arm.peer, tr.Root(), ctlFrame{kind: ctlDone, a: arm.peer})
				await(ctlDoneAck) // sent by a root's listener
			}
			if got := listeners(); got != arm.want {
				t.Errorf("%d goroutines in listenCtl mid-run, want %d", got, arm.want)
			}
			if arm.peer == tr.Root() {
				peer.sendCtl(arm.peer, arm.local[0], ctlFrame{kind: ctlStop, a: 1, status: reliable.Delivered})
			} else {
				await(ctlStop)
				peer.sendCtl(arm.peer, tr.Root(), ctlFrame{kind: ctlStopAck, a: arm.peer})
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}
