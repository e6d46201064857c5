package live

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/tree"
)

// chainTree builds 0 -> 1 -> ... -> n-1.
func chainTree(n int) *tree.Tree {
	t := tree.New(0)
	for v := 1; v < n; v++ {
		t.AddChild(v-1, v)
	}
	return t
}

// starTree builds 0 -> {1..n-1}.
func starTree(n int) *tree.Tree {
	t := tree.New(0)
	for v := 1; v < n; v++ {
		t.AddChild(0, v)
	}
	return t
}

func mustPacketize(t *testing.T, msgID uint32, source int, data []byte) [][]byte {
	t.Helper()
	pkts, err := message.Packetize(msgID, source, data, 64)
	if err != nil {
		t.Fatalf("Packetize: %v", err)
	}
	return pkts
}

func payloadBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 17)
	}
	return b
}

func TestSingleSessionByteExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *tree.Tree
		cfg  Config
	}{
		{"chain-unbounded", chainTree(5), Config{}},
		{"chain-1slot", chainTree(5), Config{BufferPackets: 1}},
		{"star-2slot", starTree(6), Config{BufferPackets: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := payloadBytes(300)
			pkts := mustPacketize(t, 9, 0, data)
			res, err := Run([]Session{{Tree: tc.tr, Packets: pkts, MsgID: 9}}, tc.cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			m := len(pkts)
			n := tc.tr.Size()
			if res.Sends != (n-1)*m {
				t.Fatalf("Sends = %d, want (n-1)*m = %d", res.Sends, (n-1)*m)
			}
			sr := res.Sessions[0]
			if sr.Latency <= 0 || sr.Latency != sr.FinishAt-sr.StartAt {
				t.Fatalf("latency %v inconsistent with span %v..%v", sr.Latency, sr.StartAt, sr.FinishAt)
			}
			if res.Wall < sr.FinishAt {
				t.Fatalf("session finish %v / wall %v inconsistent", sr.FinishAt, res.Wall)
			}
			for _, v := range tc.tr.Nodes() {
				rec := sr.Hosts[v]
				if v == tc.tr.Root() {
					if rec.Recvs != 0 || rec.Data != nil {
						t.Fatalf("root record polluted: %+v", rec)
					}
					continue
				}
				if rec.Recvs != m {
					t.Fatalf("host %d Recvs = %d, want %d", v, rec.Recvs, m)
				}
				if !bytes.Equal(rec.Data, data) {
					t.Fatalf("host %d reassembled %d bytes, want %d", v, len(rec.Data), len(data))
				}
				if rec.DoneAt <= 0 {
					t.Fatalf("host %d missing completion timestamp", v)
				}
				// In-order delivery from a serial parent over a FIFO link.
				parent, _ := tc.tr.Parent(v)
				for i, a := range rec.Arrivals {
					if a.Packet != i || a.From != parent {
						t.Fatalf("host %d arrival %d = %+v, want packet %d from %d", v, i, a, i, parent)
					}
				}
			}
		})
	}
}

func TestMultiSessionSharedNIs(t *testing.T) {
	// Two sessions with opposite roots over the same three hosts,
	// multiplexed on the same NIs. Unbounded buffers: no credit cycles.
	dataA := payloadBytes(200)
	dataB := payloadBytes(137)
	trA := chainTree(3) // 0 -> 1 -> 2
	trB := tree.New(2)  // 2 -> 1 -> 0
	trB.AddChild(2, 1)
	trB.AddChild(1, 0)
	sessions := []Session{
		{Tree: trA, Packets: mustPacketize(t, 1, 0, dataA), MsgID: 1},
		{Tree: trB, Packets: mustPacketize(t, 2, 2, dataB), MsgID: 2},
	}
	res, err := Run(sessions, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for si, want := range [][]byte{dataA, dataB} {
		sr := res.Sessions[si]
		for v, rec := range sr.Hosts {
			if v == sessions[si].Tree.Root() {
				continue
			}
			if !bytes.Equal(rec.Data, want) {
				t.Fatalf("session %d host %d delivered wrong bytes", si, v)
			}
			if rec.DoneAt > sr.FinishAt {
				t.Fatalf("session %d host %d done at %v after session finish %v", si, v, rec.DoneAt, sr.FinishAt)
			}
		}
		// Each session carries its own clock; the run wall spans both.
		if sr.Latency <= 0 || sr.Latency != sr.FinishAt-sr.StartAt {
			t.Fatalf("session %d latency %v inconsistent with span %v..%v", si, sr.Latency, sr.StartAt, sr.FinishAt)
		}
		if res.Wall < sr.FinishAt {
			t.Fatalf("session %d finish %v exceeds run wall %v", si, sr.FinishAt, res.Wall)
		}
	}
}

func TestDuplicateSessionTypedError(t *testing.T) {
	// Two sessions reusing one MsgID under *different* roots: MsgID is
	// the only session key at shared NIs, so this must be rejected with
	// the typed error even though the (root, MsgID) pairs differ.
	data := payloadBytes(100)
	trB := tree.New(2)
	trB.AddChild(2, 1)
	trB.AddChild(1, 0)
	_, err := Run([]Session{
		{Tree: chainTree(3), Packets: mustPacketize(t, 7, 0, data), MsgID: 7},
		{Tree: trB, Packets: mustPacketize(t, 7, 2, data), MsgID: 7},
	}, Config{})
	if !errors.Is(err, ErrDuplicateSession) {
		t.Fatalf("Run returned %v, want errors.Is(err, ErrDuplicateSession)", err)
	}
	var de *DuplicateSessionError
	if !errors.As(err, &de) {
		t.Fatalf("Run returned %T, want *DuplicateSessionError", err)
	}
	if de.MsgID != 7 || de.Index != 1 || de.Root != 2 {
		t.Fatalf("DuplicateSessionError = %+v, want MsgID 7 at index 1 root 2", de)
	}
}

func TestWatchdogReportsMissing(t *testing.T) {
	// The chain's first edge never takes a frame (its send parks until the
	// run aborts), so however short the timeout and however loaded the
	// box, the watchdog fires with every destination at 0 of m packets.
	data := payloadBytes(900)
	pkts := mustPacketize(t, 5, 0, data)
	nw := newWireNet()
	nw.block = true
	_, err := Run([]Session{{Tree: chainTree(8), Packets: pkts, MsgID: 5}},
		Config{Network: nw, Timeout: time.Millisecond})
	we, ok := err.(*WatchdogError)
	if !ok {
		t.Fatalf("Run returned %v, want *WatchdogError", err)
	}
	var want []DestProgress
	for v := 1; v < 8; v++ {
		want = append(want, DestProgress{Host: v, Received: 0, Expected: len(pkts)})
	}
	if !reflect.DeepEqual(we.Progress, map[int][]DestProgress{0: want}) {
		t.Fatalf("watchdog progress %v, want %v", we.Progress, want)
	}
}

func TestValidateRejectsBadSessions(t *testing.T) {
	data := payloadBytes(100)
	good := mustPacketize(t, 3, 0, data)
	tr := chainTree(3)
	cases := []struct {
		name     string
		sessions []Session
		cfg      Config
	}{
		{"empty", nil, Config{}},
		{"no-packets", []Session{{Tree: tr, MsgID: 3}}, Config{}},
		{"tiny-tree", []Session{{Tree: tree.New(0), Packets: good, MsgID: 3}}, Config{}},
		{"msgid-mismatch", []Session{{Tree: tr, Packets: good, MsgID: 4}}, Config{}},
		{"dup-msgid", []Session{
			{Tree: tr, Packets: good, MsgID: 3},
			{Tree: chainTree(3), Packets: good, MsgID: 3},
		}, Config{}},
		{"negative-buffer", []Session{{Tree: tr, Packets: good, MsgID: 3}}, Config{BufferPackets: -1}},
		{"negative-timeout", []Session{{Tree: tr, Packets: good, MsgID: 3}}, Config{Timeout: -time.Second}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.sessions, tc.cfg); err == nil {
				t.Fatal("Run accepted an invalid configuration")
			}
		})
	}
}

func TestRecordedEvents(t *testing.T) {
	data := payloadBytes(256)
	pkts := mustPacketize(t, 11, 0, data)
	tr := starTree(4)
	res, err := Run([]Session{{Tree: tr, Packets: pkts, MsgID: 11}}, Config{Record: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := len(pkts)
	kinds := map[string]int{}
	for i, ev := range res.Events {
		kinds[ev.Kind]++
		if i > 0 && res.Events[i-1].Time > ev.Time {
			t.Fatalf("events not time-sorted at %d", i)
		}
	}
	wantCopies := (tr.Size() - 1) * m
	if kinds["inject"] != wantCopies || kinds["deliver"] != wantCopies {
		t.Fatalf("recorded %d injects / %d delivers, want %d each", kinds["inject"], kinds["deliver"], wantCopies)
	}
	if kinds["done"] != tr.Size()-1 {
		t.Fatalf("recorded %d done events, want %d", kinds["done"], tr.Size()-1)
	}
}
