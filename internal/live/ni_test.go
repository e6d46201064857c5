package live

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/live/link"
)

// TestShareDropsWhatItCannotServe drives one NI with a single buffer
// slot through a session's lifecycle: a frame that lands after its
// session's abort, and every frame of a session already removed, is
// dropped, counted by Dropped and its slot freed — a slot still held would
// wedge every later send to the host — and a second session through the
// same host then completes. A reliable session's frames are served in
// place, each freeing its slot before the next send needs it, and a frame
// of no session at all is dropped and counted. Host 0, every session's
// root, is outside the share: its frames come over a link of its own, as
// from a remote process.
func TestShareDropsWhatItCannotServe(t *testing.T) {
	s, err := NewShare([]int{1}, 0, DefaultQuantum, Config{BufferPackets: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	giveUp := make(chan struct{}) // the aborts of the sessions that must get through
	defer time.AfterFunc(10*time.Second, func() { close(giveUp) }).Stop()
	root := link.New(0, s.nis[1].inbox, 0)
	session := func(id uint32, data []byte) Session {
		return Session{Tree: chainTree(2), Packets: mustPacketize(t, id, 0, data), MsgID: id}
	}
	sendAll := func(e *Entry) {
		for j, pkt := range e.Packets {
			if err := root.Send(pkt, giveUp); err != nil {
				t.Fatalf("session %d packet %d: %v (a dropped frame kept its slot)", e.MsgID, j, err)
			}
		}
	}

	// Aborted while its frame waits on the wire for the NI to start.
	abort := make(chan struct{})
	aborted, err := s.Add(session(1, payloadBytes(100)), abort)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Send(aborted.Packets[0], abort); err != nil {
		t.Fatal(err)
	}
	close(abort)
	s.Start()

	removed, err := s.Add(session(2, payloadBytes(300)), giveUp)
	if err != nil {
		t.Fatal(err)
	}
	s.Remove(removed)
	sendAll(removed)

	data := payloadBytes(200)
	next, err := s.Add(session(3, data), giveUp)
	if err != nil {
		t.Fatal(err)
	}
	sendAll(next)
	select {
	case r := <-s.Reports():
		if r.Kind != ReportDone || r.Entry != next || r.Host != 1 || !bytes.Equal(next.Host(1).Data, data) {
			t.Fatalf("report %+v, %d bytes; want session 3 done at host 1, %d bytes", r, len(next.Host(1).Data), len(data))
		}
	case <-giveUp:
		t.Fatal("the session after the dropped ones never completed")
	}
	// The last send of session 3 needed the slot of session 2's last frame.
	if got, want := s.Dropped(), int64(1+len(removed.Packets)); got != want {
		t.Fatalf("Dropped() = %d, want %d", got, want)
	}
	if rec := removed.Host(1); rec.Recvs != 0 {
		t.Fatalf("removed session served %d frames", rec.Recvs)
	}

	// Host 1's ACKs leave through Remote, one per frame served.
	acks := make(chan Order, 8)
	rel, err := s.AddReliable(ReliableShareConfig{
		Tree:   chainTree(2),
		MsgID:  4,
		Edge:   EdgeSenderConfig{Packets: mustPacketize(t, 4, 0, payloadBytes(100))},
		Remote: func(o Order) { acks <- o },
	})
	if err != nil {
		t.Fatal(err)
	}
	served := func(j int) {
		t.Helper()
		select {
		case o := <-acks:
			if o.Kind != OrderAck || o.A != 1 || o.B != j {
				t.Fatalf("packet %d: order %+v, want host 1's ACK of it", j, o)
			}
		case <-giveUp:
			t.Fatalf("reliable packet %d was never served", j)
		}
	}
	pkts := rel.cfg.Edge.Packets
	if err := root.Send(pkts[0], giveUp); err != nil {
		t.Fatal(err)
	}
	if err := root.Send(pkts[1], giveUp); err != nil {
		t.Fatalf("reliable packet 1: %v (a served frame kept its slot)", err)
	}
	served(0)
	served(1)
	if err := root.Send(mustPacketize(t, 99, 0, payloadBytes(10))[0], giveUp); err != nil {
		t.Fatal(err)
	}
	if err := root.Send(pkts[2], giveUp); err != nil {
		t.Fatalf("reliable packet 2: %v (a dropped frame kept its slot)", err)
	}
	served(2)
	if got, want := s.Dropped(), int64(2+len(removed.Packets)); got != want {
		t.Fatalf("after a frame of no session, Dropped() = %d, want %d", got, want)
	}
}
