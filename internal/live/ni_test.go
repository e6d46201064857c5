package live

import (
	"bytes"
	"testing"
	"time"
)

// TestPlainShareDropsWhatItCannotServe drives one NI with a single buffer
// slot through a session's lifecycle: a frame that lands after its
// session's abort, and every frame of a session already removed, is
// dropped, counted by Dropped and its slot freed — a slot still held would
// wedge every later send to the host — and a second session through the
// same host then completes.
func TestPlainShareDropsWhatItCannotServe(t *testing.T) {
	s, err := NewPlainShare([]int{0, 1}, 0, DefaultQuantum, Config{BufferPackets: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	giveUp := make(chan struct{}) // the aborts of the sessions that must get through
	defer time.AfterFunc(10*time.Second, func() { close(giveUp) }).Stop()
	session := func(id uint32, data []byte) Session {
		return Session{Tree: chainTree(2), Packets: mustPacketize(t, id, 0, data), MsgID: id}
	}
	sendAll := func(e *Entry) {
		for j := range e.Packets {
			if err := e.Send(j); err != nil {
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
	if err := aborted.Send(0); err != nil {
		t.Fatal(err)
	}
	close(abort)
	s.Start(time.Now())

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
	case d := <-s.Done():
		if d.Entry != next || d.Host != 1 || !bytes.Equal(next.Host(1).Data, data) {
			t.Fatalf("delivery %d@%d, %d bytes; want session 3 at host 1, %d bytes", d.Entry.MsgID, d.Host, len(d.Entry.Host(d.Host).Data), len(data))
		}
	case f := <-s.Failed():
		t.Fatalf("session %d failed: %v", f.Entry.MsgID, f.Err)
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
}
