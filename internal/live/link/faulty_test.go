package link

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fault"
)

// wall is a wall clock, started at its time.
type wall time.Time

func (w wall) Now() time.Duration { return time.Since(time.Time(w)) }

// armed adapts a plan to the wall clock, failing the test on a bad plan.
func armed(t *testing.T, f Faults) *Chaos {
	t.Helper()
	st, err := f.Arm()
	if err != nil {
		t.Fatal(err)
	}
	return NewChaos(st, wall(time.Now()))
}

func TestWrapZeroPlaneIsIdentity(t *testing.T) {
	in := NewInbox(1, 4, 0)
	l := New(0, in, 0)
	var nilChaos *Chaos
	if nilChaos.Wrap(l) != Transport(l) {
		t.Fatal("nil chaos must return the transport unchanged")
	}
	if armed(t, Faults{Seed: 7, AckDropRate: 0.5}).Wrap(l) != Transport(l) {
		t.Fatal("a plane that leaves transmissions alone must return the transport unchanged")
	}
	c := armed(t, Faults{DropRate: 0.5})
	if c.Wrap(l) == Transport(l) {
		t.Fatal("armed plane must decorate the transport")
	}
}

// sendThrough pushes n one-byte frames through a fresh faulty edge and
// returns the sequence of payload bytes that survived to the inbox.
func sendThrough(t *testing.T, f Faults, n int) []byte {
	t.Helper()
	c := armed(t, f)
	in := NewInbox(1, n+4, 0)
	tr := c.Wrap(New(0, in, 0))
	abort := make(chan struct{})
	for i := 0; i < n; i++ {
		if err := tr.Send([]byte{byte(i)}, abort); err != nil {
			t.Fatal(err)
		}
	}
	// Every surviving frame is on the wire once Send returns.
	var got []byte
	for len(in.Wire()) > 0 {
		got = append(got, (<-in.Wire()).Payload[0])
	}
	return got
}

func TestFaultyDropIsDeterministic(t *testing.T) {
	f := Faults{Seed: 99, DropRate: 0.4}
	a := sendThrough(t, f, 200)
	b := sendThrough(t, f, 200)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different drop patterns")
	}
	if len(a) == 200 || len(a) == 0 {
		t.Fatalf("drop rate 0.4 delivered %d/200 frames", len(a))
	}
	if bytes.Equal(a, sendThrough(t, Faults{Seed: 100, DropRate: 0.4}, 200)) {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

func TestFaultyCorruptFlipsOneByte(t *testing.T) {
	st, _ := Faults{Seed: 3, CorruptRate: 0.999999}.Arm()
	c := NewChaos(st, wall(time.Now()))
	in := NewInbox(1, 2, 0)
	tr := c.Wrap(New(0, in, 0))
	abort := make(chan struct{})
	orig := []byte{10, 20, 30, 40}
	if err := tr.Send(orig, abort); err != nil {
		t.Fatal(err)
	}
	fr, _ := in.Recv(abort)
	if bytes.Equal(fr.Payload, orig) {
		t.Fatal("corruption did not damage the frame")
	}
	diff := 0
	for i := range orig {
		if fr.Payload[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bytes, want exactly 1", diff)
	}
	if !bytes.Equal(orig, []byte{10, 20, 30, 40}) {
		t.Fatal("corruption mutated the caller's buffer")
	}
	if st.Stats().Corrupted != 1 {
		t.Fatalf("stats = %+v, want 1 corrupted", st.Stats())
	}
}

func TestFaultyReorderSwapsAdjacentFrames(t *testing.T) {
	// Rate ~1: every odd send is held and swapped with the next one, so
	// A B C D arrives as B A D C.
	got := sendThrough(t, Faults{Seed: 5, ReorderRate: 0.999999}, 4)
	if !bytes.Equal(got, []byte{1, 0, 3, 2}) {
		t.Fatalf("reorder produced %v, want [1 0 3 2]", got)
	}
}

func TestFaultyKillEatsFrames(t *testing.T) {
	f := Faults{Seed: 1, Kills: []fault.Kill{{Link: fault.Pair, From: 0, To: 1, At: 0}}}
	got := sendThrough(t, f, 5)
	if len(got) != 0 {
		t.Fatalf("killed edge delivered %v", got)
	}
	st, _ := f.Arm()
	c := NewChaos(st, wall(time.Now()))
	in := NewInbox(1, 8, 0)
	tr := c.Wrap(New(0, in, 0))
	abort := make(chan struct{})
	for i := 0; i < 5; i++ {
		if err := tr.Send([]byte{byte(i)}, abort); err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats().DeadSends != 5 {
		t.Fatalf("stats = %+v, want 5 dead sends", st.Stats())
	}
	// Other directed pairs are unaffected.
	in2 := NewInbox(2, 8, 0)
	tr2 := c.Wrap(New(0, in2, 0))
	if err := tr2.Send([]byte{7}, abort); err != nil {
		t.Fatal(err)
	}
	if fr, ok := in2.Recv(abort); !ok || fr.Payload[0] != 7 {
		t.Fatal("kill of 0->1 leaked onto 0->2")
	}
}

func TestFaultyStallDelaysSend(t *testing.T) {
	st, _ := Faults{Seed: 1, Stalls: []fault.Stall{{Host: 0, From: 0, Until: 30_000}}}.Arm()
	c := NewChaos(st, wall(time.Now()))
	in := NewInbox(1, 2, 0)
	tr := c.Wrap(New(0, in, 0))
	abort := make(chan struct{})
	t0 := time.Now()
	if err := tr.Send([]byte{1}, abort); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(t0); el < 10*time.Millisecond {
		t.Fatalf("stalled send completed in %v", el)
	}
	if st.Stats().StallWait == 0 {
		t.Fatal("stall wait not accounted")
	}
	if _, ok := in.Recv(abort); !ok {
		t.Fatal("stalled frame never arrived")
	}
}

func TestAckDropSampling(t *testing.T) {
	c := armed(t, Faults{Seed: 11, AckDropRate: 0.5})
	count := func() int {
		acks := c.st.Acks(3)
		n := 0
		for i := 0; i < 100; i++ {
			if acks.AckLost() {
				n++
			}
		}
		return n
	}
	a := count()
	if a == 0 || a == 100 {
		t.Fatalf("ack drop rate 0.5 dropped %d/100", a)
	}
	if b := count(); a != b {
		t.Fatalf("same stream produced different drop counts: %d vs %d", a, b)
	}
	var lossless *fault.State
	if acks := lossless.Acks(3); acks.AckLost() {
		t.Fatal("the lossless plane dropped an ack")
	}
}

func TestFaultyAbortUnblocksJitterSleep(t *testing.T) {
	c := armed(t, Faults{Seed: 1, Stalls: []fault.Stall{{Host: 0, From: 0, Until: 60e6}}})
	in := NewInbox(1, 2, 0)
	tr := c.Wrap(New(0, in, 0))
	abort := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- tr.Send([]byte{1}, abort) }()
	time.Sleep(2 * time.Millisecond)
	close(abort)
	select {
	case err := <-done:
		if err != ErrAborted {
			t.Fatalf("aborted stalled send returned %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("stalled send ignored abort")
	}
}
