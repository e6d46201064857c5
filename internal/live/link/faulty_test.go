package link

import (
	"bytes"
	"testing"
	"time"
)

func TestFaultsValidate(t *testing.T) {
	bad := []Faults{
		{DropRate: 1},
		{CorruptRate: -0.1},
		{ReorderRate: 2},
		{AckDropRate: 1.5},
		{MaxJitter: -time.Millisecond},
		{Stalls: []StallWindow{{Host: -1, Until: time.Millisecond}}},
		{Stalls: []StallWindow{{Host: 0, From: 5, Until: 5}}},
		{Kills: []LinkKill{{From: 1, To: 1}}},
		{Kills: []LinkKill{{From: 0, To: 1, At: -time.Second}}},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: %+v accepted", i, f)
		}
		if _, err := NewChaos(f); err == nil {
			t.Errorf("case %d: NewChaos accepted %+v", i, f)
		}
	}
	ok := Faults{Seed: 1, DropRate: 0.5, CorruptRate: 0.1, ReorderRate: 0.1,
		AckDropRate: 0.2, MaxJitter: time.Millisecond,
		Stalls: []StallWindow{{Host: 2, From: 0, Until: time.Millisecond}},
		Kills:  []LinkKill{{From: 0, To: 1, At: time.Millisecond}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if ok.Zero() {
		t.Fatal("non-trivial plan reported Zero")
	}
	if !(Faults{Seed: 42}).Zero() {
		t.Fatal("seed-only plan should be Zero")
	}
}

func TestWrapZeroPlaneIsIdentity(t *testing.T) {
	in := NewInbox(1, 4, 0)
	l := New(0, in, 0)
	var nilChaos *Chaos
	if nilChaos.Wrap(l) != Transport(l) {
		t.Fatal("nil chaos must return the transport unchanged")
	}
	c, err := NewChaos(Faults{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if c.Wrap(l) != Transport(l) {
		t.Fatal("zero plane must return the transport unchanged")
	}
	c, _ = NewChaos(Faults{DropRate: 0.5})
	if c.Wrap(l) == Transport(l) {
		t.Fatal("armed plane must decorate the transport")
	}
}

// sendThrough pushes n one-byte frames through a fresh faulty edge and
// returns the sequence of payload bytes that survived to the inbox.
func sendThrough(t *testing.T, f Faults, n int) []byte {
	t.Helper()
	c, err := NewChaos(f)
	if err != nil {
		t.Fatal(err)
	}
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
	c, _ := NewChaos(Faults{Seed: 3, CorruptRate: 0.999999})
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
	if c.Stats().Corrupted != 1 {
		t.Fatalf("stats = %+v, want 1 corrupted", c.Stats())
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
	f := Faults{Seed: 1, Kills: []LinkKill{{From: 0, To: 1, At: 0}}}
	got := sendThrough(t, f, 5)
	if len(got) != 0 {
		t.Fatalf("killed edge delivered %v", got)
	}
	c, _ := NewChaos(f)
	in := NewInbox(1, 8, 0)
	tr := c.Wrap(New(0, in, 0))
	abort := make(chan struct{})
	for i := 0; i < 5; i++ {
		if err := tr.Send([]byte{byte(i)}, abort); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().DeadSends != 5 {
		t.Fatalf("stats = %+v, want 5 dead sends", c.Stats())
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
	c, _ := NewChaos(Faults{Seed: 1, Stalls: []StallWindow{{Host: 0, From: 0, Until: 30 * time.Millisecond}}})
	c.Start(time.Now())
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
	if c.Stats().StallWait == 0 {
		t.Fatal("stall wait not accounted")
	}
	if _, ok := in.Recv(abort); !ok {
		t.Fatal("stalled frame never arrived")
	}
}

func TestAckDropSampling(t *testing.T) {
	c, _ := NewChaos(Faults{Seed: 11, AckDropRate: 0.5})
	count := func() int {
		rng := c.AckRNG(3)
		n := 0
		for i := 0; i < 100; i++ {
			if c.AckDrop(rng) {
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
	var nilChaos *Chaos
	if nilChaos.AckDrop(nilChaos.AckRNG(3)) {
		t.Fatal("nil chaos dropped an ack")
	}
}

func TestFaultyAbortUnblocksJitterSleep(t *testing.T) {
	c, _ := NewChaos(Faults{Seed: 1, Stalls: []StallWindow{{Host: 0, From: 0, Until: time.Minute}}})
	c.Start(time.Now())
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
