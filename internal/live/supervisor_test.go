package live

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/live/link"
	"repro/internal/membership"
	"repro/internal/message"
	"repro/internal/tree"
)

// remoteSupervisor builds the root process's supervisor of the chain
// 0-1-2-3 over a share that runs the hosts in local (the root among them),
// on a fabric that dials and delivers nothing, with a detector whose
// timeouts are exact (16 ms to suspicion, 12 more to confirmation) and the
// given chaos plane (nil: none). What the share sends out of the process
// is recorded; orders() returns what was sent since the last call. Nothing
// runs the supervisor or the NIs: the tests call their handlers, so no
// clock is read and nothing sleeps.
func remoteSupervisor(t *testing.T, local []int, chaos *link.Chaos) (s *Supervisor, nw *wireNet, orders func() []string) {
	t.Helper()
	tr := tree.New(0)
	for v := 1; v < 4; v++ {
		tr.AddChild(v-1, v)
	}
	nw = newWireNet()
	var log []string
	plane, err := NewShare(local, 0, DefaultQuantum, Config{Network: nw})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plane.Stop)
	share, err := plane.AddReliable(ReliableShareConfig{
		Tree:  tr,
		MsgID: 3,
		Chaos: chaos,
		Edge:  EdgeSenderConfig{Packets: mustPacketize(t, 3, 0, payloadBytes(200)), RTO: time.Minute, RTOMax: time.Minute, RetryBudget: 3},
		Remote: func(o Order) {
			switch o.Kind {
			case OrderGraft:
				log = append(log, fmt.Sprintf("graft %d>%d @%d", o.A, o.B, o.Epoch))
			case OrderKill:
				log = append(log, fmt.Sprintf("kill %d>%d @%d", o.A, o.B, o.Epoch))
			case OrderEpoch:
				log = append(log, fmt.Sprintf("epoch %d to %d", o.Epoch, o.To))
			case OrderAck:
				log = append(log, fmt.Sprintf("ack %d<%d #%d @%d", o.A, o.To, o.B, o.Epoch))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hb := HeartbeatParams{SuspectAfter: 16 * time.Millisecond, ConfirmAfter: 12 * time.Millisecond}
	det, err := hb.NewDetector(1, tr.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	s = NewSupervisor(share, SupervisorConfig{
		Det:         det,
		MaxRegrafts: 4,
		Refresh:     time.Second,
		Timeout:     time.Minute,
	})
	return s, nw, func() []string { got := log; log = nil; return got }
}

// TestSupervisorRemoteOrders drives the root process's supervisor, the
// path the daemon reaches over real sockets, through its handlers: what
// the share runs it does itself, what another process runs it orders.
func TestSupervisorRemoteOrders(t *testing.T) {
	ms := func(n float64) float64 { return n * 1000 } // detector microseconds
	expect := func(t *testing.T, what string, got []string, want ...string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: orders %q, want %q", what, got, want)
		}
	}

	t.Run("a remote graft is re-sent each refresh until a retire supersedes it; a remote retire is one kill", func(t *testing.T) {
		s, nw, orders := remoteSupervisor(t, []int{0}, nil)
		// 1->2 dies. Its pair is dead, so 2 falls back to a root edge, the
		// share's to dial; 3 follows 2 on an edge out of host 2's process.
		s.handle(Report{Kind: ReportExhausted, Host: 1, To: 2})
		expect(t, "exhausted 1->2", orders(), "kill 1>2 @1", "kill 2>3 @1", "graft 2>3 @1")
		if nw.count("dial 0->2") != 1 {
			t.Fatalf("the root's new edge to 2 was not dialed: %q", nw.calls)
		}
		for i := 0; i < 2; i++ {
			s.refresh()
			expect(t, "refresh", orders(), "graft 2>3 @1")
		}
		// The ordered edge dies too: its retire is one kill, and 3 falls
		// back to the root.
		s.handle(Report{Kind: ReportExhausted, Host: 2, To: 3})
		expect(t, "exhausted 2->3", orders(), "kill 2>3 @1")
		if nw.count("dial 0->3") != 1 {
			t.Fatalf("the root's new edge to 3 was not dialed: %q", nw.calls)
		}
		s.refresh()
		expect(t, "refresh after the retire", orders())
	})

	t.Run("an epoch advance is announced at once, and again each refresh", func(t *testing.T) {
		s, _, orders := remoteSupervisor(t, []int{0}, nil)
		s.refresh()
		expect(t, "refresh at the initial epoch", orders())
		det := s.cfg.Det
		for _, h := range []int{0, 1, 2} {
			det.Witness(h, ms(30))
		}
		// Host 3, silent since 0, is suspected at 16 ms and confirmed at 28.
		s.fold(det.Advance(ms(40)))
		expect(t, "confirmed 3", orders(), "kill 2>3 @2", "epoch 2 to 1", "epoch 2 to 2")
		if s.share.Epoch() != 2 || len(s.Views()) != 2 {
			t.Fatalf("epoch register %d, %d views; want 2 and 2", s.share.Epoch(), len(s.Views()))
		}
		for i := 0; i < 2; i++ {
			s.refresh()
			expect(t, "refresh", orders(), "epoch 2 to 1", "epoch 2 to 2")
		}
	})

	t.Run("the stranded sweep grafts an alive, incomplete, parentless host under the root", func(t *testing.T) {
		s, nw, orders := remoteSupervisor(t, []int{0}, nil)
		det := s.cfg.Det
		for _, h := range []int{0, 2, 3} {
			det.Witness(h, ms(20))
		}
		det.Witness(0, ms(40))
		det.Witness(3, ms(40))
		// Host 1 is confirmed at 28 ms while host 2, heard at 20, is Suspect
		// from 36: the adoption takes 3 and leaves 2 without a parent.
		s.fold(det.Advance(ms(40)))
		expect(t, "confirmed 1", orders(), "kill 1>2 @2", "kill 2>3 @2", "epoch 2 to 3")
		if p := s.brain.Parent(2); p != -1 {
			t.Fatalf("suspect host 2 hangs off %d after its parent's confirmation, want no parent", p)
		}
		// 2 turns out to be alive.
		s.fold(det.Heartbeat(2, ms(45)))
		s.refresh()
		expect(t, "refresh", orders(), "epoch 2 to 2", "epoch 2 to 3")
		if p := s.brain.Parent(2); p != 0 || nw.count("dial 0->2") != 1 {
			t.Fatalf("after the sweep host 2 hangs off %d (%d dials of 0->2), want the root's new edge", p, nw.count("dial 0->2"))
		}
	})

	// serve hands host to's NI packet seq from host from, stamped with the
	// share's epoch so it passes the fence, and returns the edge from->to
	// the share runs (nil: none).
	serve := func(t *testing.T, s *Supervisor, from, to, seq int) *EdgeSender {
		t.Helper()
		pkt, err := message.WithEpoch(s.share.cfg.Edge.Packets[seq], uint16(s.share.Epoch()))
		if err != nil {
			t.Fatal(err)
		}
		s.share.NI(to).serve(link.Frame{From: from, Payload: pkt})
		return s.share.Route(to, from)
	}

	t.Run("an ACK to a local parent marks its incarnation and never leaves the process", func(t *testing.T) {
		s, _, orders := remoteSupervisor(t, []int{0, 1, 2, 3}, nil)
		for v := 1; v < 4; v++ {
			for seq := range s.share.cfg.Edge.Packets {
				if e := serve(t, s, v-1, v, seq); e == nil || !e.acked[seq].Load() {
					t.Fatalf("host %d's ACK of packet %d from its local parent did not mark edge %d->%d", v, seq, v-1, v)
				}
			}
		}
		s.handle(Report{Kind: ReportExhausted, Host: 1, To: 2})
		s.refresh()
		expect(t, "an all-local share", orders())
	})

	t.Run("a lost ACK marks nothing and is counted", func(t *testing.T) {
		// The highest rate the plane accepts: every ACK is lost.
		faults, err := fault.Plan{Seed: 5, AckDropRate: math.Nextafter(1, 0)}.Arm()
		if err != nil {
			t.Fatal(err)
		}
		chaos := link.NewChaos(faults)
		// Host 1's parent runs here, host 3's elsewhere.
		s, _, orders := remoteSupervisor(t, []int{0, 1, 3}, chaos)
		if e := serve(t, s, 0, 1, 0); e == nil || e.acked[0].Load() {
			t.Fatalf("a lost ACK marked edge 0->1 (%v)", e)
		}
		serve(t, s, 2, 3, 1)
		if got := faults.Stats().AcksDropped; got != 2 {
			t.Fatalf("chaos counted %d lost ACKs, want 2", got)
		}
		expect(t, "a lost ACK to a remote parent", orders())
	})

	t.Run("an ACK to a remote parent leaves through the sink once, as an ACK order", func(t *testing.T) {
		s, _, orders := remoteSupervisor(t, []int{0, 2}, nil)
		if e := serve(t, s, 1, 2, 2); e != nil {
			t.Fatalf("the share runs remote host 1's edge to 2: %v", e)
		}
		expect(t, "host 2 acknowledges packet 2 from remote host 1", orders(), "ack 2<1 #2 @1")
		serve(t, s, 1, 2, 2) // a duplicate is acknowledged again
		expect(t, "the duplicate", orders(), "ack 2<1 #2 @1")
	})
}

// TestInProcessLivenessIsTheSchedule: the supervisor witnesses every host
// of its share that the crash schedule says is up, so a second in which
// no host was heard from confirms only the host that is down — not, as
// when only the root was witnessed and the rest had to beat, every host
// the starved process could not beat for.
func TestInProcessLivenessIsTheSchedule(t *testing.T) {
	s, _, _ := remoteSupervisor(t, []int{0, 1, 2, 3}, nil)
	s.share.cfg.Down = func(host int, _ time.Duration) bool { return host == 2 }
	s.start = time.Now().Add(-time.Second)
	s.witness()
	s.fold(s.cfg.Det.Advance(us(time.Second)))
	for v := 0; v < 4; v++ {
		if crashed := s.cfg.Det.Phase(v) == membership.Crashed; crashed != (v == 2) {
			t.Fatalf("host %d confirmed crashed: %v; want exactly the down host 2", v, crashed)
		}
	}
}

// stallScript replays, on no clock but its own, what a loaded box did to
// TestReliableCrashStopAdoption: six hosts beat every 3 ms, host 2 dies
// at 4 ms, and from 54 ms to 915 ms the whole process — supervisor and
// NIs alike — gets no CPU. It feeds the detector the way Supervisor.Run does
// (catch the clock up to the armed deadline before handling anything,
// judge at the deadline when it passes) and returns the hosts confirmed
// crashed. With catchUp false the clock is the wall, as it was before
// stallClock.
func stallScript(t *testing.T, catchUp bool) map[int]bool {
	t.Helper()
	const every = 3 * time.Millisecond
	hb := HeartbeatParams{SuspectAfter: 10 * time.Millisecond, ConfirmAfter: 8 * time.Millisecond}
	hosts := []int{0, 1, 2, 3, 4, 5}
	det, err := hb.NewDetector(11, hosts)
	if err != nil {
		t.Fatal(err)
	}
	var clock stallClock
	confirmed := map[int]bool{}
	note := func(evs []membership.Event) {
		for _, ev := range evs {
			if ev.Kind == membership.Confirmed {
				confirmed[ev.Host] = true
			}
		}
	}
	// wake is the supervisor coming round at wall offset w: overdue time comes
	// off the clock, and a deadline that has passed is judged.
	wake := func(w time.Duration) {
		dl, _ := det.NextDeadline()
		deadline := time.Duration(dl * float64(time.Microsecond))
		if catchUp {
			clock.catchUp(w, deadline)
		}
		if clock.at(w) >= deadline {
			note(det.Advance(max(dl, us(clock.at(w)))))
		}
	}
	for w := time.Duration(0); w < 1000*time.Millisecond; w += every {
		if w > 54*time.Millisecond && w < 915*time.Millisecond {
			continue // starved: nobody beats, nobody listens
		}
		wake(w)
		for _, h := range hosts {
			if h == 2 && w >= 4*time.Millisecond {
				continue
			}
			note(det.Heartbeat(h, us(clock.at(w))))
		}
	}
	return confirmed
}

// TestStalledObserverConfirmsNobody pins the failure detector's fourth
// countermeasure without a timer: a supervisor that was away for 860 ms — far
// longer than both windows — comes back to a detector that confirms only
// the host that really stopped beating. Measured on the wall clock the
// same script confirms the whole tree, which is how the crash tests lost
// their survivors to MaxRegrafts under -race on a loaded 2-vCPU box.
func TestStalledObserverConfirmsNobody(t *testing.T) {
	if got := stallScript(t, true); len(got) != 1 || !got[2] {
		t.Fatalf("confirmed %v after a stalled observer caught up, want only the dead host 2", got)
	}
	if got := stallScript(t, false); len(got) < 5 {
		t.Fatalf("the script is too gentle: on the wall clock it confirms only %v", got)
	}
}

func TestStallClock(t *testing.T) {
	ms := time.Millisecond
	var c stallClock
	if c.at(7*ms) != 7*ms {
		t.Fatalf("a clock that never ran late reads %v at 7ms", c.at(7*ms))
	}
	c.catchUp(5*ms, 9*ms) // early: nothing to take off
	if c.at(5*ms) != 5*ms {
		t.Fatalf("catching up to a future deadline moved the clock to %v", c.at(5*ms))
	}
	c.catchUp(100*ms, 20*ms) // 80 ms overdue
	if c.at(100*ms) != 20*ms || c.at(103*ms) != 23*ms {
		t.Fatalf("after running 80ms past a 20ms deadline the clock reads %v at 100ms and %v at 103ms", c.at(100*ms), c.at(103*ms))
	}
	// A stamp taken before the overdue interval came off lands on the
	// deadline, never before it.
	if c.at(15*ms) != 20*ms || c.at(60*ms) != 20*ms {
		t.Fatalf("old stamps map to %v and %v, want the 20ms deadline", c.at(15*ms), c.at(60*ms))
	}
	c.catchUp(140*ms, 50*ms) // clock reads 60ms: 10 more overdue
	if c.at(140*ms) != 50*ms {
		t.Fatalf("second catch-up leaves the clock at %v, want 50ms", c.at(140*ms))
	}
}
