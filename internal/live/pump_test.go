package live

import (
	"testing"
	"time"

	"repro/internal/membership"
)

// stallScript replays, on no clock but its own, what a loaded box did to
// TestReliableCrashStopAdoption: six hosts beat every 3 ms, host 2 dies
// at 4 ms, and from 54 ms to 915 ms the whole process — pump and NIs
// alike — gets no CPU. It feeds the detector the way Pump.Run does
// (catch the clock up to the armed deadline before handling anything,
// judge at the deadline when it passes) and returns the hosts confirmed
// crashed. With catchUp false the clock is the wall, as it was before
// stallClock.
func stallScript(t *testing.T, catchUp bool) map[int]bool {
	t.Helper()
	hb := HeartbeatParams{Every: 3 * time.Millisecond, SuspectAfter: 10 * time.Millisecond, ConfirmAfter: 8 * time.Millisecond, JitterFrac: 0.25}
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
	// wake is the pump coming round at wall offset w: overdue time comes
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
	for w := time.Duration(0); w < 1000*time.Millisecond; w += hb.Every {
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
// countermeasure without a timer: a pump that was away for 860 ms — far
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
