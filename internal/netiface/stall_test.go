package netiface_test

// The NI send-engine stall model as the engines see it: the windows of a
// fault.Plan, armed, freeze one host's injections. These cases pin the
// window semantics the FCFS/FPFS send engines rely on.

import (
	"testing"

	"repro/internal/fault"
)

// TestNormalizeStalls: overlapping and touching windows merge, out of
// order, so an injection at the start of the merged run waits to its
// end; empty and negative windows are refused.
func TestNormalizeStalls(t *testing.T) {
	s, err := fault.Plan{Stalls: []fault.Stall{
		{Host: 0, From: 5, Until: 7}, {Host: 0, From: 1, Until: 3}, {Host: 0, From: 2, Until: 4},
		{Host: 0, From: 4, Until: 5}, {Host: 0, From: 10, Until: 11},
	}}.Arm()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ t, want float64 }{
		{0.5, 0}, {1, 6}, {3, 4}, {4.5, 2.5}, {6, 1}, {7, 0}, {9, 0}, {10, 1}, {11, 0},
	} {
		if got := s.StallDelay(0, c.t); got != c.want {
			t.Errorf("merged windows: StallDelay(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	for _, bad := range []fault.Stall{{From: 3, Until: 3}, {From: -1, Until: 2}, {Host: -1, From: 1, Until: 2}} {
		if _, err := (fault.Plan{Stalls: []fault.Stall{bad}}).Arm(); err == nil {
			t.Errorf("window %+v accepted", bad)
		}
	}
}

// TestStallDelay: an injection inside a window waits to its end; one at
// or past the end, or before the start, or on another host, goes at once.
func TestStallDelay(t *testing.T) {
	s, err := fault.Plan{Stalls: []fault.Stall{
		{Host: 2, From: 30, Until: 35}, {Host: 2, From: 10, Until: 20},
	}}.Arm()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ t, want float64 }{
		{0, 0}, {10, 10}, {15, 5}, {19.5, 0.5}, {20, 0}, {25, 0},
		{30, 5}, {34, 1}, {35, 0}, {100, 0},
	} {
		if got := s.StallDelay(2, c.t); got != c.want {
			t.Errorf("StallDelay(%v) = %v, want %v", c.t, got, c.want)
		}
		if got := s.StallDelay(1, c.t); got != 0 {
			t.Errorf("unstalled host waits %v at %v", got, c.t)
		}
	}
	var none *fault.State
	if none.StallDelay(2, 15) != 0 {
		t.Error("no stalls must not delay")
	}
}
