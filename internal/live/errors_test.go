package live

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/reliable"
)

// TestTypedErrorsWrapAndUnwrap pins the errors.Is/As contract for every
// typed failure the engines return: each concrete error unwraps to its
// package sentinel, survives arbitrary %w wrapping, and its fields stay
// reachable through errors.As.
func TestTypedErrorsWrapAndUnwrap(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		sentinel error
		as       func(error) bool
	}{
		{
			name: "watchdog",
			err: &WatchdogError{
				Timeout:  42,
				Progress: map[int][]DestProgress{0: {{Host: 3, Received: 1, Expected: 2}}},
			},
			sentinel: ErrWatchdog,
			as: func(err error) bool {
				var we *WatchdogError
				return errors.As(err, &we) && len(we.Progress[0]) == 1 &&
					we.Progress[0][0].Host == 3
			},
		},
		{
			name:     "delivery",
			err:      &reliable.DeliveryError{Orphaned: []int{5, 6}, Partitioned: true},
			sentinel: reliable.ErrDelivery,
			as: func(err error) bool {
				var de *reliable.DeliveryError
				return errors.As(err, &de) && de.Partitioned && len(de.Orphaned) == 2
			},
		},
		{
			name:     "crash",
			err:      &reliable.CrashError{Crashed: []int{1}, Delivered: 2, Quorum: 3, Epoch: 4},
			sentinel: reliable.ErrCrash,
			as: func(err error) bool {
				var ce *reliable.CrashError
				return errors.As(err, &ce) && ce.Quorum == 3 && ce.Epoch == 4
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !errors.Is(tc.err, tc.sentinel) {
				t.Fatalf("bare %T does not match its sentinel", tc.err)
			}
			wrapped := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", tc.err))
			if !errors.Is(wrapped, tc.sentinel) {
				t.Fatalf("double-wrapped %T does not match its sentinel", tc.err)
			}
			if !tc.as(wrapped) {
				t.Fatalf("errors.As through wrapping lost %T's fields", tc.err)
			}
			for _, other := range cases {
				if other.name != tc.name && errors.Is(wrapped, other.sentinel) {
					t.Fatalf("%s matched %s's sentinel", tc.name, other.name)
				}
			}
		})
	}
}
