package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		dests, packets int
		combine        float64
		ok             bool
	}{
		{15, 8, 0, true}, // the defaults
		{1, 1, 0, true},
		{63, 8, 2.5, true},
		{0, 8, 0, false},  // used to panic inside workload.DestSet
		{64, 8, 0, false}, // likewise: no host left to be the source
		{-1, 8, 0, false},
		{15, 0, 0, false},
		{15, 8, -1, false},
		{15, 8, math.NaN(), false},
		{15, 8, math.Inf(1), false},
	} {
		if err := checkFlags(64, tc.dests, tc.packets, tc.combine); (err == nil) != tc.ok {
			t.Errorf("checkFlags(dests=%d, packets=%d, combine=%v) = %v, want ok=%v",
				tc.dests, tc.packets, tc.combine, err, tc.ok)
		}
	}
}
