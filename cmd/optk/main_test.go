package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		ok   bool
	}{
		{0, 0, true}, // table mode
		{64, 8, true},
		{2, 1, true},
		{1 << 21, 8, true},
		{64, 0, true}, // -m unset: table mode
		{1, 1, false}, // used to panic inside ktree.OptimalK
		{1, 0, false},
		{-3, 8, false},
		{64, -1, false},
	} {
		if err := checkFlags(tc.n, tc.m); (err == nil) != tc.ok {
			t.Errorf("checkFlags(n=%d, m=%d) = %v, want ok=%v", tc.n, tc.m, err, tc.ok)
		}
	}
}
