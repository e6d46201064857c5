package main

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		axis                          string
		values                        []float64
		dests, packets, trials, topos int
		ok                            bool
	}{
		{"m", []float64{1, 2, 4, 8, 16, 32}, 31, 8, 10, 4, true},
		{"dests", []float64{3, 63}, 31, 8, 10, 4, true},
		{"k", []float64{1, 6, 9}, 31, 8, 1, 1, true},
		{"tns", []float64{0.5, 12}, 31, 8, 10, 4, true},
		{"ports", []float64{1, 8}, 31, 8, 10, 4, true},
		{"k", []float64{1, 0}, 31, 8, 10, 4, false},  // used to panic in a par.For worker
		{"ports", []float64{0}, 31, 8, 10, 4, false}, // used to print a row "0" simulated with 1 port
		{"ports", []float64{-2}, 31, 8, 10, 4, false},
		{"m", []float64{0}, 31, 8, 10, 4, false},
		{"m", []float64{2.5}, 31, 8, 10, 4, false},
		{"m", []float64{math.Inf(1)}, 31, 8, 10, 4, false},
		{"dests", []float64{64}, 31, 8, 10, 4, false},
		{"dests", []float64{0}, 31, 8, 10, 4, false},
		{"tns", []float64{0}, 31, 8, 10, 4, false},
		{"tns", []float64{math.NaN()}, 31, 8, 10, 4, false},
		{"tns", []float64{math.Inf(1)}, 31, 8, 10, 4, false},
		{"m", []float64{1}, 0, 8, 10, 4, false},
		{"m", []float64{1}, 64, 8, 10, 4, false},
		{"dests", []float64{3}, 31, 0, 10, 4, false},
		{"m", []float64{1}, 31, 8, 0, 4, false},
		{"m", []float64{1}, 31, 8, 10, 0, false},
	} {
		err := checkFlags(tc.axis, tc.values, tc.dests, tc.packets, tc.trials, tc.topos)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%s %v, dests=%d packets=%d trials=%d topos=%d) = %v, want ok=%v",
				tc.axis, tc.values, tc.dests, tc.packets, tc.trials, tc.topos, err, tc.ok)
		}
	}
}

// TestAxisDefaultsAreLegal: every axis' default values pass its own range.
func TestAxisDefaultsAreLegal(t *testing.T) {
	for axis, a := range axes {
		var values []float64
		for _, s := range strings.Split(a.defaults, ",") {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatalf("axis %s: default %q: %v", axis, s, err)
			}
			values = append(values, v)
		}
		if err := checkFlags(axis, values, 31, 8, 10, 4); err != nil {
			t.Errorf("axis %s: %v", axis, err)
		}
	}
}
