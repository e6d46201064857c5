package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Std() != 0 {
		t.Error("empty summary not zeroed")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("mean = %f, want 5", s.Mean())
	}
	// Sample std of this classic set: sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.Std()-want) > 1e-12 {
		t.Errorf("std = %f, want %f", s.Std(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %f/%f", s.Min(), s.Max())
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Add(42)
	if s.Mean() != 42 || s.Std() != 0 || s.Min() != 42 || s.Max() != 42 {
		t.Error("single-observation summary wrong")
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	if err := quick.Check(func(xs []float64) bool {
		var s Summary
		sum := 0.0
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				ok = false
				break
			}
			s.Add(x)
			sum += x
		}
		if !ok || len(xs) == 0 {
			return true
		}
		naive := sum / float64(len(xs))
		scale := math.Max(1, math.Abs(naive))
		return math.Abs(s.Mean()-naive)/scale < 1e-6
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "m", "binomial", "k-binomial")
	tb.AddRow("1", "32.4", "32.4")
	tb.AddFloats("2", 1, 64.8, 43.2)
	out := tb.String()
	if !strings.Contains(out, "Fig X") {
		t.Error("caption missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // caption, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "binomial") || !strings.Contains(lines[4], "43.2") {
		t.Errorf("table content wrong:\n%s", out)
	}
	// Columns aligned: header and row share the column start offsets.
	if strings.Index(lines[1], "k-binomial") != strings.Index(lines[4], "43.2") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableRowWidthPanic(t *testing.T) {
	tb := NewTable("", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong row width")
		}
	}()
	tb.AddRow("only one")
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("cap", "a", "b")
	tb.AddRow("1", "x,y")
	tb.AddRow("2", `quote"inside`)
	got := tb.CSV()
	want := "a,b\n1,\"x,y\"\n2,\"quote\"\"inside\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if math.Abs(s.Mean()-50.5) > 1e-12 {
		t.Fatalf("mean=%f", s.Mean())
	}
	if m := s.Quantile(0.5); math.Abs(m-50.5) > 1e-9 {
		t.Errorf("median = %f, want 50.5", m)
	}
	if q := s.Quantile(0); q != 1 {
		t.Errorf("q0 = %f", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Errorf("q1 = %f", q)
	}
	if p := s.P95(); math.Abs(p-95.05) > 1e-9 {
		t.Errorf("p95 = %f, want 95.05", p)
	}
	// Adding after sorting still works.
	s.Add(1000)
	if q := s.Quantile(1); q != 1000 {
		t.Errorf("q1 after add = %f", q)
	}
}

func TestSampleSingleAndPanics(t *testing.T) {
	var s Sample
	s.Add(7)
	if s.Quantile(0.5) != 7 || s.Quantile(0.3) != 7 {
		t.Error("single-element quantiles wrong")
	}
	var empty Sample
	for i, f := range []func(){
		func() { empty.Quantile(0.5) },
		func() { s.Quantile(-0.1) },
		func() { s.Quantile(1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
	if empty.Mean() != 0 {
		t.Error("empty mean")
	}
}
