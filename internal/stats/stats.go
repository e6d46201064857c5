// Package stats provides the small statistical and tabular toolkit the
// experiment harness uses: streaming summaries, quantile samples, and
// fixed-width text tables shaped like the paper's figures' data.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates a stream of observations.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the summary (Welford's algorithm).
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		s.min = math.Min(s.min, x)
		s.max = math.Max(s.max, x)
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the observation count.
func (s Summary) N() int { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s Summary) Mean() float64 { return s.mean }

// Std returns the sample standard deviation (0 for fewer than two
// observations).
func (s Summary) Std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Min returns the smallest observation (0 for an empty summary).
func (s Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty summary).
func (s Summary) Max() float64 { return s.max }

// Table is a fixed-width text table with a caption, matching how the
// experiment harness prints figure data.
type Table struct {
	Caption string
	Header  []string
	Rows    [][]string
}

// NewTable creates a table with the given caption and column headers.
func NewTable(caption string, header ...string) *Table {
	return &Table{Caption: caption, Header: header}
}

// AddRow appends a row; cells beyond the header width are rejected.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Header) {
		panic(fmt.Sprintf("stats: row has %d cells, header has %d", len(cells), len(t.Header)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddFloats appends a row of float cells formatted with %.*f after a
// leading label cell.
func (t *Table) AddFloats(label string, prec int, vals ...float64) {
	cells := make([]string, 0, len(vals)+1)
	cells = append(cells, label)
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.*f", prec, v))
	}
	t.AddRow(cells...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Caption != "" {
		sb.WriteString(t.Caption)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	total := len(t.Header)*2 - 2
	for _, w := range width {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV renders the table as RFC-4180-ish CSV (caption omitted; cells are
// quoted only when they contain commas or quotes).
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				sb.WriteByte('"')
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Sample retains every observation for quantile queries, unlike the
// streaming Summary.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Mean returns the sample mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear
// interpolation between order statistics. It panics on an empty sample or
// q outside [0, 1].
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %f outside [0,1]", q))
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if len(s.xs) == 1 {
		return s.xs[0]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(pos)
	if lo == len(s.xs)-1 {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// P95 returns the 0.95 quantile.
func (s *Sample) P95() float64 { return s.Quantile(0.95) }
