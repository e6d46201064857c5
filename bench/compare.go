package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one workload x end-to-end metric row of -compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict judges b against the baseline a under the metric's bound. A row
// whose round-to-round spread (min-max over the median, on either side) is
// wider than the bound while the two sides' ranges overlap is unresolved:
// the runs cannot tell a change of that size from noise.
func verdict(d metricDef, a, b metricValue) string {
	worse := b.Value - a.Value
	if d.Better == "higher" {
		worse = -worse
	}
	if d.Exact {
		switch {
		case worse > 0:
			return regressed
		case worse < 0:
			return improved
		}
		return unchanged
	}
	bound := d.bound(a.Value)
	overlap := a.Min <= b.Max && b.Min <= a.Max
	if overlap && (a.Max-a.Min > bound || b.Max-b.Min > d.bound(b.Value)) {
		return unresolved
	}
	switch {
	case worse > bound:
		return regressed
	case worse < -bound:
		return improved
	}
	return unchanged
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints the delta table of two result files, one row per workload x
// end-to-end metric present in both, and returns how many gated rows
// regressed or stayed unresolved. A pair the noise discipline demoted (see
// metricDef.Advisory) is printed with its verdict marked advisory and is not
// counted.
func compare(w io.Writer, a, b *results) (bad int) {
	fmt.Fprintf(w, "A: seed %d, %d rounds x %.1fs, GOMAXPROCS %d, %s\n", a.Seed, a.Rounds, a.RoundS, a.GOMAXPROCS, a.GoVersion)
	fmt.Fprintf(w, "B: seed %d, %d rounds x %.1fs, GOMAXPROCS %d, %s\n", b.Seed, b.Rounds, b.RoundS, b.GOMAXPROCS, b.GoVersion)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [min..max]\tB median [min..max]\tB/A (base A)\tbound\tverdict")
	byName := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			va, okA := wa.EndToEnd[d.Name]
			vb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(d, va, vb)
			if d.advisory(wa.Name) {
				v += " (advisory)"
			} else if v == regressed || v == unresolved {
				bad++
			}
			rel := "base 0"
			if va.Value != 0 {
				rel = fmt.Sprintf("%.3fx of %.4g", vb.Value/va.Value, va.Value)
			}
			fmt.Fprintf(tw, "%s\t%s (%s, %s)\t%.4g [%.4g..%.4g]\t%.4g [%.4g..%.4g]\t%s\t%s\t%s\n",
				wa.Name, d.Name, d.Unit, d.Better, va.Value, va.Min, va.Max, vb.Value, vb.Min, vb.Max,
				rel, d.boundText(), v)
		}
	}
	tw.Flush()
	return bad
}
