package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// report prints every metric by name with its unit, workload by workload.
func report(w io.Writer, res *results) {
	fmt.Fprintf(w, "seed %d  GOMAXPROCS %d (nproc %d)  %s  %d rounds x %.2fs, median over rounds\n",
		res.Seed, res.GOMAXPROCS, res.NProc, res.GoVersion, res.Rounds, res.RoundS)
	for _, wl := range res.Workloads {
		def, _ := findWorkload(wl.Name)
		fmt.Fprintf(w, "\n== %s: %s\n", wl.Name, def.Why)
		if wl.Skipped != "" {
			fmt.Fprintf(w, "   %s\n", wl.Skipped)
			continue
		}
		fmt.Fprintf(w, "   ops attempted %d, failed %d, outputs correct: %v", wl.Attempted, wl.Failed, wl.Correct)
		if wl.FirstErr != "" {
			fmt.Fprintf(w, " (first failure: %s)", wl.FirstErr)
		}
		fmt.Fprintln(w)
		tw := tabwriter.NewWriter(w, 3, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "   end-to-end (spans off)\tvalue\tunit\tmin..max over rounds\tsamples/round\tbound")
		for _, d := range endToEnd {
			v, ok := wl.EndToEnd[d.Name]
			if !ok {
				continue
			}
			bound := d.boundText() + ", " + d.Better + " is better"
			if d.advisory(wl.Name) {
				bound += " (advisory here)"
			}
			fmt.Fprintf(tw, "   %s\t%.6g\t%s\t%.6g..%.6g\t%d\t%s\n", d.Name, v.Value, v.Unit, v.Min, v.Max, v.Samples, bound)
		}
		tw.Flush()
		if wl.PerLayer == nil {
			continue
		}
		tw = tabwriter.NewWriter(w, 3, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "   per-layer (traced round + probes)\tvalue\tunit")
		for _, d := range perLayer {
			if v, ok := wl.PerLayer[d.Name]; ok {
				fmt.Fprintf(tw, "   %s\t%.6g\t%s\n", d.Name, v, d.Unit)
			}
		}
		tw.Flush()
		tw = tabwriter.NewWriter(w, 3, 0, 2, ' ', 0)
		cpu := wl.PerLayer["proc.cpu_us_per_op"]
		fmt.Fprintf(tw, "   ledger (base: proc.cpu_us_per_op = %.6g us)\tcount/op\tunit us\tus/op\tshare of CPU\tsource\n", cpu)
		rows := append([]ledgerRow(nil), wl.Ledger...)
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].us() > rows[j].us() })
		for _, r := range rows {
			fmt.Fprintf(tw, "   %s\t%.6g\t%.6g\t%.6g\t%.3f\t%s\n", r.Layer, r.Count, r.UnitUS, r.us(), ratio(r.us(), cpu), r.Source)
		}
		tw.Flush()
	}
}

// contractLine is the one JSON object a single-workload run ends with: the
// end-to-end metrics BENCHMARK.json gates after an untraced run, every
// declared per-layer metric after a traced one.
func contractLine(wl workloadResult, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range declaredPerLayer() {
			metrics[d.Name] = value{wl.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			if d.gatedEverywhere() {
				metrics[d.Name] = value{wl.EndToEnd[d.Name].Value, d.Unit}
			}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wl.Correct, wl.Attempted, wl.Failed, metrics})
	return string(line)
}

func writeJSON(path string, res *results) error {
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
