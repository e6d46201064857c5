package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ktree"
	"repro/internal/stats"
	"repro/internal/stepsim"
)

func init() {
	register(Experiment{
		ID:    "fig12a",
		Title: "Optimal k vs number of packets m, fixed destination counts (Fig. 12a)",
		Run:   runFig12a,
	})
	register(Experiment{
		ID:    "fig12b",
		Title: "Optimal k vs multicast set size n, fixed packet counts (Fig. 12b)",
		Run:   runFig12b,
	})
	register(Experiment{
		ID:    "fig13a",
		Title: "Multicast latency of the optimal k-binomial tree vs m (Fig. 13a)",
		Run:   runFig13a,
	})
	register(Experiment{
		ID:    "fig13b",
		Title: "Multicast latency of the optimal k-binomial tree vs n (Fig. 13b)",
		Run:   runFig13b,
	})
	register(Experiment{
		ID:    "fig14a",
		Title: "k-binomial vs binomial tree latency vs m (Fig. 14a)",
		Run:   runFig14a,
	})
	register(Experiment{
		ID:    "fig14b",
		Title: "k-binomial vs binomial tree latency vs n (Fig. 14b)",
		Run:   runFig14b,
	})
}

// fig12 axes, matching the paper's plots.
var (
	fig12DestCounts = []int{15, 31, 47, 63}
	fig12PacketSets = []int{1, 2, 4, 8}
	figMValues      = []int{1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 35}
	figNValues      = []int{4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64}
)

func runFig12a(Config) *Result {
	header := []string{"m"}
	for _, d := range fig12DestCounts {
		header = append(header, fmt.Sprintf("%d dest", d))
	}
	tb := stats.NewTable("Optimal k for the k-binomial tree (analytic, Theorem 3)", header...)
	for m := 1; m <= 35; m++ {
		row := []string{fmt.Sprintf("%d", m)}
		for _, d := range fig12DestCounts {
			k, _ := ktree.OptimalK(d+1, m)
			row = append(row, fmt.Sprintf("%d", k))
		}
		tb.AddRow(row...)
	}
	notes := []string{
		"k = ceil(log2 n) (binomial) at m = 1; k converges to 1 (linear) as m grows",
	}
	for _, d := range []int{15, 31} {
		notes = append(notes, fmt.Sprintf("n=%d reaches k=1 at m=%d", d+1, ktree.CrossoverM(d+1)))
	}
	return &Result{ID: "fig12a", Title: "optimal k vs m", Tables: []*stats.Table{tb}, Notes: notes}
}

func runFig12b(Config) *Result {
	header := []string{"n"}
	for _, m := range fig12PacketSets {
		header = append(header, fmt.Sprintf("%d pkt", m))
	}
	tb := stats.NewTable("Optimal k for the k-binomial tree (analytic, Theorem 3)", header...)
	for n := 2; n <= 70; n++ {
		row := []string{fmt.Sprintf("%d", n)}
		for _, m := range fig12PacketSets {
			k, _ := ktree.OptimalK(n, m)
			row = append(row, fmt.Sprintf("%d", k))
		}
		tb.AddRow(row...)
	}
	return &Result{
		ID: "fig12b", Title: "optimal k vs n", Tables: []*stats.Table{tb},
		Notes: []string{"for m in {4,8}, optimal k settles at 2 across the paper's sizes (2..64)"},
	}
}

func runFig13a(cfg Config) *Result {
	sys := systems(cfg)
	header := []string{"m"}
	for _, d := range fig12DestCounts {
		header = append(header, fmt.Sprintf("%d dest", d))
	}
	tb := stats.NewTable("Simulated multicast latency (us) using the optimal k-binomial tree", header...)
	for _, m := range figMValues {
		vals := make([]float64, 0, len(fig12DestCounts))
		for _, d := range fig12DestCounts {
			vals = append(vals, sweepLatency(cfg, sys, d, m, core.OptimalTree, stepsim.FPFS))
		}
		tb.AddFloats(fmt.Sprintf("%d", m), 1, vals...)
	}
	return &Result{
		ID: "fig13a", Title: "latency vs m, optimal tree", Tables: []*stats.Table{tb},
		Notes: []string{"slope decreases where the optimal k drops (paper Section 5.2)"},
	}
}

func runFig13b(cfg Config) *Result {
	sys := systems(cfg)
	header := []string{"n"}
	for _, m := range fig12PacketSets {
		header = append(header, fmt.Sprintf("%d pkt", m))
	}
	tb := stats.NewTable("Simulated multicast latency (us) using the optimal k-binomial tree", header...)
	for _, n := range figNValues {
		vals := make([]float64, 0, len(fig12PacketSets))
		for _, m := range fig12PacketSets {
			vals = append(vals, sweepLatency(cfg, sys, n-1, m, core.OptimalTree, stepsim.FPFS))
		}
		tb.AddFloats(fmt.Sprintf("%d", n), 1, vals...)
	}
	return &Result{ID: "fig13b", Title: "latency vs n, optimal tree", Tables: []*stats.Table{tb}}
}

func runFig14a(cfg Config) *Result {
	sys := systems(cfg)
	dests := []int{15, 47}
	header := []string{"m"}
	for _, d := range dests {
		header = append(header, fmt.Sprintf("%d dest bin", d), fmt.Sprintf("%d dest kbin", d), "ratio")
	}
	tb := stats.NewTable("Simulated multicast latency (us): binomial vs optimal k-binomial", header...)
	peak := 0.0
	for _, m := range figMValues {
		row := []float64{}
		for _, d := range dests {
			bin := sweepLatency(cfg, sys, d, m, core.BinomialTree, stepsim.FPFS)
			kbin := sweepLatency(cfg, sys, d, m, core.OptimalTree, stepsim.FPFS)
			r := bin / kbin
			if r > peak {
				peak = r
			}
			row = append(row, bin, kbin, r)
		}
		tb.AddFloats(fmt.Sprintf("%d", m), 2, row...)
	}
	return &Result{
		ID: "fig14a", Title: "tree comparison vs m", Tables: []*stats.Table{tb},
		Notes: []string{fmt.Sprintf("peak binomial/k-binomial ratio observed: %.2fx (paper: up to 2x)", peak)},
	}
}

func runFig14b(cfg Config) *Result {
	sys := systems(cfg)
	ms := []int{2, 8}
	header := []string{"n"}
	for _, m := range ms {
		header = append(header, fmt.Sprintf("%d pkt bin", m), fmt.Sprintf("%d pkt kbin", m), "ratio")
	}
	tb := stats.NewTable("Simulated multicast latency (us): binomial vs optimal k-binomial", header...)
	for _, n := range figNValues {
		row := []float64{}
		for _, m := range ms {
			bin := sweepLatency(cfg, sys, n-1, m, core.BinomialTree, stepsim.FPFS)
			kbin := sweepLatency(cfg, sys, n-1, m, core.OptimalTree, stepsim.FPFS)
			row = append(row, bin, kbin, bin/kbin)
		}
		tb.AddFloats(fmt.Sprintf("%d", n), 2, row...)
	}
	return &Result{
		ID: "fig14b", Title: "tree comparison vs n", Tables: []*stats.Table{tb},
		Notes: []string{"improvement of the k-binomial tree grows with the packet count (paper Fig. 14b)"},
	}
}
