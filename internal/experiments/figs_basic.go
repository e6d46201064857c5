package experiments

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/ktree"
	"repro/internal/stats"
	"repro/internal/stepsim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// costs derives the analytic Costs from the simulation parameters, using a
// representative 2-hop route for t_step.
func costs(cfg Config) analytic.Costs {
	return analytic.Costs{
		THostSend: cfg.Params.THostSend,
		THostRecv: cfg.Params.THostRecv,
		TStep:     cfg.Params.StepTime(2),
	}
}

func init() {
	register(Experiment{
		ID:    "fig4",
		Title: "Conventional vs smart network interface, single-packet binomial multicast (Fig. 4)",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Binomial vs linear tree steps for a 3-packet multicast to 3 destinations (Fig. 5)",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Pipelined break-up of a 3-packet multicast to 7 destinations (Fig. 8)",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "buffer",
		Title: "NI buffer requirement, FCFS vs FPFS (Section 3.3.2)",
		Run:   runBuffer,
	})
}

func runFig4(cfg Config) *Result {
	c := costs(cfg)
	model := stats.NewTable(
		fmt.Sprintf("Single-packet multicast latency model (us), t_step = %.1f", c.TStep),
		"n", "conventional NI", "smart NI", "ratio")
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		conv := analytic.ConventionalSinglePacket(n, c)
		smart := analytic.SmartSinglePacket(n, c)
		model.AddFloats(fmt.Sprintf("%d", n), 1, conv, smart, conv/smart)
	}

	// Measured counterpart: simulate both disciplines over the sweep with
	// binomial trees; conventional = host-level store-and-forward.
	sys := systems(cfg)
	measured := stats.NewTable("Measured single-packet latency (us), irregular 64-host network",
		"dests", "conventional NI", "smart FPFS", "ratio")
	for _, dc := range []int{3, 7, 15, 31, 63} {
		conv := sweepLatency(cfg, sys, dc, 1, core.BinomialTree, stepsim.Conventional)
		smart := sweepLatency(cfg, sys, dc, 1, core.BinomialTree, stepsim.FPFS)
		measured.AddFloats(fmt.Sprintf("%d", dc), 1, conv, smart, conv/smart)
	}
	return &Result{
		ID:     "fig4",
		Title:  "conventional vs smart NI",
		Tables: []*stats.Table{model, measured},
		Notes: []string{
			"model: conventional = ceil(log2 n)(t_s+t_step+t_r); smart = t_s + ceil(log2 n) t_step + t_r",
		},
	}
}

func runFig5(cfg Config) *Result {
	c := costs(cfg)
	bin := tree.Binomial(seqHosts(0, 4))
	lin := tree.Linear(seqHosts(0, 4))
	tb := stats.NewTable("3-packet multicast to 3 destinations under FPFS",
		"tree", "steps", "model latency (us)")
	tb.AddRow("binomial", fmt.Sprintf("%d", stepsim.Steps(bin, 3, stepsim.FPFS)),
		fmt.Sprintf("%.1f", analytic.SmartBinomial(4, 3, c)))
	tb.AddRow("linear", fmt.Sprintf("%d", stepsim.Steps(lin, 3, stepsim.FPFS)),
		fmt.Sprintf("%.1f", analytic.SmartLinear(4, 3, c)))
	return &Result{
		ID:     "fig5",
		Title:  "binomial vs linear steps",
		Tables: []*stats.Table{tb},
		Notes:  []string{"paper: binomial takes 6 steps, linear 5 — binomial is not optimal under packetization"},
	}
}

func runFig8(cfg Config) *Result {
	bin := tree.Binomial(seqHosts(0, 8))
	sched := stepsim.Run(bin, 3, stepsim.FPFS)
	tb := stats.NewTable("3-packet multicast to 7 destinations, binomial tree, FPFS",
		"packet", "completed at step")
	for j := 0; j < 3; j++ {
		tb.AddRow(fmt.Sprintf("%d", j+1), fmt.Sprintf("%d", sched.PacketDone(j)))
	}
	lagNote := fmt.Sprintf("inter-packet lag = %v (Theorem 1: equals root degree %d); total %d steps",
		sched.Lags(), bin.RootDegree(), sched.TotalSteps)
	return &Result{
		ID:     "fig8",
		Title:  "pipelined multicast break-up",
		Tables: []*stats.Table{tb},
		Notes:  []string{lagNote},
	}
}

func runBuffer(cfg Config) *Result {
	anal := stats.NewTable("Per-packet NI residency at an intermediate node (t_sq units)",
		"children c", "m", "FCFS (c-1)m+1", "FPFS c")
	for _, c := range []int{2, 3, 4, 8} {
		for _, m := range []int{1, 4, 16, 32} {
			anal.AddRow(fmt.Sprintf("%d", c), fmt.Sprintf("%d", m),
				fmt.Sprintf("%d", analytic.BufferResidencyFCFS(c, m)),
				fmt.Sprintf("%d", analytic.BufferResidencyFPFS(c)))
		}
	}

	// Measured peak buffered packets at intermediate nodes in the event
	// simulation, averaged over the sweep.
	sys := systems(cfg)
	meas := stats.NewTable("Measured peak packets buffered at busiest intermediate NI (event sim)",
		"m", "FCFS", "FPFS")
	for _, m := range []int{2, 4, 8, 16} {
		peaks := sweep(cfg, func(t int, rng *workload.RNG) []float64 {
			s := sys[t]
			spec := draw(s, rng, 31, m, core.FixedKTree)
			spec.K = 3
			plan := s.Plan(spec)
			var row []float64
			for _, disc := range []stepsim.Discipline{stepsim.FCFS, stepsim.FPFS} {
				peak := 0
				for v, b := range s.Simulate(plan, cfg.Params, disc).MaxBuffered {
					if v != plan.Tree.Root() && b > peak {
						peak = b
					}
				}
				row = append(row, float64(peak))
			}
			return row
		})
		meas.AddFloats(fmt.Sprintf("%d", m), 2, means(peaks)...)
	}
	return &Result{
		ID:     "buffer",
		Title:  "FCFS vs FPFS buffer requirement",
		Tables: []*stats.Table{anal, meas},
		Notes: []string{
			"FCFS must retain the whole message at a forwarding NI; FPFS only packets whose copies are in flight",
			fmt.Sprintf("optimal k never exceeds ceil(log2 64) = %d on this system, bounding FPFS residency", ktree.CeilLog2(64)),
		},
	}
}
