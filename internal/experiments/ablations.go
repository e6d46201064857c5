package experiments

import (
	"fmt"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/ktree"
	"repro/internal/ordering"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/stepsim"
	"repro/internal/workload"
)

// Ablation experiments go beyond the paper's figures: they isolate the
// design choices DESIGN.md calls out (base ordering, fanout bound, NI
// overhead balance, model-vs-measured k selection) and quantify what each
// contributes on the paper's testbed.

func init() {
	register(Experiment{
		ID:    "abl-ordering",
		Title: "Ablation: base ordering (identity vs CCO vs POC) on latency and conflicts",
		Run:   runAblOrdering,
	})
	register(Experiment{
		ID:    "abl-k",
		Title: "Ablation: measured latency vs fixed fanout bound k (the Theorem 3 U-shape)",
		Run:   runAblK,
	})
	register(Experiment{
		ID:    "abl-ni",
		Title: "Ablation: NI send overhead t_ns sensitivity of the k-binomial speedup",
		Run:   runAblNI,
	})
	register(Experiment{
		ID:    "abl-plan",
		Title: "Ablation: model-driven k (Theorem 3) vs measured-k planning",
		Run:   runAblPlan,
	})
	register(Experiment{
		ID:    "collectives",
		Title: "Extension: collective operations built on k-binomial trees",
		Run:   runCollectives,
	})
}

// orderingVariants returns, per sweep system, the three base orderings
// under study, sharing the system's router and tables.
func orderingVariants(s *core.System) map[string]*core.System {
	ud, ok := s.Router.(*routing.UpDown)
	if !ok {
		panic("experiments: ordering ablation needs an up*/down* system")
	}
	return map[string]*core.System{
		"identity": s.WithOrdering(ordering.Identity(s.Net.NumHosts())),
		"cco":      s, // CCO is the default
		"poc":      s.WithOrdering(ordering.POC(ud)),
	}
}

func runAblOrdering(cfg Config) *Result {
	sys := systems(cfg)
	variants := make([]map[string]*core.System, len(sys))
	for i, s := range sys {
		variants[i] = orderingVariants(s)
	}
	kinds := []string{"identity", "cco", "poc"}
	tb := stats.NewTable("Mean multicast latency (us) / same-step conflicts by base ordering; 31 dests, k=2 trees",
		"m", "identity", "conf", "cco", "conf", "poc", "conf")
	for _, m := range []int{2, 8} {
		sums := sweep(cfg, func(t int, rng *workload.RNG) []float64 {
			spec := draw(sys[t], rng, 31, m, core.FixedKTree)
			spec.K = 2
			var row []float64
			for _, kind := range kinds {
				v := variants[t][kind]
				plan := v.Plan(spec)
				row = append(row, v.Simulate(plan, cfg.Params, stepsim.FPFS).Latency,
					float64(v.Conflicts(plan, stepsim.FPFS)))
			}
			return row
		})
		tb.AddFloats(fmt.Sprintf("%d", m), 2, means(sums)...)
	}
	return &Result{
		ID: "abl-ordering", Title: "ordering ablation", Tables: []*stats.Table{tb},
		Notes: []string{"CCO and POC should both beat the uninformed identity ordering in conflicts"},
	}
}

func runAblK(cfg Config) *Result {
	sys := systems(cfg)
	header := []string{"k"}
	ms := []int{1, 8, 32}
	for _, m := range ms {
		header = append(header, fmt.Sprintf("m=%d", m))
	}
	tb := stats.NewTable("Mean multicast latency (us) vs fixed fanout bound; 47 dests", header...)
	rows := make([][]float64, 6) // rows[k-1][j]: mean latency at bound k, ms[j] packets
	for k := 1; k <= 6; k++ {
		rows[k-1] = means(sweep(cfg, func(t int, rng *workload.RNG) []float64 {
			s := sys[t]
			spec := draw(s, rng, 47, 0, core.FixedKTree)
			spec.K = k
			var lat []float64
			for _, m := range ms {
				spec.Packets = m
				lat = append(lat, s.Latency(spec, cfg.Params))
			}
			return lat
		}))
		tb.AddFloats(fmt.Sprintf("%d", k), 1, rows[k-1]...)
	}
	notes := []string{}
	for j, m := range ms {
		bestK := 1
		for k := 2; k <= 6; k++ {
			if rows[k-1][j] < rows[bestK-1][j] {
				bestK = k
			}
		}
		model, _ := ktree.OptimalK(48, m)
		notes = append(notes, fmt.Sprintf("m=%d: measured-best k=%d, Theorem 3 k=%d", m, bestK, model))
	}
	return &Result{ID: "abl-k", Title: "fanout-bound sweep", Tables: []*stats.Table{tb}, Notes: notes}
}

func runAblNI(cfg Config) *Result {
	sys := systems(cfg)
	tb := stats.NewTable("Binomial/k-binomial speedup vs NI send overhead t_ns; 47 dests, m=16",
		"t_ns (us)", "binomial (us)", "k-binomial (us)", "speedup")
	for _, tns := range []float64{1.0, 3.0, 6.0, 12.0} {
		c := cfg
		c.Params.TNISend = tns
		bin := sweepLatency(c, sys, 47, 16, core.BinomialTree, stepsim.FPFS)
		kbin := sweepLatency(c, sys, 47, 16, core.OptimalTree, stepsim.FPFS)
		tb.AddFloats(fmt.Sprintf("%.1f", tns), 2, bin, kbin, bin/kbin)
	}
	return &Result{
		ID: "abl-ni", Title: "NI overhead sensitivity", Tables: []*stats.Table{tb},
		Notes: []string{
			"the k-binomial advantage rests on the per-copy NI injection cost: it grows with t_ns",
			"as t_ns -> 0 the pipeline interval vanishes and tree choice matters less",
		},
	}
}

func runAblPlan(cfg Config) *Result {
	sys := systems(cfg)
	tb := stats.NewTable("Theorem 3 model-k vs measured-k planning; 15 dests (transition band)",
		"m", "model k", "model latency", "measured k", "measured latency", "gain %")
	for _, m := range []int{8, 10, 12, 14, 16, 24} {
		row := means(sweep(cfg, func(t int, rng *workload.RNG) []float64 {
			s := sys[t]
			spec := draw(s, rng, 15, m, core.OptimalTree)
			plan := s.Plan(spec)
			best, lat := s.PlanMeasured(spec, cfg.Params)
			return []float64{float64(plan.K), s.Simulate(plan, cfg.Params, stepsim.FPFS).Latency, float64(best.K), lat}
		}))
		gain := (row[1] - row[3]) / row[1] * 100
		tb.AddFloats(fmt.Sprintf("%d", m), 2, append(row, gain)...)
	}
	return &Result{
		ID: "abl-plan", Title: "model vs measured k", Tables: []*stats.Table{tb},
		Notes: []string{
			"the Theorem 3 objective counts steps but not route lengths; around its",
			"binomial-to-linear crossover the measured-k planner recovers the loss",
		},
	}
}

func runCollectives(cfg Config) *Result {
	// A single representative system suffices: the point is relative cost.
	s := systems(cfg)[0]
	rng := workload.NewRNG(0xC0)
	tb := stats.NewTable("Collective operations over k-binomial trees; 31 dests, mean of 5 sets (us)",
		"op", "m=1", "m=4", "m=16")
	ops := []struct {
		name string
		run  func(spec core.Spec) float64
	}{
		{"broadcast-tree multicast", func(spec core.Spec) float64 {
			return collectives.Multicast(s, spec, cfg.Params).Latency
		}},
		{"scatter", func(spec core.Spec) float64 {
			return collectives.Scatter(s, spec, cfg.Params).Latency
		}},
		{"gather", func(spec core.Spec) float64 {
			return collectives.Gather(s, spec, cfg.Params).Latency
		}},
		{"reduce", func(spec core.Spec) float64 {
			return collectives.Reduce(s, spec, collectives.ReduceParams{Sim: cfg.Params}).Latency
		}},
		{"barrier", func(spec core.Spec) float64 {
			return collectives.Barrier(s, spec, cfg.Params).Latency
		}},
	}
	sets := make([][]int, 5)
	for i := range sets {
		sets[i] = workload.DestSet(rng, s.Net.NumHosts(), 31)
	}
	for _, op := range ops {
		row := []float64{}
		for _, m := range []int{1, 4, 16} {
			var lat stats.Summary
			for _, set := range sets {
				spec := core.Spec{Source: set[0], Dests: set[1:], Packets: m, Policy: core.OptimalTree}
				lat.Add(op.run(spec))
			}
			row = append(row, lat.Mean())
		}
		tb.AddFloats(op.name, 1, row...)
	}
	return &Result{
		ID: "collectives", Title: "collectives on k-binomial trees", Tables: []*stats.Table{tb},
		Notes: []string{
			"scatter/gather move n distinct messages through the source NI: latency scales with n*m",
			"reduce pipelines packet-wise up the reversed tree, mirroring FPFS multicast",
		},
	}
}

func init() {
	register(Experiment{
		ID:    "abl-cluster",
		Title: "Ablation: clustered vs spread destination sets",
		Run:   runAblCluster,
	})
}

// runAblCluster compares uniformly spread destination sets with sets
// clustered on few switches. Clustered multicasts ride short routes and
// CCO keeps their chains switch-local, so they should complete faster and
// with less channel contention.
func runAblCluster(cfg Config) *Result {
	sys := systems(cfg)
	tb := stats.NewTable("Mean optimal-tree latency (us) / channel wait (us): spread vs switch-clustered dests; m=8",
		"dests", "spread", "wait", "clustered", "wait")
	for _, dc := range []int{7, 15, 31} {
		row := []float64{}
		for _, clustered := range []bool{false, true} {
			row = append(row, means(sweep(cfg, func(t int, rng *workload.RNG) []float64 {
				s := sys[t]
				var set []int
				if clustered {
					set = workload.ClusteredDestSetBy(rng, s.Net.NumHosts(), dc, s.Net.HostSwitch)
				} else {
					set = workload.DestSet(rng, s.Net.NumHosts(), dc)
				}
				spec := core.Spec{Source: set[0], Dests: set[1:], Packets: 8, Policy: core.OptimalTree}
				res := s.Simulate(s.Plan(spec), cfg.Params, stepsim.FPFS)
				return []float64{res.Latency, res.ChannelWait}
			}))...)
		}
		tb.AddFloats(fmt.Sprintf("%d", dc), 2, row...)
	}
	return &Result{
		ID: "abl-cluster", Title: "clustered vs spread destinations", Tables: []*stats.Table{tb},
		Notes: []string{"clustered sets ride shorter routes: lower latency at equal step counts"},
	}
}

func init() {
	register(Experiment{
		ID:    "abl-ports",
		Title: "Ablation: multi-port NI injection vs tree choice",
		Run:   runAblPorts,
	})
}

// runAblPorts probes the paper's core premise: the k-binomial tree wins
// because a single NI injection engine serializes the per-child copies.
// With p concurrent injection engines the per-packet service time falls
// toward ceil(c/p)*t_ns, and the binomial tree regains ground — a design
// note for NI hardware that postdates the paper.
func runAblPorts(cfg Config) *Result {
	sys := systems(cfg)
	tb := stats.NewTable("Binomial vs optimal k-binomial latency (us) as NI injection ports grow; 31 dests, m=16",
		"ports", "binomial", "k-binomial", "speedup")
	for _, ports := range []int{1, 2, 4, 8} {
		c := cfg
		c.Params.NIPorts = ports
		bin := sweepLatency(c, sys, 31, 16, core.BinomialTree, stepsim.FPFS)
		kbin := sweepLatency(c, sys, 31, 16, core.OptimalTree, stepsim.FPFS)
		tb.AddFloats(fmt.Sprintf("%d", ports), 2, bin, kbin, bin/kbin)
	}
	return &Result{
		ID: "abl-ports", Title: "NI injection ports", Tables: []*stats.Table{tb},
		Notes: []string{
			"the k-binomial advantage exists because injection is serial; parallel injection engines erode it",
			"note the optimal-k table itself assumes 1 port — with p ports the effective lag is ceil(c/p)",
		},
	}
}

func init() {
	register(Experiment{
		ID:    "abl-path",
		Title: "Ablation: deterministic vs multipath up*/down* route selection",
		Run:   runAblPath,
	})
}

// runAblPath compares the deterministic shortest-legal-path router with
// the oblivious multipath variant that hashes ties across all shortest
// legal paths. Multipath spreads tree edges over more channels, cutting
// same-step conflicts; its effect on latency shows how much of the
// remaining contention is routing-induced rather than NI-induced.
func runAblPath(cfg Config) *Result {
	sys := systems(cfg)
	multi := make([]*core.System, len(sys))
	for t, s := range sys {
		multi[t] = s.WithOrdering(s.Ord)
		multi[t].Router = routing.NewUpDownMultipath(s.Net, 0xA17)
	}
	tb := stats.NewTable("Deterministic vs multipath up*/down*; 31 dests, k=2 trees",
		"m", "det latency", "det conf", "multi latency", "multi conf")
	for _, m := range []int{2, 8} {
		sums := sweep(cfg, func(t int, rng *workload.RNG) []float64 {
			spec := draw(sys[t], rng, 31, m, core.FixedKTree)
			spec.K = 2
			var row []float64
			for _, s := range []*core.System{sys[t], multi[t]} {
				plan := s.Plan(spec)
				row = append(row, s.Simulate(plan, cfg.Params, stepsim.FPFS).Latency,
					float64(s.Conflicts(plan, stepsim.FPFS)))
			}
			return row
		})
		tb.AddFloats(fmt.Sprintf("%d", m), 2, means(sums)...)
	}
	return &Result{
		ID: "abl-path", Title: "route selection", Tables: []*stats.Table{tb},
		Notes: []string{"multipath draws each pair's path from all shortest legal options"},
	}
}
