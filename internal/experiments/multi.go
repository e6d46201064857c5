package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stepsim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "multi",
		Title: "Extension: multiple concurrent multicasts sharing NIs and channels",
		Run:   runMulti,
	})
}

// runMulti measures how per-session multicast latency degrades as
// concurrent multicast sessions are added — the system-level concern of
// the authors' companion ICPP'96 paper ("Minimizing Node Contention in
// Multiple Multicast"), reproduced here on the shared-resource event
// simulator as an extension beyond the paper's single-multicast figures.
func runMulti(cfg Config) *Result {
	sys := systems(cfg)
	counts := []int{1, 2, 4, 8}
	tb := stats.NewTable("Per-session latency (us) vs concurrent 15-dest m=4 multicasts",
		"sessions", "binomial", "k-binomial", "k-bin p95", "speedup", "mean channel wait (us)")
	for _, sc := range counts {
		// Per trial: binomial and k-binomial mean session latency, and the
		// k-binomial run's channel wait per session.
		rows := trials(cfg, func(t int, rng *workload.RNG) [3]float64 {
			s := sys[t]
			// Draw sc independent multicasts with distinct sources.
			specs := make([]core.Spec, sc)
			usedSources := map[int]bool{}
			for j := range specs {
				for {
					specs[j] = draw(s, rng, 15, 4, core.OptimalTree)
					if !usedSources[specs[j].Source] {
						break
					}
				}
				usedSources[specs[j].Source] = true
			}
			var row [3]float64
			for p, policy := range []core.TreePolicy{core.BinomialTree, core.OptimalTree} {
				sessions := make([]sim.Session, sc)
				for j, spec := range specs {
					spec.Policy = policy
					sessions[j] = sim.Session{Tree: s.Plan(spec).Tree, Packets: spec.Packets}
				}
				res := sim.Concurrent(s.Router, sessions, cfg.Params, stepsim.FPFS)
				for _, sr := range res.Sessions {
					row[p] += sr.Latency
				}
				row[p] /= float64(sc)
				if policy == core.OptimalTree {
					row[2] = res.ChannelWait / float64(sc)
				}
			}
			return row
		})
		var bin, wait stats.Summary
		var kbin stats.Sample
		for _, r := range rows {
			bin.Add(r[0])
			kbin.Add(r[1])
			wait.Add(r[2])
		}
		tb.AddFloats(fmt.Sprintf("%d", sc), 2,
			bin.Mean(), kbin.Mean(), kbin.P95(), bin.Mean()/kbin.Mean(), wait.Mean())
	}
	return &Result{
		ID: "multi", Title: "multiple multicast", Tables: []*stats.Table{tb},
		Notes: []string{
			"per-session latency grows with concurrency (shared NIs and channels)",
			"the k-binomial advantage persists under concurrent load",
		},
	}
}
