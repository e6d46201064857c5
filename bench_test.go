// Benchmarks regenerating every figure of the paper's evaluation. Each
// BenchmarkFigXX runs the registered experiment (reduced sweep per
// iteration; pass -quickbench=false via build flags is not needed — run
// cmd/figures for the full paper-scale sweep) and logs the resulting table
// on the first iteration, so
//
//	go test -bench=. -benchmem
//
// both times the harness and prints the reproduced data.
package repro_test

import (
	"sync"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/stepsim"
	"repro/internal/tree"
	"repro/internal/workload"
)

var logOnce sync.Map

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := experiments.Quick()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = exp.Run(cfg)
	}
	if _, done := logOnce.LoadOrStore(id, true); !done {
		b.Logf("\n%s", res.String())
	}
}

// BenchmarkFig4ConventionalVsSmart regenerates Fig. 4: single-packet
// binomial multicast latency over conventional vs smart NIs.
func BenchmarkFig4ConventionalVsSmart(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5BinomialVsLinearSteps regenerates Fig. 5: step counts of a
// 3-packet multicast to 3 destinations (binomial 6 vs linear 5).
func BenchmarkFig5BinomialVsLinearSteps(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig8PipelinedBreakup regenerates Fig. 8: the pipelined break-up
// of a 3-packet multicast to 7 destinations (9 steps, lag 3).
func BenchmarkFig8PipelinedBreakup(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkBufferFCFSvsFPFS regenerates the Section 3.3.2 buffer
// requirement comparison, analytic and measured.
func BenchmarkBufferFCFSvsFPFS(b *testing.B) { runExperiment(b, "buffer") }

// BenchmarkFig12aOptimalKvsM regenerates Fig. 12(a): optimal k vs packet
// count for fixed destination counts.
func BenchmarkFig12aOptimalKvsM(b *testing.B) { runExperiment(b, "fig12a") }

// BenchmarkFig12bOptimalKvsN regenerates Fig. 12(b): optimal k vs
// multicast set size for fixed packet counts.
func BenchmarkFig12bOptimalKvsN(b *testing.B) { runExperiment(b, "fig12b") }

// BenchmarkFig13aLatencyVsM regenerates Fig. 13(a): simulated latency of
// the optimal k-binomial tree vs packet count.
func BenchmarkFig13aLatencyVsM(b *testing.B) { runExperiment(b, "fig13a") }

// BenchmarkFig13bLatencyVsN regenerates Fig. 13(b): simulated latency of
// the optimal k-binomial tree vs multicast set size.
func BenchmarkFig13bLatencyVsN(b *testing.B) { runExperiment(b, "fig13b") }

// BenchmarkFig14aTreeComparisonVsM regenerates Fig. 14(a): binomial vs
// optimal k-binomial latency vs packet count.
func BenchmarkFig14aTreeComparisonVsM(b *testing.B) { runExperiment(b, "fig14a") }

// BenchmarkFig14bTreeComparisonVsN regenerates Fig. 14(b): binomial vs
// optimal k-binomial latency vs multicast set size.
func BenchmarkFig14bTreeComparisonVsN(b *testing.B) { runExperiment(b, "fig14b") }

// --- micro-benchmarks of the core primitives ---

// BenchmarkOptimalK measures the Theorem 3 search for the paper's system
// size.
func BenchmarkOptimalK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		repro.OptimalK(64, 1+i%32)
	}
}

// BenchmarkKBinomialConstruction measures building a 64-node k-binomial
// tree from a chain.
func BenchmarkKBinomialConstruction(b *testing.B) {
	chain := make([]int, 64)
	for i := range chain {
		chain[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.KBinomial(chain, 2)
	}
}

// BenchmarkStepSchedule measures the exact step-schedule computation for a
// 64-node, 8-packet multicast.
func BenchmarkStepSchedule(b *testing.B) {
	chain := make([]int, 64)
	for i := range chain {
		chain[i] = i
	}
	tr := tree.KBinomial(chain, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepsim.Run(tr, 8, stepsim.FPFS)
	}
}

// BenchmarkEventSimMulticast measures one full event-driven multicast
// simulation (47 destinations, 8 packets) on the irregular testbed.
func BenchmarkEventSimMulticast(b *testing.B) {
	sys := repro.NewIrregularSystem(repro.DefaultIrregularConfig(), 1)
	rng := workload.NewRNG(1)
	set := workload.DestSet(rng, 64, 47)
	plan := sys.Plan(repro.Spec{Source: set[0], Dests: set[1:], Packets: 8, Policy: repro.OptimalTree})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Simulate(plan, repro.DefaultParams(), repro.FPFS)
	}
}

// --- reliable-delivery benchmarks ---

// reliableShape is the reliable benchmarks' delivery: 31 destinations of
// the irregular testbed, ~16 packets of payload.
func reliableShape() (*repro.System, *repro.Plan, []byte) {
	sys := repro.NewIrregularSystem(repro.DefaultIrregularConfig(), 1)
	rng := workload.NewRNG(1)
	set := workload.DestSet(rng, 64, 32)
	payload := make([]byte, 700)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	return sys, sys.Plan(repro.Spec{Source: set[0], Dests: set[1:], Packets: 1, Policy: repro.OptimalTree}), payload
}

// benchReliable measures one reliable multicast of reliableShape under the
// given fault plan and reports the retransmission overhead as custom
// metrics.
func benchReliable(b *testing.B, fp repro.FaultPlan) {
	sys, plan, payload := reliableShape()
	cfg := repro.DefaultReliableConfig()
	var sends, retr int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := repro.DeliverReliable(sys, plan, payload, cfg, fp)
		if err != nil {
			b.Fatalf("reliable delivery failed: %v", err)
		}
		sends += res.Sends
		retr += res.Retransmits
	}
	b.ReportMetric(float64(sends)/float64(b.N), "sends/op")
	b.ReportMetric(float64(retr)/float64(b.N), "retransmits/op")
	b.ReportMetric(float64(retr)/float64(sends), "retransmit-frac")
}

// BenchmarkReliableLossless measures the reliable runtime's overhead on a
// fault-free switched network: the lossless engine's costs plus the
// runtime's timers, ACKs and supervision, zero retransmissions.
func BenchmarkReliableLossless(b *testing.B) {
	benchReliable(b, repro.FaultPlan{})
}

// TestReliableAllocationRegression pins the allocations of one lossless
// repro.DeliverReliable of BenchmarkReliableLossless's shape: the shipped
// reliable runtime (share, NIs, edge senders, supervisor) on sim.Engine in
// virtual time. The budget is the measured count plus 2%, so drift in the
// runtime or the event kernel fails here before it shows in a benchmark.
func TestReliableAllocationRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates AllocsPerRun")
	}
	sys, plan, payload := reliableShape()
	cfg := repro.DefaultReliableConfig()
	deliver := func() {
		if _, err := repro.DeliverReliable(sys, plan, payload, cfg, repro.FaultPlan{}); err != nil {
			t.Fatal(err)
		}
	}
	deliver()
	const measured = 3899
	if allocs := testing.AllocsPerRun(10, deliver); allocs > measured*1.02 {
		t.Fatalf("DeliverReliable allocates %.0f per run, budget %d + 2%%", allocs, measured)
	}
}

// BenchmarkReliableLossyP01 measures the same delivery at 1% packet loss:
// the retransmit-frac metric is the measured overhead to compare against
// the 1/(1-p) expectation (~1% extra sends at p = 0.01).
func BenchmarkReliableLossyP01(b *testing.B) {
	benchReliable(b, repro.FaultPlan{Seed: 1, DropRate: 0.01})
}

// BenchmarkSystemGeneration measures random testbed generation (topology +
// routing tables + CCO).
func BenchmarkSystemGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		repro.NewIrregularSystem(repro.DefaultIrregularConfig(), uint64(i))
	}
}

// BenchmarkNewMeshSystem4096 measures building a 64x64 mesh System
// (topology, dimension-order router, base ordering) — the construction
// cost every mcastsim run on a large fabric pays before it plans.
func BenchmarkNewMeshSystem4096(b *testing.B) {
	for i := 0; i < b.N; i++ {
		repro.NewMeshSystem(64, 2)
	}
}

// BenchmarkPlanOptimal100k measures one Plan at the scale experiment's
// largest size: the Theorem 3 search, the chain cut and the tree build
// for a broadcast to all 100,488 other hosts of a prebuilt 317x317 mesh.
func BenchmarkPlanOptimal100k(b *testing.B) {
	sys := repro.NewMeshSystem(317, 2)
	dests := make([]int, sys.Net.NumHosts()-1)
	for i := range dests {
		dests[i] = i + 1
	}
	spec := repro.Spec{Source: 0, Dests: dests, Packets: 2, Policy: repro.OptimalTree}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Plan(spec)
	}
}

// --- ablation and extension benchmarks ---

// BenchmarkAblOrdering regenerates the base-ordering ablation (identity vs
// CCO vs POC).
func BenchmarkAblOrdering(b *testing.B) { runExperiment(b, "abl-ordering") }

// BenchmarkAblFanoutSweep regenerates the fixed-k latency sweep showing
// the Theorem 3 U-shape.
func BenchmarkAblFanoutSweep(b *testing.B) { runExperiment(b, "abl-k") }

// BenchmarkAblNISensitivity regenerates the t_ns sensitivity study of the
// k-binomial speedup.
func BenchmarkAblNISensitivity(b *testing.B) { runExperiment(b, "abl-ni") }

// BenchmarkAblPlanMeasured regenerates the model-k vs measured-k planning
// comparison around the crossover band.
func BenchmarkAblPlanMeasured(b *testing.B) { runExperiment(b, "abl-plan") }

// BenchmarkCollectives regenerates the collective-operations extension
// table (multicast, scatter, gather, reduce, barrier).
func BenchmarkCollectives(b *testing.B) { runExperiment(b, "collectives") }

// BenchmarkMultipleMulticast regenerates the concurrent-multicast
// extension table.
func BenchmarkMultipleMulticast(b *testing.B) { runExperiment(b, "multi") }

// BenchmarkAblClusteredWorkload regenerates the clustered-vs-spread
// destination ablation.
func BenchmarkAblClusteredWorkload(b *testing.B) { runExperiment(b, "abl-cluster") }

// BenchmarkFlitLevelValidation regenerates the flit-level vs packet-level
// cross-validation table.
func BenchmarkFlitLevelValidation(b *testing.B) { runExperiment(b, "flitcheck") }

// BenchmarkAblNIPorts regenerates the multi-port NI injection ablation.
func BenchmarkAblNIPorts(b *testing.B) { runExperiment(b, "abl-ports") }

// BenchmarkAblMultipath regenerates the deterministic-vs-multipath route
// selection ablation.
func BenchmarkAblMultipath(b *testing.B) { runExperiment(b, "abl-path") }

// BenchmarkScale regenerates the 64/128/256-host scaling extension table.
func BenchmarkScale(b *testing.B) { runExperiment(b, "scale") }

// BenchmarkPacketSizeTradeoff regenerates the packet-size trade-off table.
func BenchmarkPacketSizeTradeoff(b *testing.B) { runExperiment(b, "pktsize") }
