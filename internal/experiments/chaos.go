package experiments

import (
	"fmt"
	"math"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "chaos",
		Title: "Reliable multicast under dynamic faults: drop sweep vs 1/(1-p) model, mid-flight link-kill repair",
		Run:   runChaos,
	})
}

// chaosDropRates is the packet-loss sweep of the chaos experiment.
var chaosDropRates = []float64{0, 0.001, 0.01, 0.05}

const chaosPackets = 8

// chaosRow aggregates one (drop rate, tree policy) cell of the sweep.
type chaosRow struct {
	Latency     stats.Summary // reliable-delivery latency (us)
	DeltaP0     stats.Summary // reliable minus lossless engine latency (us)
	SendsFactor stats.Summary // injections per (tree edge, packet)
	Retransmits stats.Summary
	Duplicates  stats.Summary
	Model       float64 // 1/(1-p)
}

// Deviation returns the relative error of the measured send factor
// against the closed-form model, in percent.
func (r chaosRow) Deviation() float64 {
	d := (r.SendsFactor.Mean() - r.Model) / r.Model
	if d < 0 {
		d = -d
	}
	return 100 * d
}

// chaosPayload draws a deterministic m-packet payload from the trial RNG.
func chaosPayload(rng *workload.RNG, m int, p sim.Params) []byte {
	data := make([]byte, m*(p.PacketBytes-message.HeaderSize))
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	return data
}

// chaosSweepCell runs the full sweep methodology for one drop rate and
// tree policy: every sweep topology x trial draws a broadcast set, a
// payload, and a fault seed from the trial RNG, delivers reliably, and
// cross-checks the lossless engine on the same plan.
func chaosSweepCell(cfg Config, sys []*core.System, drop float64, policy core.TreePolicy) chaosRow {
	rcfg := reliable.DefaultConfig()
	rcfg.Params = cfg.Params
	sums := sweep(cfg, func(t int, rng *workload.RNG) []float64 {
		s := sys[t]
		plan := s.Plan(draw(s, rng, s.Net.NumHosts()-1, chaosPackets, policy))
		payload := chaosPayload(rng, chaosPackets, cfg.Params)
		res, err := live.Deliver(s, plan, payload, rcfg, fault.Plan{
			Seed:     rng.Uint64(),
			DropRate: drop,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: chaos delivery failed at p=%g: %v", drop, err))
		}
		// Compared at the run clock's resolution, the nanosecond.
		lossless := math.Round(sim.Multicast(s.Router, plan.Tree, res.Packets, cfg.Params, stepsim.FPFS).Latency*1e3) / 1e3
		edges := plan.Tree.Size() - 1
		latency := link.US(res.Latency)
		return []float64{latency, latency - lossless,
			float64(res.Sends) / float64(edges*res.Packets),
			float64(res.Retransmits), float64(res.Duplicates)}
	})
	return chaosRow{Latency: sums[0], DeltaP0: sums[1], SendsFactor: sums[2],
		Retransmits: sums[3], Duplicates: sums[4], Model: analytic.ExpectedSendsFactor(drop)}
}

// chaosKillLink finds a switch-switch link carrying at least one
// tree-edge route whose removal keeps the switch graph connected.
func chaosKillLink(s *core.System, plan *core.Plan) (int, bool) {
	for _, e := range plan.Tree.Edges() {
		for _, c := range s.Router.Route(e.Parent, e.Child).Channels {
			link := s.Net.Link(c / 2)
			if link.A.Kind != topology.SwitchNode || link.B.Kind != topology.SwitchNode {
				continue
			}
			if _, err := s.WithoutLinkChecked(link.ID); err == nil {
				return link.ID, true
			}
		}
	}
	return -1, false
}

func runChaos(cfg Config) *Result {
	sys := systems(cfg)
	res := &Result{
		ID:    "chaos",
		Title: "Reliable multicast under dynamic faults",
	}

	sweep := stats.NewTable(
		fmt.Sprintf("drop sweep: 64-host irregular broadcast, m=%d, %d topologies x %d trials",
			chaosPackets, cfg.Sweep.Topologies, cfg.Sweep.Trials),
		"drop", "tree", "latency us", "vs lossless us", "sends/edge/pkt", "model 1/(1-p)", "dev %", "retx", "dups")
	for _, drop := range chaosDropRates {
		for _, policy := range []core.TreePolicy{core.OptimalTree, core.BinomialTree, core.LinearTree} {
			row := chaosSweepCell(cfg, sys, drop, policy)
			sweep.AddRow(
				fmt.Sprintf("%g", drop),
				policy.String(),
				fmt.Sprintf("%.3f", row.Latency.Mean()),
				fmt.Sprintf("%.3f", row.DeltaP0.Mean()),
				fmt.Sprintf("%.4f", row.SendsFactor.Mean()),
				fmt.Sprintf("%.4f", row.Model),
				fmt.Sprintf("%.2f", row.Deviation()),
				fmt.Sprintf("%.1f", row.Retransmits.Mean()),
				fmt.Sprintf("%.1f", row.Duplicates.Mean()),
			)
		}
	}
	res.Tables = append(res.Tables, sweep)

	// Mid-flight link-kill demo on the first sweep topology: a data-path
	// link dies a third of the way into a lossless-paced broadcast.
	s := sys[0]
	rcfg := reliable.DefaultConfig()
	rcfg.Params = cfg.Params
	spec := core.Spec{Source: 0, Dests: seqHosts(1, s.Net.NumHosts()-1), Packets: chaosPackets, Policy: core.OptimalTree}
	plan := s.Plan(spec)
	payload := chaosPayload(workload.NewRNG(cfg.Sweep.BaseSeed), chaosPackets, cfg.Params)
	kill := stats.NewTable("mid-flight link kill, topology 0, optimal tree",
		"scenario", "latency us", "sends", "retx", "repairs", "dead sends", "orphaned")
	lossless, err := live.Deliver(s, plan, payload, rcfg, fault.Plan{})
	if err != nil {
		panic(fmt.Sprintf("experiments: chaos lossless delivery failed: %v", err))
	}
	addKillRow(kill, "no faults", lossless)
	if killed, ok := chaosKillLink(s, plan); ok {
		at := cfg.Params.THostSend + (link.US(lossless.Latency)-cfg.Params.THostSend)/3
		repaired, err := live.Deliver(s, plan, payload, rcfg, fault.Plan{
			Kills: []fault.Kill{{Link: killed, At: at}},
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: chaos repair delivery failed: %v", err))
		}
		addKillRow(kill, fmt.Sprintf("link %d killed at %.1f us (repaired)", killed, at), repaired)
		res.Notes = append(res.Notes,
			fmt.Sprintf("link kill severed %d transmissions; %d repair(s) re-parented the subtree and all %d destinations completed byte-exactly",
				repaired.Faults.DeadSends, repaired.Adoptions, len(repaired.Hosts)-1-len(repaired.Orphaned)))
	}
	victim := spec.Dests[len(spec.Dests)-1]
	partitioned, err := live.Deliver(s, plan, payload, rcfg, fault.Plan{
		Kills: []fault.Kill{{Link: s.Net.HostLink(victim).ID, At: cfg.Params.THostSend}},
	})
	if err == nil {
		panic("experiments: severing a host link must partition it away")
	}
	addKillRow(kill, fmt.Sprintf("host %d's only link killed (partition)", victim), partitioned)
	res.Tables = append(res.Tables, kill)

	res.Notes = append(res.Notes,
		"the reliable runtime runs in virtual time over the switched network, each frame paying the lossless engine's costs; ACKs are lossless in this sweep, so expected injections per (edge, packet) follow the stop-and-wait closed form 1/(1-p); a loss costs one retransmission timeout (one lossless multicast of the plan), and at p=0 the reliable run reproduces the lossless engine to the nanosecond (column 'vs lossless us' = 0)")
	return res
}

func addKillRow(t *stats.Table, scenario string, r *live.ReliableResult) {
	t.AddRow(scenario,
		fmt.Sprintf("%.3f", link.US(r.Latency)),
		fmt.Sprintf("%d", r.Sends),
		fmt.Sprintf("%d", r.Retransmits),
		fmt.Sprintf("%d", r.Adoptions),
		fmt.Sprintf("%d", r.Faults.DeadSends),
		fmt.Sprintf("%d", len(r.Orphaned)),
	)
}

func seqHosts(lo, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
