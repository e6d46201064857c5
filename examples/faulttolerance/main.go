// faulttolerance demonstrates recovery from link failures at two
// timescales.
//
// Part 1 — static rebuild: switch-switch links fail between multicasts;
// routing tables and the CCO ordering are rebuilt on the degraded
// network, and the same optimal multicast keeps completing at slowly
// increasing latency.
//
// Part 2 — mid-flight repair: a link on the multicast's own data path is
// killed while packets are streaming. The reliable-delivery protocol
// detects the starved subtree from retransmission timeouts, re-parents
// it onto a fresh k-binomial subtree routed around the dead link, and
// every destination still receives the message byte-exactly.
//
//	go run ./examples/faulttolerance
package main

import (
	"bytes"
	"fmt"

	"repro"
	"repro/internal/live/link"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	staticRebuild()
	midFlightRepair()
}

// staticRebuild is the pre-run recovery story: plan on a degraded
// network, multicast losslessly.
func staticRebuild() {
	sys := repro.NewIrregularSystem(repro.DefaultIrregularConfig(), 31)
	params := repro.DefaultParams()
	rng := workload.NewRNG(17)

	set := workload.DestSet(rng, 64, 31)
	spec := repro.Spec{Source: set[0], Dests: set[1:], Packets: 8, Policy: repro.OptimalTree}

	fmt.Printf("machine: %s\n", sys.Net.Summary())
	fmt.Printf("workload: %d destinations, %d packets, optimal k-binomial tree\n\n",
		len(spec.Dests), spec.Packets)
	fmt.Println("part 1: links fail BETWEEN multicasts; plans rebuild on the degraded network")
	fmt.Printf("%-10s %-28s %10s %12s\n", "failures", "failed link", "latency", "chan wait")

	report := func(failures int, desc string) {
		res := sys.Simulate(sys.Plan(spec), params, repro.FPFS)
		fmt.Printf("%-10d %-28s %8.1fus %10.1fus\n", failures, desc, res.Latency, res.ChannelWait)
	}
	report(0, "(healthy)")

	failures := 0
	for attempt := 0; attempt < 100 && failures < 6; attempt++ {
		links := sys.Net.Links()
		l := links[rng.Intn(len(links))]
		if l.A.Kind != topology.SwitchNode || l.B.Kind != topology.SwitchNode {
			continue
		}
		if !sys.Net.WithoutLink(l.ID).Connected() {
			fmt.Printf("%-10s %-28s %10s %12s\n", "-", fmt.Sprintf("%v-%v would partition", l.A, l.B), "skipped", "")
			continue
		}
		sys = sys.WithoutLink(l.ID)
		failures++
		report(failures, fmt.Sprintf("%v-%v", l.A, l.B))
	}
	fmt.Println()
}

// midFlightRepair kills a data-path link DURING the multicast and lets
// the reliable protocol recover without replanning from scratch.
func midFlightRepair() {
	sys := repro.NewIrregularSystem(repro.DefaultIrregularConfig(), 31)
	cfg := repro.DefaultReliableConfig()
	rng := workload.NewRNG(23)

	set := workload.DestSet(rng, 64, 63)
	spec := repro.Spec{Source: set[0], Dests: set[1:], Packets: 8, Policy: repro.OptimalTree}
	plan := sys.Plan(spec)

	payload := make([]byte, 2048)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}

	fmt.Println("part 2: a data-path link dies WHILE packets are streaming (reliable protocol)")

	lossless, err := repro.DeliverReliable(sys, plan, payload, cfg, repro.FaultPlan{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("  lossless: latency %.1fus, %d sends, 0 retransmits\n",
		link.US(lossless.Latency), lossless.Sends)

	// Find a killable link on the tree's own data path: switch-switch and
	// removable without partitioning the fabric.
	kill := -1
	for _, e := range plan.Tree.Edges() {
		for _, c := range sys.Router.Route(e.Parent, e.Child).Channels {
			l := sys.Net.Link(c / 2)
			if l.A.Kind != topology.SwitchNode || l.B.Kind != topology.SwitchNode {
				continue
			}
			if _, err := sys.WithoutLinkChecked(l.ID); err == nil {
				kill = l.ID
			}
			break
		}
		if kill >= 0 {
			break
		}
	}
	if kill < 0 {
		panic("no killable data-path link")
	}
	at := cfg.Params.THostSend + (link.US(lossless.Latency)-cfg.Params.THostSend)/3
	dead := sys.Net.Link(kill)
	fmt.Printf("  killing link %d (%v-%v) at t=%.1fus, a third into the lossless schedule\n",
		kill, dead.A, dead.B, at)

	res, err := repro.DeliverReliable(sys, plan, payload, cfg, repro.FaultPlan{
		Kills: []repro.LinkKill{{Link: kill, At: at}},
	})
	if err != nil {
		panic(err)
	}
	exact := 0
	for _, d := range spec.Dests {
		if bytes.Equal(res.Hosts[d].Data, payload) {
			exact++
		}
	}
	fmt.Printf("  repaired: latency %.1fus, %d sends (%d retransmits), %d dead-link sends,\n",
		link.US(res.Latency), res.Sends, res.Retransmits, res.Faults.DeadSends)
	fmt.Printf("            %d tree repair(s), %d duplicates suppressed, %d/%d destinations byte-exact\n",
		res.Adoptions, res.Duplicates, exact, len(spec.Dests))

	fmt.Println("\nretransmission timeouts expose the severed subtree; the protocol rebuilds")
	fmt.Println("up*/down* routing around the dead link, re-parents the orphans onto a fresh")
	fmt.Println("k-binomial subtree (the paper's construction, reused), and replays the")
	fmt.Println("packets the new parent already holds — receivers discard the duplicates.")
}
