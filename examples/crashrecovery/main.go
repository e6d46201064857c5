// crashrecovery demonstrates crash-tolerant multicast sessions: the
// root's first child — an interior forwarder carrying a whole subtree —
// crash-stops while packets are streaming.
//
// Part 1 — crash-stop with a quorum: the heartbeat failure detector
// confirms the silent host, the group installs an epoch-numbered view
// without it, in-flight traffic from the old view is fenced off, and the
// orphaned subtree is adopted by its nearest live ancestor via a fresh
// contention-free k-binomial construction (the paper's Fig. 11, re-run
// over the survivors). The session ends delivered-partial: every
// survivor byte-exact, only the crashed host missing.
//
// Part 2 — crash with recovery: the same host comes back mid-session
// with empty buffers, resumes heartbeats, and is re-admitted by a third
// view; the root replays the full message to it and the session ends
// fully delivered.
//
//	go run ./examples/crashrecovery
package main

import (
	"bytes"
	"fmt"

	"repro"
	"repro/internal/live/link"
	"repro/internal/workload"
)

func main() {
	sys := repro.NewIrregularSystem(repro.DefaultIrregularConfig(), 31)
	cfg := repro.DefaultReliableConfig()
	rng := workload.NewRNG(23)

	set := workload.DestSet(rng, 64, 31)
	spec := repro.Spec{Source: set[0], Dests: set[1:], Packets: 8, Policy: repro.OptimalTree}
	plan := sys.Plan(spec)

	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}

	// The victim: the root's first child, which forwards to a subtree.
	victim := plan.Tree.Children(plan.Tree.Root())[0]
	subtree := len(plan.Tree.SubtreeNodes(victim))
	fmt.Printf("machine: %s\n", sys.Net.Summary())
	fmt.Printf("workload: %d destinations, %d packets; victim h%d forwards a %d-host subtree\n\n",
		len(spec.Dests), spec.Packets, victim, subtree)

	fmt.Println("part 1: the victim crash-stops at t=25us (quorum = survivors)")
	cfg.Quorum = len(spec.Dests) - 1
	res, err := repro.DeliverReliable(sys, plan, payload, cfg, repro.FaultPlan{
		Crashes: []repro.HostCrash{{Host: victim, At: 25}},
	})
	if err != nil {
		panic(err)
	}
	report(res, payload, spec.Dests)

	fmt.Println("\npart 2: the same crash, but the host recovers at t=300us")
	res, err = repro.DeliverReliable(sys, plan, payload, cfg, repro.FaultPlan{
		Crashes: []repro.HostCrash{{Host: victim, At: 25, RecoverAt: 300}},
	})
	if err != nil {
		panic(err)
	}
	report(res, payload, spec.Dests)

	fmt.Println("\nthe detector confirms the silent host from missed heartbeats, the epoch")
	fmt.Println("advance fences the stale in-flight traffic, and the orphans are adopted by")
	fmt.Println("re-running the contention-free construction over the survivors; a recovered")
	fmt.Println("host rejoins with empty buffers and gets the whole message replayed.")
}

func report(res *repro.ReliableResult, payload []byte, dests []int) {
	exact := 0
	for _, d := range dests {
		if bytes.Equal(res.Hosts[d].Data, payload) {
			exact++
		}
	}
	fmt.Printf("  status %s: %d/%d destinations byte-exact, latency %.1fus\n",
		res.Status, exact, len(dests), link.US(res.Latency))
	fmt.Printf("  %d sends (%d retransmits), %d crash-dropped, %d fenced, %d adoption(s)\n",
		res.Sends, res.Retransmits, res.Faults.CrashDrops, res.Fenced, res.Adoptions)
	for i, v := range res.Views {
		if i == 0 {
			fmt.Printf("  view epoch %d: initial, %d members\n", v.Epoch, len(v.Members))
		} else {
			fmt.Printf("  view epoch %d @ %.1fus: %d members\n", v.Epoch, v.At, len(v.Members))
		}
	}
}
