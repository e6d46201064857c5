// Command collectives runs one collective operation on the paper's
// irregular testbed and reports the latency breakdown.
//
// Usage:
//
//	collectives [-op broadcast|multicast|scatter|gather|reduce|barrier]
//	            [-seed 1] [-dests 15] [-packets 8] [-tree optimal|binomial|linear]
//
// Example:
//
//	$ collectives -op reduce -dests 47 -packets 8
//	reduce over 47 participants, 8 packets, k=2 tree: 131.0 us (376 sends)
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro"
	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/workload"
)

// checkFlags range-checks the numeric flags against a testbed of the
// given host count, before anything is built.
func checkFlags(hosts, dests, packets int, combine float64) error {
	switch {
	case dests < 1 || dests > hosts-1:
		return fmt.Errorf("-dests %d: must be in [1, %d] (the testbed has %d hosts, one is the source)", dests, hosts-1, hosts)
	case packets < 1:
		return fmt.Errorf("-packets %d: must be >= 1", packets)
	case !(combine >= 0) || math.IsInf(combine, 1):
		return fmt.Errorf("-combine %v: must be a finite time >= 0", combine)
	}
	return nil
}

func main() {
	op := flag.String("op", "broadcast", "operation: broadcast, multicast, scatter, gather, reduce, barrier")
	seed := flag.Uint64("seed", 1, "topology seed")
	dests := flag.Int("dests", 15, "number of destinations (ignored for broadcast)")
	packets := flag.Int("packets", 8, "message length in packets")
	treeKind := flag.String("tree", "optimal", "tree policy: optimal, binomial, linear")
	wseed := flag.Uint64("wseed", 7, "workload seed")
	combine := flag.Float64("combine", 0, "per-packet combining cost for reduce (us)")
	flag.Parse()
	cfg := repro.DefaultIrregularConfig()
	if err := checkFlags(cfg.Hosts, *dests, *packets, *combine); err != nil {
		fmt.Fprintln(os.Stderr, "collectives:", err)
		os.Exit(2)
	}

	sys := repro.NewIrregularSystem(cfg, *seed)
	params := repro.DefaultParams()

	var policy core.TreePolicy
	switch *treeKind {
	case "optimal":
		policy = core.OptimalTree
	case "binomial":
		policy = core.BinomialTree
	case "linear":
		policy = core.LinearTree
	default:
		fmt.Fprintf(os.Stderr, "collectives: unknown tree policy %q\n", *treeKind)
		os.Exit(1)
	}

	set := workload.DestSet(workload.NewRNG(*wseed), sys.Net.NumHosts(), *dests)
	spec := core.Spec{Source: set[0], Dests: set[1:], Packets: *packets, Policy: policy}

	var res *collectives.Result
	switch *op {
	case "broadcast":
		res = collectives.Broadcast(sys, set[0], *packets, policy, params)
		spec.Dests = nil // for reporting below
	case "multicast":
		res = collectives.Multicast(sys, spec, params)
	case "scatter":
		res = collectives.Scatter(sys, spec, params)
	case "gather":
		res = collectives.Gather(sys, spec, params)
	case "reduce":
		res = collectives.Reduce(sys, spec, collectives.ReduceParams{Sim: params, TCombine: *combine})
	case "barrier":
		res = collectives.Barrier(sys, spec, params)
	default:
		fmt.Fprintf(os.Stderr, "collectives: unknown operation %q\n", *op)
		os.Exit(1)
	}

	participants := *dests
	if *op == "broadcast" {
		participants = sys.Net.NumHosts() - 1
	}
	fmt.Printf("system: %s (seed %d)\n", sys.Net.Summary(), *seed)
	fmt.Printf("%s over %d participants, %d packets, k=%d tree: %.1f us (%d sends",
		*op, participants, *packets, res.K, res.Latency, res.Sends)
	if res.ChannelWait > 0 {
		fmt.Printf(", %.1f us channel wait", res.ChannelWait)
	}
	fmt.Println(")")
}
