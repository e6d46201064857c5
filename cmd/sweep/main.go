// Command sweep runs a custom one-axis parameter sweep of the multicast
// simulation and emits CSV, for exploration beyond the registered
// experiments.
//
// Usage:
//
//	sweep -axis m     [-values 1,2,4,8,16,32] [-dests 31] [-tree optimal]
//	sweep -axis dests [-values 3,7,15,31,47,63] [-packets 8]
//	sweep -axis k     [-values 1,2,3,4,5,6]    [-packets 8]
//	sweep -axis tns   [-values 1,2,3,6,12]     [-packets 16]
//	sweep -axis ports [-values 1,2,4,8]        [-packets 16]
//
// Every point is averaged over -trials destination sets on each of -topos
// random topologies, like the paper's methodology. -workers shards the
// (value, topology, trial) grid over that many goroutines; every cell is
// an independent deterministic simulation and the results fold back in
// grid order, so the CSV is byte-identical for every worker count.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/workload"
)

// hosts is the size of the testbed every point runs on; one host of a set
// is the source.
var hosts = repro.DefaultIrregularConfig().Hosts

// axes gives each sweep axis its default values and the legal range of a
// value: in (0, max], and for the count axes a whole number — a value is
// cast to int to run and printed as given, so 0 ports or 2.5 packets would
// label a row with something other than what was simulated.
var axes = map[string]struct {
	defaults string
	max      float64
	whole    bool
	legal    string
}{
	"m":     {"1,2,4,8,16,32", math.MaxInt32, true, "whole numbers >= 1"},
	"dests": {"3,7,15,31,47,63", float64(hosts - 1), true, fmt.Sprintf("whole numbers in [1, %d]", hosts-1)},
	"k":     {"1,2,3,4,5,6", math.MaxInt32, true, "whole numbers >= 1"},
	"tns":   {"1,2,3,6,12", math.MaxFloat64, false, "finite times > 0"},
	"ports": {"1,2,4,8", math.MaxInt32, true, "whole numbers >= 1"},
}

// checkFlags range-checks the axis values and the numeric flags before any
// topology is built.
func checkFlags(axis string, values []float64, dests, packets, trials, topos int) error {
	a := axes[axis]
	for _, v := range values {
		if !(v > 0 && v <= a.max) || a.whole && v != math.Trunc(v) {
			return fmt.Errorf("-values %v: axis %s takes %s", v, axis, a.legal)
		}
	}
	switch {
	case dests < 1 || dests > hosts-1:
		return fmt.Errorf("-dests %d: must be in [1, %d]", dests, hosts-1)
	case packets < 1:
		return fmt.Errorf("-packets %d: must be >= 1", packets)
	case trials < 1:
		return fmt.Errorf("-trials %d: must be >= 1", trials)
	case topos < 1:
		return fmt.Errorf("-topos %d: must be >= 1", topos)
	}
	return nil
}

func main() {
	axis := flag.String("axis", "m", "sweep axis: m, dests, k, tns, ports")
	valuesFlag := flag.String("values", "", "comma-separated axis values (defaults per axis)")
	dests := flag.Int("dests", 31, "destinations (fixed unless axis=dests)")
	packets := flag.Int("packets", 8, "packets (fixed unless axis=m)")
	treeKind := flag.String("tree", "optimal", "tree policy: optimal, binomial, linear (ignored for axis=k)")
	trials := flag.Int("trials", 10, "destination sets per topology")
	topos := flag.Int("topos", 4, "random topologies")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel grid workers (1 = serial)")
	flag.Parse()

	if _, ok := axes[*axis]; !ok {
		fmt.Fprintf(os.Stderr, "sweep: unknown axis %q\n", *axis)
		os.Exit(1)
	}
	vstr := *valuesFlag
	if vstr == "" {
		vstr = axes[*axis].defaults
	}
	var values []float64
	for _, s := range strings.Split(vstr, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: bad value %q\n", s)
			os.Exit(1)
		}
		values = append(values, v)
	}
	if err := checkFlags(*axis, values, *dests, *packets, *trials, *topos); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}

	var policy repro.TreePolicy
	switch *treeKind {
	case "optimal":
		policy = repro.OptimalTree
	case "binomial":
		policy = repro.BinomialTree
	case "linear":
		policy = repro.LinearTree
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown tree policy %q\n", *treeKind)
		os.Exit(1)
	}

	sweep := workload.Sweep{Trials: *trials, Topologies: *topos, BaseSeed: 0x5EED}
	systems := make([]*repro.System, *topos)
	for t := range systems {
		systems[t] = repro.NewIrregularSystem(repro.DefaultIrregularConfig(), sweep.TopologySeed(t))
	}

	// One grid cell per (axis value, topology, trial). Cells simulate in
	// parallel into cell-indexed storage; the statistics fold sequentially
	// in grid order below, which keeps the CSV bit-exact across -workers.
	perValue := *topos * sweep.Trials
	type cell struct{ latency, wait float64 }
	cells := make([]cell, len(values)*perValue)
	par.For(len(cells), *workers, func(j int) {
		v := values[j/perValue]
		t := j % perValue / sweep.Trials
		i := j % sweep.Trials
		rng := sweep.TrialRNG(t, i)
		params := repro.DefaultParams()
		dc, m, k := *dests, *packets, 0
		pol := policy
		switch *axis {
		case "m":
			m = int(v)
		case "dests":
			dc = int(v)
		case "k":
			k = int(v)
			pol = repro.FixedKTree
		case "tns":
			params.TNISend = v
		case "ports":
			params.NIPorts = int(v)
		}
		sys := systems[t]
		set := workload.DestSet(rng, hosts, dc)
		spec := repro.Spec{Source: set[0], Dests: set[1:], Packets: m, Policy: pol, K: k}
		res := sys.Simulate(sys.Plan(spec), params, repro.FPFS)
		cells[j] = cell{latency: res.Latency, wait: res.ChannelWait}
	})

	tb := stats.NewTable("", *axis, "latency_us_mean", "latency_us_std", "latency_us_p95", "channel_wait_us")
	for vi, v := range values {
		var lat stats.Sample
		var latSum, wait stats.Summary
		for _, c := range cells[vi*perValue : (vi+1)*perValue] {
			lat.Add(c.latency)
			latSum.Add(c.latency)
			wait.Add(c.wait)
		}
		tb.AddRow(
			strconv.FormatFloat(v, 'g', -1, 64),
			fmt.Sprintf("%.2f", latSum.Mean()),
			fmt.Sprintf("%.2f", latSum.Std()),
			fmt.Sprintf("%.2f", lat.P95()),
			fmt.Sprintf("%.2f", wait.Mean()),
		)
	}
	fmt.Print(tb.CSV())
}
