// Command mcastsim runs one multicast simulation on the paper's irregular
// testbed and reports the plan and the measured result.
//
// Usage:
//
//	mcastsim [-seed 1] [-dests 15] [-packets 8] [-tree optimal|binomial|linear|k]
//	         [-k 3] [-ni fpfs|fcfs|conventional] [-model packet|flit]
//	         [-mesh AxD] [-workers N]
//	         [-wseed 7] [-verbose] [-timeline] [-trace-json FILE]
//	         [-live]
//	         [-sessions N] [-window W]
//	         [-reliable] [-droprate 0.01] [-faults "kill:74@40,corrupt:0.01"] [-retries 8]
//	         [-crash HOST@T] [-crash HOST@T@RT] [-quorum Q]
//
// Example:
//
//	$ mcastsim -dests 47 -packets 8 -tree optimal
//	system: 64 hosts, 16 switches, 101 links (seed 1)
//	plan:   k=2 tree depth=9 root degree=2, model bound 21 steps
//	result: latency 131.9 us, 376 sends, channel wait 3.2 us
//
// With -reliable (or any fault flag) the run uses the ACK/NACK
// retransmission protocol of internal/reliable: packets carry real
// headers and payloads, losses are retransmitted, and killed links are
// routed around mid-flight. -faults is a comma-separated list of
// directives: kill:LINK@T, stall:HOST@FROM-UNTIL, corrupt:P, ackdrop:P,
// seed:N.
//
// -crash HOST@T crash-stops a host at time T (microseconds); the
// repeatable -crash HOST@T@RT form recovers it at RT. Crashes arm the
// heartbeat failure detector: the run prints every epoch-numbered group
// view installed while the session reconfigured, and -quorum Q accepts a
// partial delivery of at least Q destinations instead of failing.
//
// -workers N runs the packet-model simulation under the windowed
// scheduler (internal/psim) instead of the serial loop: the same session
// model, with hosts partitioned across N workers that process
// conservative lookahead windows in parallel, and a result that is
// byte-identical to the serial one at any worker count. -mesh ARITYxDIMS
// swaps the irregular testbed for a mesh, which is how the 100k-host
// configurations are built:
//
//	mcastsim -mesh 317x2 -dests 100488 -packets 2 -tree k -k 4 -workers 4
//
// -live executes the plan for real instead of simulating it: one
// goroutine per participating NI runs the FPFS discipline over channel
// links (internal/live), real wire-format packets are reassembled and
// verified at every destination, and the report puts the measured
// wall-clock latency next to the simulator's prediction for the same
// plan. Live runs support -ni fpfs -model packet.
//
// -sessions N is the sustained-load mode: N concurrent sessions with
// rotating seeded destination sets run through the session scheduler
// (internal/sched) on one shared live fabric — bounded admission window
// (-window), sharded injection, deficit-round-robin fair queueing at
// every NI, and congestion-aware tree planning against the in-flight
// edge census. The report gives sustained sessions/sec and p50/p99
// end-to-end completion latency:
//
//	mcastsim -sessions 10000 -dests 12 -packets 4 -window 256
//
// -net (with -live) swaps the channel links for real loopback UDP
// sockets: every tree edge is dialed over internal/live/link's datagram
// transport, with MTU fragmentation, checksums, and credit-based
// backpressure on the wire. It composes with the fault flags — the
// chaos decorator then drops/corrupts real datagrams.
//
// Combining -live with fault flags runs the chaos-hardened reliable live
// engine: the transport is wrapped in a seeded fault-injection decorator
// and delivery rides real retransmission timers, live heartbeats, and
// epoch-fenced reconfiguration. Because the live plane works on the wall
// clock, fault times are MILLISECONDS there (the simulator flags use
// microseconds), and the -faults directives differ slightly: kill is
// per directed host pair, and jitter/reorder appear:
//
//	mcastsim -live -droprate 0.05 -crash 19@4 -quorum 1
//	mcastsim -live -faults "kill:7-12@5,jitter:0.5,reorder:0.1,seed:3"
//
// Live directives: kill:FROM-TO@Tms, stall:HOST@FROM-UNTILms, corrupt:P,
// reorder:P, ackdrop:P, jitter:Dms, seed:N. -live-timeout bounds the
// watchdog (default 30s).
//
// -trace-json FILE writes the run's event trace (simulated, or live when
// combined with -live) in Chrome trace-event format, viewable in
// about://tracing or ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/flitsim"
	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/membership"
	"repro/internal/message"
	"repro/internal/psim"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	seed := flag.Uint64("seed", 1, "topology seed")
	dests := flag.Int("dests", 15, "number of destinations (1..63)")
	packets := flag.Int("packets", 8, "message length in packets")
	treeKind := flag.String("tree", "optimal", "tree policy: optimal, binomial, linear, or k (with -k)")
	k := flag.Int("k", 2, "fanout bound for -tree k")
	ni := flag.String("ni", "fpfs", "NI discipline: fpfs, fcfs, conventional")
	wseed := flag.Uint64("wseed", 7, "workload (destination set) seed")
	verbose := flag.Bool("verbose", false, "print per-destination completion times")
	timeline := flag.Bool("timeline", false, "print an ASCII per-host activity timeline")
	traceJSON := flag.String("trace-json", "", "write the event trace to FILE in Chrome trace-event format")
	liveRun := flag.Bool("live", false, "execute the multicast on the live goroutine runtime instead of simulating")
	sessions := flag.Int("sessions", 0, "sustained-load mode: run N concurrent sessions through the session scheduler on one shared live fabric")
	window := flag.Int("window", 64, "with -sessions: admission window (max sessions in flight)")
	netRun := flag.Bool("net", false, "with -live: dial every tree edge over a loopback UDP socket instead of channel links")
	liveTimeout := flag.Duration("live-timeout", 0, "watchdog timeout for -live runs (0 = the 30s default)")
	model := flag.String("model", "packet", "network model: packet (fast reservation) or flit (cycle-accurate wormhole)")
	mesh := flag.String("mesh", "", "use an ARITYxDIMS mesh instead of the irregular testbed (e.g. 317x2 = 100489 hosts)")
	workers := flag.Int("workers", 0, "simulate under the windowed parallel scheduler with N workers (0 = serial loop)")
	reliableRun := flag.Bool("reliable", false, "use the ACK/NACK reliable-delivery protocol (implied by any fault flag)")
	droprate := flag.Float64("droprate", 0, "per-transmission packet loss probability [0,1)")
	faultSpec := flag.String("faults", "", "fault directives: kill:LINK@T,stall:HOST@FROM-UNTIL,corrupt:P,ackdrop:P,seed:N")
	retries := flag.Int("retries", 8, "retransmissions per (tree edge, packet) before orphaning")
	var crashes crashFlags
	flag.Var(&crashes, "crash", "crash a host: HOST@T (crash-stop) or HOST@T@RT (recover at RT); repeatable")
	quorum := flag.Int("quorum", 0, "destinations required for partial delivery under crashes (0 = all)")
	flag.Parse()

	var sys *repro.System
	if *mesh != "" {
		arity, dims, err := parseMesh(*mesh)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcastsim: -mesh: %v\n", err)
			os.Exit(1)
		}
		sys = repro.NewMeshSystem(arity, dims)
	} else {
		sys = repro.NewIrregularSystem(repro.DefaultIrregularConfig(), *seed)
	}

	if *workers > 0 && (*liveRun || *sessions > 0 || *reliableRun || *droprate > 0 || *faultSpec != "" || len(crashes) > 0 || *model == "flit") {
		fmt.Fprintln(os.Stderr, "mcastsim: -workers applies to the packet-model simulation path only (not -live, -sessions, -model flit, or fault/reliable runs)")
		os.Exit(1)
	}

	var policy repro.TreePolicy
	switch *treeKind {
	case "optimal":
		policy = repro.OptimalTree
	case "binomial":
		policy = repro.BinomialTree
	case "linear":
		policy = repro.LinearTree
	case "k":
		policy = repro.FixedKTree
	default:
		fmt.Fprintf(os.Stderr, "mcastsim: unknown tree policy %q\n", *treeKind)
		os.Exit(1)
	}

	var disc repro.Discipline
	switch *ni {
	case "fpfs":
		disc = repro.FPFS
	case "fcfs":
		disc = repro.FCFS
	case "conventional":
		disc = repro.Conventional
	default:
		fmt.Fprintf(os.Stderr, "mcastsim: unknown NI discipline %q\n", *ni)
		os.Exit(1)
	}

	if *dests < 1 || *dests >= sys.Net.NumHosts() {
		fmt.Fprintf(os.Stderr, "mcastsim: dests must be in 1..%d\n", sys.Net.NumHosts()-1)
		os.Exit(1)
	}

	if *sessions > 0 {
		fmt.Printf("system: %s (seed %d)\n", sys.Net.Summary(), *seed)
		runSched(sys, *sessions, *dests, *packets, *window, *wseed, *verbose)
		return
	}

	set := workload.DestSet(workload.NewRNG(*wseed), sys.Net.NumHosts(), *dests)
	spec := repro.Spec{Source: set[0], Dests: set[1:], Packets: *packets, Policy: policy, K: *k}
	if err := sys.Validate(spec); err != nil {
		fmt.Fprintf(os.Stderr, "mcastsim: %v\n", err)
		os.Exit(1)
	}
	plan := sys.Plan(spec)

	if *liveRun {
		if *ni != "fpfs" || *model != "packet" {
			fmt.Fprintln(os.Stderr, "mcastsim: -live supports -ni fpfs -model packet only")
			os.Exit(1)
		}
		fmt.Printf("system: %s (seed %d)\n", sys.Net.Summary(), *seed)
		if *reliableRun || *droprate > 0 || *faultSpec != "" || len(crashes) > 0 || *quorum > 0 {
			runLiveReliable(sys, plan, *droprate, *faultSpec, crashes, *quorum, *retries, *liveTimeout, *wseed, *verbose, *netRun)
			return
		}
		runLive(sys, plan, *liveTimeout, *wseed, *verbose, *traceJSON, *netRun)
		return
	}
	if *netRun {
		fmt.Fprintln(os.Stderr, "mcastsim: -net requires -live")
		os.Exit(1)
	}

	if *reliableRun || *droprate > 0 || *faultSpec != "" || len(crashes) > 0 {
		if *ni != "fpfs" || *model != "packet" {
			fmt.Fprintln(os.Stderr, "mcastsim: reliable delivery supports -ni fpfs -model packet only")
			os.Exit(1)
		}
		fmt.Printf("system: %s (seed %d)\n", sys.Net.Summary(), *seed)
		runReliable(sys, plan, *droprate, *faultSpec, crashes, *quorum, *retries, *wseed, *verbose)
		return
	}

	if *model == "flit" {
		fres := flitsim.MulticastDisc(sys.Router, plan.Tree, spec.Packets, flitsim.DefaultParams(), disc)
		fmt.Printf("system: %s (seed %d)\n", sys.Net.Summary(), *seed)
		fmt.Printf("spec:   source h%d, %d destinations, %d packets, %s tree, %s NI (flit-level)\n",
			spec.Source, len(spec.Dests), spec.Packets, policy, disc)
		fmt.Printf("plan:   k=%d, tree depth=%d, root degree=%d\n",
			plan.K, plan.Tree.Depth(), plan.Tree.RootDegree())
		fmt.Printf("result: latency %.1f us (%d cycles), %d injections, peak path hold %d cycles\n",
			fres.Latency, fres.Cycles, fres.Injections, fres.PeakChannelHold)
		return
	}
	if *model != "packet" {
		fmt.Fprintf(os.Stderr, "mcastsim: unknown model %q\n", *model)
		os.Exit(1)
	}
	// One packet-model path: the serial loop and the windowed scheduler
	// run the same session model, so only the engine call and the psim:
	// line differ.
	p := repro.DefaultParams()
	one := []sim.Session{{Tree: plan.Tree, Packets: spec.Packets}}
	traced := *timeline || *traceJSON != ""
	var (
		res    *sim.ConcurrentResult
		events []sim.TraceEvent
		ws     psim.WindowStats
		engine string
	)
	if *workers > 0 {
		engine = " (parallel engine)"
		res, events = psim.ConcurrentTraced(sys.Router, one, p, disc, traced,
			psim.Config{Workers: *workers, Stats: &ws})
	} else {
		res, events = sim.ConcurrentTraced(sys.Router, one, p, disc, traced)
	}
	maxBuf := 0
	for _, b := range res.MaxBuffered {
		maxBuf = max(maxBuf, b)
	}

	fmt.Printf("system: %s (seed %d)\n", sys.Net.Summary(), *seed)
	fmt.Printf("spec:   source h%d, %d destinations, %d packets, %s tree, %s NI%s\n",
		spec.Source, len(spec.Dests), spec.Packets, policy, disc, engine)
	fmt.Printf("plan:   k=%d, tree depth=%d, root degree=%d, model bound %d steps, measured %d steps\n",
		plan.K, plan.Tree.Depth(), plan.Tree.RootDegree(), plan.ModelSteps, plan.Steps())
	fmt.Printf("result: latency %.1f us, %d sends, channel wait %.1f us, peak NI buffer %d packets\n",
		res.Sessions[0].Latency, res.Sends, res.ChannelWait, maxBuf)
	if *workers > 0 {
		fmt.Printf("psim:   %d workers, %d windows of lookahead %.2f us, %d events (%.0f/window, min %.0f max %.0f), %d cross-partition deliveries\n",
			ws.Workers, ws.Windows, ws.Lookahead, ws.Events,
			ws.PerWindow.Mean(), ws.PerWindow.Min(), ws.PerWindow.Max(), ws.Mailed)
	}

	if *verbose {
		fmt.Println("\nper-destination completion (us):")
		for _, d := range plan.Chain[1:] {
			fmt.Printf("  h%-3d %8.1f\n", d, res.Sessions[0].HostDone[d])
		}
		fmt.Println("\nchain order: " + joinInts(plan.Chain))
	}
	if *timeline {
		fmt.Println()
		fmt.Print(trace.Timeline(events, trace.TimelineOptions{Width: 100, Session: -1}))
		fmt.Println()
		fmt.Print(trace.Collect(events).String())
	}
	if *traceJSON != "" {
		writeChromeTrace(*traceJSON, events)
	}
}

// parseMesh parses an "ARITYxDIMS" mesh geometry like "317x2".
func parseMesh(spec string) (arity, dims int, err error) {
	a, d, ok := strings.Cut(spec, "x")
	if !ok {
		return 0, 0, fmt.Errorf("geometry %q is not ARITYxDIMS", spec)
	}
	arity, err1 := strconv.Atoi(a)
	dims, err2 := strconv.Atoi(d)
	if err1 != nil || err2 != nil || arity < 2 || dims < 1 {
		return 0, 0, fmt.Errorf("geometry %q: arity must be >= 2 and dims >= 1", spec)
	}
	return arity, dims, nil
}

// runSched is the sustained-load mode: n sessions with rotating seeded
// destination sets are pushed through one sched.Scheduler over a shared
// live fabric spanning every host. Each session's tree is planned
// against the scheduler's in-flight edge census (the simultaneous-
// multicast objective), admission is bounded by the window, and the
// report gives sustained throughput plus the p50/p99 end-to-end
// completion latency.
func runSched(sys *repro.System, n, dests, packets, window int, wseed uint64, verbose bool) {
	if dests < 1 || dests >= sys.Net.NumHosts() {
		fmt.Fprintf(os.Stderr, "mcastsim: dests must be in 1..%d\n", sys.Net.NumHosts()-1)
		os.Exit(1)
	}
	p := repro.DefaultParams()
	hosts := make([]int, sys.Net.NumHosts())
	for i := range hosts {
		hosts[i] = i
	}
	s, err := sched.New(hosts, sched.Config{Window: window, QueueDepth: n})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcastsim: scheduler: %v\n", err)
		os.Exit(1)
	}
	defer s.Close()

	rng := workload.NewRNG(wseed ^ 0x9e3779b97f4a7c15)
	type submitted struct {
		h       *sched.Handle
		payload []byte
		dests   []int
	}
	subs := make([]submitted, 0, n)
	begin := time.Now()
	for i := 0; i < n; i++ {
		set := workload.DestSet(rng, sys.Net.NumHosts(), dests)
		payload := make([]byte, packets*(p.PacketBytes-message.HeaderSize))
		for j := range payload {
			payload[j] = byte(rng.Uint64())
		}
		msgID := uint32(i + 1)
		tr, _, err := s.PlanBcast(sys, set[0], set[1:], packets)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcastsim: session %d plan: %v\n", i, err)
			os.Exit(1)
		}
		pkts, err := message.Packetize(msgID, set[0], payload, p.PacketBytes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcastsim: session %d: %v\n", i, err)
			os.Exit(1)
		}
		h, err := s.Submit(live.Session{Tree: tr, Packets: pkts, MsgID: msgID})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcastsim: session %d submit: %v\n", i, err)
			os.Exit(1)
		}
		subs = append(subs, submitted{h: h, payload: payload, dests: set[1:]})
	}

	e2e := make([]time.Duration, 0, n)
	exact := 0
	for i, su := range subs {
		res, err := su.h.Wait()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcastsim: session %d failed: %v\n", i, err)
			os.Exit(1)
		}
		ok := true
		for _, d := range su.dests {
			rec := res.Hosts[d]
			if rec == nil || string(rec.Data) != string(su.payload) {
				ok = false
				break
			}
		}
		if ok {
			exact++
		}
		e2e = append(e2e, res.FinishAt-res.SubmitAt)
	}
	wall := time.Since(begin)
	sort.Slice(e2e, func(a, b int) bool { return e2e[a] < e2e[b] })
	st := s.Stats()

	fmt.Printf("sched:  %d sessions (%d dests, %d packets each), window %d, %d-host shared fabric\n",
		n, dests, packets, window, len(hosts))
	fmt.Printf("result: wall %v, %.0f sessions/sec, completion p50 %v p99 %v\n",
		wall.Round(time.Millisecond), float64(n)/wall.Seconds(),
		e2e[len(e2e)/2].Round(time.Microsecond), e2e[len(e2e)*99/100].Round(time.Microsecond))
	fmt.Printf("        %d of %d sessions delivered byte-exactly at every destination; max in flight %d, %d frames dropped\n",
		exact, n, st.MaxInflight, st.DroppedFrames)
	if exact != n {
		fmt.Fprintln(os.Stderr, "mcastsim: scheduled delivery fell short")
		os.Exit(1)
	}
	if verbose {
		fmt.Println("\ncompletion latency distribution:")
		for _, q := range []struct {
			name string
			idx  int
		}{{"min", 0}, {"p10", len(e2e) / 10}, {"p50", len(e2e) / 2}, {"p90", len(e2e) * 9 / 10}, {"p99", len(e2e) * 99 / 100}, {"max", len(e2e) - 1}} {
			fmt.Printf("  %-4s %10v\n", q.name, e2e[q.idx].Round(time.Microsecond))
		}
	}
}

// runLive executes the plan on the live goroutine runtime (internal/live)
// with a deterministic payload of exactly the spec's packet count, and
// reports the measured wall clock next to the simulator's prediction.
func runLive(sys *repro.System, plan *repro.Plan, timeout time.Duration, wseed uint64, verbose bool, traceJSON string, overUDP bool) {
	p := repro.DefaultParams()
	payload := make([]byte, plan.Spec.Packets*(p.PacketBytes-message.HeaderSize))
	prng := workload.NewRNG(wseed ^ 0x9e3779b97f4a7c15)
	for i := range payload {
		payload[i] = byte(prng.Uint64())
	}
	pkts, err := message.Packetize(1, plan.Spec.Source, payload, p.PacketBytes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcastsim: %v\n", err)
		os.Exit(1)
	}
	cfg := live.Config{BufferPackets: p.NIBufferPackets, Record: traceJSON != "", Timeout: timeout}
	var nw *link.UDPNetwork
	if overUDP {
		nw, err = link.NewLoopbackUDP(plan.Tree.Nodes(), link.UDPConfig{Session: wseed + 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcastsim: loopback fabric: %v\n", err)
			os.Exit(1)
		}
		defer nw.Close()
		cfg.Network = nw
	}
	res, err := live.Run([]live.Session{{Tree: plan.Tree, Packets: pkts, MsgID: 1}}, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcastsim: live run: %v\n", err)
		os.Exit(1)
	}
	pred := sys.Simulate(plan, p, repro.FPFS)

	sr := res.Sessions[0]
	exact := 0
	for _, v := range plan.Tree.Nodes() {
		if v == plan.Tree.Root() {
			continue
		}
		if rec := sr.Hosts[v]; rec != nil && string(rec.Data) == string(payload) {
			exact++
		}
	}
	fabric := "channel links"
	if overUDP {
		fabric = "loopback UDP sockets"
	}
	fmt.Printf("spec:   source h%d, %d destinations, %d packets (%d payload bytes), %s tree, live FPFS over %s\n",
		plan.Spec.Source, len(plan.Spec.Dests), len(pkts), len(payload), plan.Spec.Policy, fabric)
	fmt.Printf("plan:   k=%d, tree depth=%d, root degree=%d\n",
		plan.K, plan.Tree.Depth(), plan.Tree.RootDegree())
	if nw != nil {
		fmt.Printf("fabric: %+v\n", nw.Stats())
	}
	fmt.Printf("result: wall latency %v, %d sends; simulator predicts %.1f us for this plan\n",
		sr.Latency.Round(time.Microsecond), res.Sends, pred.Latency)
	fmt.Printf("        %d of %d destinations reassembled the message byte-exactly\n",
		exact, len(plan.Spec.Dests))
	if exact != len(plan.Spec.Dests) {
		fmt.Fprintln(os.Stderr, "mcastsim: live delivery fell short")
		os.Exit(1)
	}
	if verbose {
		fmt.Println("\nper-destination completion (wall clock):")
		for _, d := range plan.Chain[1:] {
			fmt.Printf("  h%-3d %10v\n", d, sr.Hosts[d].DoneAt.Round(time.Microsecond))
		}
	}
	if traceJSON != "" {
		writeChromeTrace(traceJSON, res.Events)
	}
}

// ms converts a millisecond-valued float (the live plane's CLI time unit)
// to a wall-clock duration.
func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// parseLiveFaults turns the -faults directive list into a live chaos
// plane. Times are milliseconds: the live fabric runs on the wall clock,
// where the simulator's microsecond scale is below timer resolution.
func parseLiveFaults(spec string, droprate float64) (link.Faults, error) {
	f := link.Faults{Seed: 1, DropRate: droprate}
	if spec == "" {
		return f, nil
	}
	for _, dir := range strings.Split(spec, ",") {
		kind, arg, ok := strings.Cut(strings.TrimSpace(dir), ":")
		if !ok {
			return f, fmt.Errorf("directive %q is not kind:value", dir)
		}
		switch kind {
		case "kill":
			pair, at, ok := strings.Cut(arg, "@")
			if !ok {
				return f, fmt.Errorf("live kill %q is not FROM-TO@Tms", arg)
			}
			from, to, ok := strings.Cut(pair, "-")
			if !ok {
				return f, fmt.Errorf("live kill pair %q is not FROM-TO", pair)
			}
			src, err1 := strconv.Atoi(from)
			dst, err2 := strconv.Atoi(to)
			t, err3 := strconv.ParseFloat(at, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return f, fmt.Errorf("live kill %q: bad fields", arg)
			}
			f.Kills = append(f.Kills, link.LinkKill{From: src, To: dst, At: ms(t)})
		case "stall":
			host, window, ok := strings.Cut(arg, "@")
			if !ok {
				return f, fmt.Errorf("stall %q is not HOST@FROM-UNTILms", arg)
			}
			h, err := strconv.Atoi(host)
			if err != nil {
				return f, fmt.Errorf("stall host %q: %v", host, err)
			}
			from, until, ok := strings.Cut(window, "-")
			if !ok {
				return f, fmt.Errorf("stall window %q is not FROM-UNTIL", window)
			}
			fr, err1 := strconv.ParseFloat(from, 64)
			un, err2 := strconv.ParseFloat(until, 64)
			if err1 != nil || err2 != nil {
				return f, fmt.Errorf("stall window %q: bad bounds", window)
			}
			f.Stalls = append(f.Stalls, link.StallWindow{Host: h, From: ms(fr), Until: ms(un)})
		case "corrupt":
			p, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return f, fmt.Errorf("corrupt rate %q: %v", arg, err)
			}
			f.CorruptRate = p
		case "reorder":
			p, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return f, fmt.Errorf("reorder rate %q: %v", arg, err)
			}
			f.ReorderRate = p
		case "ackdrop":
			p, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return f, fmt.Errorf("ackdrop rate %q: %v", arg, err)
			}
			f.AckDropRate = p
		case "jitter":
			d, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return f, fmt.Errorf("jitter %q: %v", arg, err)
			}
			f.MaxJitter = ms(d)
		case "seed":
			s, err := strconv.ParseUint(arg, 10, 64)
			if err != nil {
				return f, fmt.Errorf("seed %q: %v", arg, err)
			}
			f.Seed = s
		default:
			return f, fmt.Errorf("unknown live fault directive %q", kind)
		}
	}
	return f, nil
}

// runLiveReliable executes the plan on the chaos-hardened reliable live
// engine — a fault-decorated transport under real retransmission timers,
// heartbeats, and epoch-fenced reconfiguration — and prints the protocol
// and chaos counters. Crash times (-crash HOST@T[@RT]) are milliseconds.
func runLiveReliable(sys *repro.System, plan *repro.Plan, droprate float64, faultSpec string, crashes []repro.HostCrash, quorum, retries int, timeout time.Duration, wseed uint64, verbose bool, overUDP bool) {
	faults, err := parseLiveFaults(faultSpec, droprate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcastsim: -faults: %v\n", err)
		os.Exit(1)
	}
	cfg := live.DefaultReliableConfig()
	cfg.Faults = faults
	cfg.RetryBudget = retries
	cfg.Quorum = quorum
	cfg.Live.Timeout = timeout
	var nw *link.UDPNetwork
	if overUDP {
		nw, err = link.NewLoopbackUDP(plan.Tree.Nodes(), link.UDPConfig{Session: wseed + 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcastsim: loopback fabric: %v\n", err)
			os.Exit(1)
		}
		defer nw.Close()
		cfg.Live.Network = nw
	}
	for _, c := range crashes {
		hc := live.HostCrash{Host: c.Host, At: ms(c.At)}
		if c.RecoverAt > 0 {
			hc.RecoverAt = ms(c.RecoverAt)
		}
		cfg.Crashes = append(cfg.Crashes, hc)
	}

	p := repro.DefaultParams()
	payload := make([]byte, plan.Spec.Packets*(p.PacketBytes-message.HeaderSize))
	prng := workload.NewRNG(wseed ^ 0x9e3779b97f4a7c15)
	for i := range payload {
		payload[i] = byte(prng.Uint64())
	}
	pkts, err := message.Packetize(1, plan.Spec.Source, payload, p.PacketBytes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcastsim: %v\n", err)
		os.Exit(1)
	}
	res, err := live.RunReliable(live.Session{Tree: plan.Tree, Packets: pkts, MsgID: 1}, cfg)
	if res == nil {
		// Validation failure (bad rates, bad crash plan): no run happened.
		fmt.Fprintf(os.Stderr, "mcastsim: %v\n", err)
		os.Exit(1)
	}

	fabric := "channel links"
	if overUDP {
		fabric = "loopback UDP sockets"
	}
	fmt.Printf("spec:   source h%d, %d destinations, %d packets (%d payload bytes), %s tree, reliable live FPFS over %s\n",
		plan.Spec.Source, len(plan.Spec.Dests), res.Packets, len(payload), plan.Spec.Policy, fabric)
	fmt.Printf("faults: drop=%g corrupt=%g reorder=%g ackdrop=%g jitter=%v kills=%d stalls=%d crashes=%d seed=%d\n",
		faults.DropRate, faults.CorruptRate, faults.ReorderRate, faults.AckDropRate, faults.MaxJitter,
		len(faults.Kills), len(faults.Stalls), len(cfg.Crashes), faults.Seed)
	fmt.Printf("result: wall latency %v, %d sends (%d retransmits), %d duplicates suppressed, %d stale fenced\n",
		res.Latency.Round(time.Microsecond), res.Sends, res.Retransmits, res.Duplicates, res.Fenced)
	fmt.Printf("        injected: %d dropped, %d corrupted, %d reordered, %d acks lost, %d dead-link sends\n",
		res.Faults.Dropped, res.Faults.Corrupted, res.Faults.Reordered, res.Faults.AcksDropped, res.Faults.DeadSends)
	if overUDP {
		// The socket fabric's own counters, distinct from the injected
		// chaos: resyncs or bad datagrams here mean the wire itself (not
		// the decorator) mangled traffic the protocol had to absorb.
		fmt.Printf("        fabric: %+v\n", nw.Stats())
	}
	if len(cfg.Crashes) > 0 {
		fmt.Printf("        crashes: %d crash-dropped frames, %d adoptions, final epoch %d\n",
			res.CrashDrops, res.Adoptions, res.Epoch)
		printLiveViews(res.Views)
	} else if res.Adoptions > 0 {
		fmt.Printf("        %d mid-flight re-graft(s) repaired starved subtrees\n", res.Adoptions)
	}
	if verbose {
		fmt.Println("\nper-destination completion (wall clock):")
		for _, d := range plan.Chain[1:] {
			if rec := res.Hosts[d]; rec != nil && rec.Data != nil {
				fmt.Printf("  h%-3d %10v\n", d, rec.DoneAt.Round(time.Microsecond))
			} else {
				fmt.Printf("  h%-3d   (undelivered)\n", d)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcastsim: %v\n", err)
		os.Exit(1)
	}
	switch res.Status {
	case repro.DeliveredPartial:
		fmt.Printf("        status %s (epoch %d): %d of %d destinations received the %d-byte message byte-exactly; undelivered: %s\n",
			res.Status, res.Epoch, len(plan.Spec.Dests)-len(res.Orphaned), len(plan.Spec.Dests), len(payload), joinHosts(res.Orphaned))
	default:
		fmt.Printf("        status %s: all %d destinations received the %d-byte message byte-exactly\n",
			res.Status, len(plan.Spec.Dests), len(payload))
	}
}

// printLiveViews renders the live membership plane's epoch history as
// per-view member diffs (wall-clock microsecond timestamps).
func printLiveViews(views []membership.View) {
	for i, v := range views {
		if i == 0 {
			fmt.Printf("        view epoch %d: initial, %d members\n", v.Epoch, len(v.Members))
			continue
		}
		prev := map[int]bool{}
		for _, h := range views[i-1].Members {
			prev[h] = true
		}
		cur := map[int]bool{}
		for _, h := range v.Members {
			cur[h] = true
		}
		var diff []string
		for _, h := range views[i-1].Members {
			if !cur[h] {
				diff = append(diff, fmt.Sprintf("-h%d", h))
			}
		}
		for _, h := range v.Members {
			if !prev[h] {
				diff = append(diff, fmt.Sprintf("+h%d", h))
			}
		}
		fmt.Printf("        view epoch %d @ %.1f us: %s (%d members)\n",
			v.Epoch, v.At, strings.Join(diff, " "), len(v.Members))
	}
}

// writeChromeTrace renders events as Chrome trace-event JSON at path.
func writeChromeTrace(path string, events []sim.TraceEvent) {
	raw, err := trace.ChromeJSON(events)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcastsim: -trace-json: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "mcastsim: -trace-json: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trace:  %d events written to %s (open in about://tracing or ui.perfetto.dev)\n",
		len(events), path)
}

// crashFlags collects repeatable -crash directives.
type crashFlags []repro.HostCrash

func (c *crashFlags) String() string {
	parts := make([]string, len(*c))
	for i, hc := range *c {
		if hc.RecoverAt > 0 {
			parts[i] = fmt.Sprintf("%d@%g@%g", hc.Host, hc.At, hc.RecoverAt)
		} else {
			parts[i] = fmt.Sprintf("%d@%g", hc.Host, hc.At)
		}
	}
	return strings.Join(parts, ",")
}

func (c *crashFlags) Set(arg string) error {
	fields := strings.Split(arg, "@")
	if len(fields) != 2 && len(fields) != 3 {
		return fmt.Errorf("crash %q is not HOST@T or HOST@T@RT", arg)
	}
	host, err := strconv.Atoi(fields[0])
	if err != nil {
		return fmt.Errorf("crash host %q: %v", fields[0], err)
	}
	at, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return fmt.Errorf("crash time %q: %v", fields[1], err)
	}
	hc := repro.HostCrash{Host: host, At: at}
	if len(fields) == 3 {
		hc.RecoverAt, err = strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return fmt.Errorf("crash recovery time %q: %v", fields[2], err)
		}
	}
	*c = append(*c, hc)
	return nil
}

// parseFaults turns the -faults directive list into a FaultPlan.
func parseFaults(spec string, droprate float64) (repro.FaultPlan, error) {
	fp := repro.FaultPlan{Seed: 1, DropRate: droprate}
	if spec == "" {
		return fp, nil
	}
	for _, dir := range strings.Split(spec, ",") {
		kind, arg, ok := strings.Cut(strings.TrimSpace(dir), ":")
		if !ok {
			return fp, fmt.Errorf("directive %q is not kind:value", dir)
		}
		switch kind {
		case "kill":
			link, at, ok := strings.Cut(arg, "@")
			if !ok {
				return fp, fmt.Errorf("kill %q is not LINK@T", arg)
			}
			id, err := strconv.Atoi(link)
			if err != nil {
				return fp, fmt.Errorf("kill link %q: %v", link, err)
			}
			t, err := strconv.ParseFloat(at, 64)
			if err != nil {
				return fp, fmt.Errorf("kill time %q: %v", at, err)
			}
			fp.Kills = append(fp.Kills, repro.LinkKill{Link: id, At: t})
		case "stall":
			host, window, ok := strings.Cut(arg, "@")
			if !ok {
				return fp, fmt.Errorf("stall %q is not HOST@FROM-UNTIL", arg)
			}
			h, err := strconv.Atoi(host)
			if err != nil {
				return fp, fmt.Errorf("stall host %q: %v", host, err)
			}
			from, until, ok := strings.Cut(window, "-")
			if !ok {
				return fp, fmt.Errorf("stall window %q is not FROM-UNTIL", window)
			}
			f, err1 := strconv.ParseFloat(from, 64)
			u, err2 := strconv.ParseFloat(until, 64)
			if err1 != nil || err2 != nil {
				return fp, fmt.Errorf("stall window %q: bad bounds", window)
			}
			fp.Stalls = append(fp.Stalls, repro.HostStall{Host: h, Stall: repro.Stall{From: f, Until: u}})
		case "corrupt":
			p, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return fp, fmt.Errorf("corrupt rate %q: %v", arg, err)
			}
			fp.CorruptRate = p
		case "ackdrop":
			p, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return fp, fmt.Errorf("ackdrop rate %q: %v", arg, err)
			}
			fp.AckDropRate = p
		case "seed":
			s, err := strconv.ParseUint(arg, 10, 64)
			if err != nil {
				return fp, fmt.Errorf("seed %q: %v", arg, err)
			}
			fp.Seed = s
		default:
			return fp, fmt.Errorf("unknown fault directive %q", kind)
		}
	}
	return fp, nil
}

// runReliable executes the plan under the reliable-delivery protocol and
// prints the protocol and fault counters.
func runReliable(sys *repro.System, plan *repro.Plan, droprate float64, faultSpec string, crashes []repro.HostCrash, quorum, retries int, wseed uint64, verbose bool) {
	fp, err := parseFaults(faultSpec, droprate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcastsim: -faults: %v\n", err)
		os.Exit(1)
	}
	fp.Crashes = crashes
	for _, k := range fp.Kills {
		if k.Link < 0 || k.Link >= len(sys.Net.Links()) {
			fmt.Fprintf(os.Stderr, "mcastsim: -faults: kill link %d out of range (network has links 0..%d)\n",
				k.Link, len(sys.Net.Links())-1)
			os.Exit(1)
		}
	}
	cfg := repro.DefaultReliableConfig()
	cfg.RetryBudget = retries
	cfg.Quorum = quorum
	payload := make([]byte, plan.Spec.Packets*(cfg.Params.PacketBytes-message.HeaderSize))
	prng := workload.NewRNG(wseed ^ 0x9e3779b97f4a7c15)
	for i := range payload {
		payload[i] = byte(prng.Uint64())
	}
	res, err := repro.DeliverReliable(sys, plan, payload, cfg, fp)
	if res == nil {
		// Validation failure (bad rates, bad retry budget): no run happened.
		fmt.Fprintf(os.Stderr, "mcastsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("spec:   source h%d, %d destinations, %d packets (%d payload bytes), %s tree, reliable FPFS\n",
		plan.Spec.Source, len(plan.Spec.Dests), res.Packets, len(payload), plan.Spec.Policy)
	fmt.Printf("faults: drop=%g corrupt=%g ackdrop=%g kills=%d stalls=%d crashes=%d seed=%d\n",
		fp.DropRate, fp.CorruptRate, fp.AckDropRate, len(fp.Kills), len(fp.Stalls), len(fp.Crashes), fp.Seed)
	fmt.Printf("result: latency %.1f us, %d sends (%d retransmits), %d acks, %d nacks, %d duplicates suppressed\n",
		res.Latency, res.Sends, res.Retransmits, res.Acks, res.Nacks, res.Duplicates)
	fmt.Printf("        injected: %d dropped, %d corrupted, %d acks lost, %d dead-link sends, %.1f us stall wait\n",
		res.Faults.Dropped, res.Faults.Corrupted, res.Faults.AcksLost, res.Faults.DeadSends, res.Faults.StallWait)
	if res.Repairs > 0 {
		fmt.Printf("        %d mid-flight tree repair(s) re-parented starved subtrees\n", res.Repairs)
	}
	if len(fp.Crashes) > 0 {
		fmt.Printf("        crashes: %d applied, %d recoveries, %d crash-dropped packets, %d stale packets fenced, %d adoptions\n",
			res.Faults.Crashes, res.Faults.Recoveries, res.Faults.CrashDrops, res.Fenced, res.Adoptions)
		printViews(res.Views)
	}
	if verbose {
		fmt.Println("\nper-destination completion (us):")
		for _, d := range plan.Chain[1:] {
			if t, ok := res.HostDone[d]; ok {
				fmt.Printf("  h%-3d %8.1f\n", d, t)
			} else {
				fmt.Printf("  h%-3d   (undelivered)\n", d)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcastsim: %v\n", err)
		os.Exit(1)
	}
	switch res.Status {
	case repro.DeliveredPartial:
		fmt.Printf("        status %s (epoch %d): %d of %d destinations received the %d-byte message byte-exactly; undelivered: %s\n",
			res.Status, res.Epoch, len(res.Delivered), len(plan.Spec.Dests), len(payload), joinHosts(res.Orphaned))
	default:
		fmt.Printf("        status %s: all %d destinations received the %d-byte message byte-exactly\n",
			res.Status, len(res.Delivered), len(payload))
	}
}

// printViews renders the membership plane's epoch history as per-view
// member diffs.
func printViews(views []repro.GroupView) {
	for i, v := range views {
		if i == 0 {
			fmt.Printf("        view epoch %d: initial, %d members\n", v.Epoch, len(v.Members))
			continue
		}
		prev := map[int]bool{}
		for _, h := range views[i-1].Members {
			prev[h] = true
		}
		cur := map[int]bool{}
		for _, h := range v.Members {
			cur[h] = true
		}
		var diff []string
		for _, h := range views[i-1].Members {
			if !cur[h] {
				diff = append(diff, fmt.Sprintf("-h%d", h))
			}
		}
		for _, h := range v.Members {
			if !prev[h] {
				diff = append(diff, fmt.Sprintf("+h%d", h))
			}
		}
		fmt.Printf("        view epoch %d @ %.1f us: %s (%d members)\n",
			v.Epoch, v.At, strings.Join(diff, " "), len(v.Members))
	}
}

func joinHosts(hs []int) string {
	parts := make([]string, len(hs))
	for i, h := range hs {
		parts[i] = fmt.Sprintf("h%d", h)
	}
	return strings.Join(parts, " ")
}

func joinInts(xs []int) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += strconv.Itoa(x)
	}
	return out
}
