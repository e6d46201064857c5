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
//	system: 64 hosts, 16 switches, 95 links (seed 1)
//	spec:   source h11, 47 destinations, 8 packets, optimal-k-binomial tree, FPFS NI
//	plan:   k=2, tree depth=7, root degree=2, model bound 21 steps, measured 21 steps
//	result: latency 114.6 us, 376 sends, channel wait 0.4 us, peak NI buffer 8 packets
//
// The flags resolve to one of six modes (packet, flit, sim-reliable, live,
// live-reliable, sched) and a flag moved off its default outside the modes
// it declares in flagModes is a usage error, never silently ignored. Exit
// status: 0 on success, 1 when the run failed (delivery fell short,
// watchdog, quorum missed), 2 on a usage error — as mcastcheck and mcastd.
//
// With -reliable (or any fault flag) the run uses the reliable runtime
// over the switched network (repro.DeliverReliable): packets carry real
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
// (-window), deficit-round-robin fair queueing at every NI, each root's
// NI injecting its sessions, and congestion-aware tree planning against
// the in-flight edge census. The report gives sustained sessions/sec and p50/p99
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
// microseconds), kill names a directed host pair, and jitter/reorder,
// which the simulated engines refuse, apply:
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
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/fault"
	"repro/internal/flitsim"
	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/psim"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the process exit code instead of
// exiting, so the tests drive it in-process.
func run(args []string, out, errw io.Writer) int {
	var o options
	fs := newFlags(&o, errw)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	j, err := newJob(&o, fs, out)
	if err == nil {
		if j.fabric != nil {
			defer j.fabric.Close()
		}
		j.printf("system: %s (seed %d)\n", j.sys.Net.Summary(), o.seed)
		err = engines[j.mode](j)
	}
	if err == nil {
		return 0
	}
	fmt.Fprintf(errw, "mcastsim: %v\n", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// usageError marks a failure as the caller's (exit 2), not the run's (1).
type usageError struct{ error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// The six modes, and the sets of them the flag table is written in.
const (
	packet, flit, simReliable        = "packet", "flit", "sim-reliable"
	liveMode, liveReliable, schedule = "live", "live-reliable", "sched"

	reliables = simReliable + " " + liveReliable
	lives     = liveMode + " " + liveReliable
	single    = packet + " " + flit + " " + reliables + " " + liveMode // one planned multicast
	anyMode   = single + " " + schedule
)

var engines = map[string]func(*job) error{
	packet: (*job).runPacket, flit: (*job).runFlit, simReliable: (*job).runSimReliable,
	liveMode: (*job).runLive, liveReliable: (*job).runLiveReliable, schedule: (*job).runSched,
}

// flagModes is the mode table: the modes in which each flag has an
// effect. A flag registered in newFlags but missing here applies nowhere,
// so a new flag that forgets to declare its modes fails on first use.
var flagModes = map[string]string{
	"seed": anyMode, "mesh": anyMode, "dests": anyMode, "packets": anyMode, "wseed": anyMode,
	"tree": single, "k": single,
	"ni": packet + " " + flit, "model": packet + " " + flit,
	"workers": packet, "timeline": packet, "trace-json": packet + " " + liveMode,
	"verbose": packet + " " + reliables + " " + liveMode + " " + schedule,
	"live":    lives + " " + schedule, "net": lives, "live-timeout": lives,
	"sessions": schedule, "window": schedule,
	"reliable": reliables, "droprate": reliables, "faults": reliables,
	"retries": reliables, "crash": reliables, "quorum": reliables,
}

type options struct {
	seed, wseed                                 uint64
	dests, packets, k, workers                  int
	sessions, window, retries, quorum           int
	tree, ni, model, mesh, traceJSON, faultSpec string
	verbose, timeline, live, net, reliable      bool
	liveTimeout                                 time.Duration
	droprate                                    float64
	crashes                                     crashFlags
}

func newFlags(o *options, errw io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("mcastsim", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.Uint64Var(&o.seed, "seed", 1, "topology seed")
	fs.IntVar(&o.dests, "dests", 15, "number of destinations (1..63)")
	fs.IntVar(&o.packets, "packets", 8, "message length in packets")
	fs.StringVar(&o.tree, "tree", "optimal", "tree policy: optimal, binomial, linear, or k (with -k)")
	fs.IntVar(&o.k, "k", 2, "fanout bound for -tree k")
	fs.StringVar(&o.ni, "ni", "fpfs", "NI discipline: fpfs, fcfs, conventional")
	fs.Uint64Var(&o.wseed, "wseed", 7, "workload (destination set) seed")
	fs.BoolVar(&o.verbose, "verbose", false, "print per-destination completion times")
	fs.BoolVar(&o.timeline, "timeline", false, "print an ASCII per-host activity timeline")
	fs.StringVar(&o.traceJSON, "trace-json", "", "write the event trace to FILE in Chrome trace-event format")
	fs.BoolVar(&o.live, "live", false, "execute the multicast on the live goroutine runtime instead of simulating")
	fs.IntVar(&o.sessions, "sessions", 0, "sustained-load mode: run N concurrent sessions through the session scheduler on one shared live fabric")
	fs.IntVar(&o.window, "window", 64, "with -sessions: admission window (max sessions in flight)")
	fs.BoolVar(&o.net, "net", false, "with -live: dial every tree edge over a loopback UDP socket instead of channel links")
	fs.DurationVar(&o.liveTimeout, "live-timeout", 0, "watchdog timeout for -live runs (0 = the 30s default)")
	fs.StringVar(&o.model, "model", "packet", "network model: packet (fast reservation) or flit (cycle-accurate wormhole)")
	fs.StringVar(&o.mesh, "mesh", "", "use an ARITYxDIMS mesh instead of the irregular testbed (e.g. 317x2 = 100489 hosts)")
	fs.IntVar(&o.workers, "workers", 0, "simulate under the windowed parallel scheduler with N workers (0 = serial loop)")
	fs.BoolVar(&o.reliable, "reliable", false, "use the ACK-based reliable-delivery protocol (implied by any fault flag)")
	fs.Float64Var(&o.droprate, "droprate", 0, "per-transmission packet loss probability [0,1)")
	fs.StringVar(&o.faultSpec, "faults", "", "fault directives: kill:LINK@T,stall:HOST@FROM-UNTIL,corrupt:P,ackdrop:P,seed:N")
	fs.IntVar(&o.retries, "retries", 8, "retransmissions per (tree edge, packet) before orphaning")
	fs.Var(&o.crashes, "crash", "crash a host: HOST@T (crash-stop) or HOST@T@RT (recover at RT); repeatable")
	fs.IntVar(&o.quorum, "quorum", 0, "destinations required for partial delivery under crashes (0 = all)")
	return fs
}

// resolveMode is the one place the flags pick an engine; the reliable
// predicate is the same for the simulated and the live plane.
func (o *options) resolveMode() (string, error) {
	reliable := o.reliable || o.droprate > 0 || o.faultSpec != "" || len(o.crashes) > 0
	switch {
	case o.sessions > 0:
		return schedule, nil
	case o.live && reliable:
		return liveReliable, nil
	case o.live:
		return liveMode, nil
	case reliable:
		return simReliable, nil
	case o.model == flit || o.model == packet:
		return o.model, nil
	}
	return "", usagef("unknown model %q", o.model)
}

// checkFlags rejects every flag moved off its default that has no effect
// in the resolved mode. (A flag set to its default is indistinguishable
// from an unset one in every engine, so -droprate 0 and -live=false stay
// valid.)
func checkFlags(fs *flag.FlagSet, mode, tree string) (err error) {
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil || f.Value.String() == f.DefValue:
		case !slices.Contains(strings.Fields(flagModes[f.Name]), mode):
			err = usagef("-%s does not apply to %s mode (it applies to: %s)", f.Name, mode, flagModes[f.Name])
		case f.Name == "k" && tree != "k":
			err = usagef("-k does not apply to %s mode without -tree k", mode)
		}
	})
	return err
}

// job is everything a mode's engine needs, built once by newJob.
type job struct {
	*options
	out    io.Writer
	mode   string
	sys    *repro.System
	params repro.Params
	disc   repro.Discipline
	// The single-multicast modes (all but sched) plan one spec.
	spec repro.Spec
	plan *repro.Plan
	// payload and pkts are the message on the wire, built only for the
	// modes that move real bytes (sim-reliable and the live ones).
	payload []byte
	pkts    [][]byte
	// network is the live fabric: nil for channel links, the loopback
	// sockets (fabric, the same value) under -net.
	network    link.Network
	fabric     *link.UDPNetwork
	fabricName string
}

var (
	policies = map[string]repro.TreePolicy{"optimal": repro.OptimalTree, "binomial": repro.BinomialTree,
		"linear": repro.LinearTree, "k": repro.FixedKTree}
	disciplines = map[string]repro.Discipline{"fpfs": repro.FPFS, "fcfs": repro.FCFS,
		"conventional": repro.Conventional}
)

func newJob(o *options, fs *flag.FlagSet, out io.Writer) (*job, error) {
	j := &job{options: o, out: out, params: repro.DefaultParams(), fabricName: "channel links"}
	var err error
	if j.mode, err = o.resolveMode(); err != nil {
		return nil, err
	}
	if err := checkFlags(fs, j.mode, o.tree); err != nil {
		return nil, err
	}
	if o.workers < 0 {
		return nil, usagef("-workers must not be negative")
	}
	if o.liveTimeout < 0 {
		return nil, usagef("-live-timeout must not be negative")
	}
	policy, ok := policies[o.tree]
	if !ok {
		return nil, usagef("unknown tree policy %q", o.tree)
	}
	if j.disc, ok = disciplines[o.ni]; !ok {
		return nil, usagef("unknown NI discipline %q", o.ni)
	}
	j.sys = repro.NewIrregularSystem(repro.DefaultIrregularConfig(), o.seed)
	if o.mesh != "" {
		var arity, dims int
		if err := fields("-mesh", o.mesh, "ARITYxDIMS", &arity, &dims); err != nil {
			return nil, usageError{err}
		}
		if err := topology.CheckGrid(arity, dims); err != nil {
			return nil, usagef("-mesh %q: %v", o.mesh, err)
		}
		j.sys = repro.NewMeshSystem(arity, dims)
	}
	if o.dests < 1 || o.dests >= j.sys.Net.NumHosts() {
		return nil, usagef("dests must be in 1..%d", j.sys.Net.NumHosts()-1)
	}
	if j.mode == schedule {
		if o.window < 1 {
			return nil, usagef("-window must be >= 1")
		}
		if o.packets < 1 {
			return nil, usagef("-packets must be >= 1")
		}
		return j, nil
	}

	set := workload.DestSet(workload.NewRNG(o.wseed), j.sys.Net.NumHosts(), o.dests)
	j.spec = repro.Spec{Source: set[0], Dests: set[1:], Packets: o.packets, Policy: policy, K: o.k}
	if err := j.sys.Validate(j.spec); err != nil {
		return nil, usageError{err}
	}
	j.plan = j.sys.Plan(j.spec)
	if j.mode == packet || j.mode == flit {
		return j, nil
	}
	j.payload, j.pkts, err = newMessage(payloadRNG(o.wseed), 1, j.spec.Source, o.packets, j.params)
	if err != nil {
		return nil, usageError{err}
	}
	if o.net {
		j.fabric, err = link.NewLoopbackUDP(j.plan.Tree.Nodes(), link.UDPConfig{Session: o.wseed + 1})
		if err != nil {
			return nil, fmt.Errorf("loopback fabric: %w", err)
		}
		j.network, j.fabricName = j.fabric, "loopback UDP sockets"
	}
	return j, nil
}

// payloadRNG is the payload byte stream of a workload seed, decorrelated
// from the destination-set stream drawn from the same seed.
func payloadRNG(wseed uint64) *workload.RNG { return workload.NewRNG(wseed ^ 0x9e3779b97f4a7c15) }

// newMessage draws a payload that fills exactly the given number of
// packets from rng and fragments it into wire-format packets.
func newMessage(rng *workload.RNG, msgID uint32, source, packets int, p repro.Params) (payload []byte, pkts [][]byte, err error) {
	payload = make([]byte, packets*(p.PacketBytes-message.HeaderSize))
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	pkts, err = message.Packetize(msgID, source, payload, p.PacketBytes)
	return payload, pkts, err
}

func (j *job) printf(format string, a ...any) { fmt.Fprintf(j.out, format, a...) }

// printSpec prints the spec: line; engine names the NI and fabric.
func (j *job) printSpec(engine string) {
	size := ""
	if j.payload != nil {
		size = fmt.Sprintf(" (%d payload bytes)", len(j.payload))
	}
	j.printf("spec:   source h%d, %d destinations, %d packets%s, %s tree, %s\n",
		j.spec.Source, len(j.spec.Dests), j.spec.Packets, size, j.spec.Policy, engine)
}

// printPlan prints the plan: line; steps is the packet mode's suffix.
func (j *job) printPlan(steps string) {
	j.printf("plan:   k=%d, tree depth=%d, root degree=%d%s\n",
		j.plan.K, j.plan.Tree.Depth(), j.plan.Tree.RootDegree(), steps)
}

// printCompletions is the -verbose per-destination table in chain order;
// cell formats one destination's completion, "" when it has none.
func (j *job) printCompletions(unit string, cell func(dest int) string) {
	j.printf("\nper-destination completion (%s):\n", unit)
	for _, d := range j.plan.Chain[1:] {
		s := cell(d)
		if s == "" {
			s = "  (undelivered)"
		}
		j.printf("  h%-3d %s\n", d, s)
	}
}

// wallCell formats a live host record's completion instant.
func wallCell(rec *live.HostRecord) string {
	if rec == nil || rec.Data == nil {
		return ""
	}
	return fmt.Sprintf("%10v", rec.DoneAt.Round(time.Microsecond))
}

// exactAt counts the destinations whose record holds payload byte for byte.
func exactAt(hosts map[int]*live.HostRecord, dests []int, payload []byte) int {
	n := 0
	for _, d := range dests {
		if rec := hosts[d]; rec != nil && bytes.Equal(rec.Data, payload) {
			n++
		}
	}
	return n
}

// runPacket is the packet-model path: the serial loop and the windowed
// scheduler run the same session model, so only the engine call and the
// psim: line differ.
func (j *job) runPacket() error {
	one := []sim.Session{{Tree: j.plan.Tree, Packets: j.spec.Packets}}
	traced := j.timeline || j.traceJSON != ""
	var (
		res    *sim.ConcurrentResult
		events []sim.TraceEvent
		ws     psim.WindowStats
	)
	engine := j.disc.String() + " NI"
	if j.workers > 0 {
		engine += " (parallel engine)"
		res, events = psim.ConcurrentTraced(j.sys.Router, one, j.params, j.disc, traced,
			psim.Config{Workers: j.workers, Stats: &ws})
	} else {
		res, events = sim.ConcurrentTraced(j.sys.Router, one, j.params, j.disc, traced)
	}
	maxBuf := 0
	for _, b := range res.MaxBuffered {
		maxBuf = max(maxBuf, b)
	}

	j.printSpec(engine)
	j.printPlan(fmt.Sprintf(", model bound %d steps, measured %d steps", j.plan.ModelSteps, j.plan.Steps()))
	j.printf("result: latency %.1f us, %d sends, channel wait %.1f us, peak NI buffer %d packets\n",
		res.Sessions[0].Latency, res.Sends, res.ChannelWait, maxBuf)
	if j.workers > 0 {
		j.printf("psim:   %d workers, %d windows of lookahead %.2f us, %d events (%.0f/window, min %.0f max %.0f), %d cross-partition deliveries\n",
			ws.Workers, ws.Windows, ws.Lookahead, ws.Events,
			ws.PerWindow.Mean(), ws.PerWindow.Min(), ws.PerWindow.Max(), ws.Mailed)
	}
	if j.verbose {
		j.printCompletions("us", func(d int) string { return fmt.Sprintf("%8.1f", res.Sessions[0].HostDone[d]) })
		j.printf("\nchain order: %s\n", strings.Trim(fmt.Sprint(j.plan.Chain), "[]"))
	}
	if j.timeline {
		j.printf("\n%s\n%s", trace.Timeline(events, trace.TimelineOptions{Width: 100, Session: -1}),
			trace.Collect(events))
	}
	return j.writeTrace(events)
}

func (j *job) runFlit() error {
	res := flitsim.MulticastDisc(j.sys.Router, j.plan.Tree, j.spec.Packets, flitsim.DefaultParams(), j.disc)
	j.printSpec(j.disc.String() + " NI (flit-level)")
	j.printPlan("")
	j.printf("result: latency %.1f us (%d cycles), %d injections, peak path hold %d cycles\n",
		res.Latency, res.Cycles, res.Injections, res.PeakChannelHold)
	return nil
}

// runSched is the sustained-load mode: -sessions sessions with rotating
// seeded destination sets are pushed through one sched.Scheduler over a
// shared live fabric spanning every host. Each session's tree is planned
// against the scheduler's in-flight edge census (the simultaneous-
// multicast objective), admission is bounded by the window, and the
// report gives sustained throughput plus the p50/p99 end-to-end
// completion latency.
func (j *job) runSched() error {
	n := j.sessions
	hosts := make([]int, j.sys.Net.NumHosts())
	for i := range hosts {
		hosts[i] = i
	}
	s, err := sched.New(hosts, sched.Config{Window: j.window, QueueDepth: n})
	if err != nil {
		return usagef("scheduler: %v", err)
	}
	defer s.Close()

	rng := payloadRNG(j.wseed)
	type submitted struct {
		h       *sched.Handle
		payload []byte
		dests   []int
	}
	subs := make([]submitted, 0, n)
	begin := time.Now()
	for i := 0; i < n; i++ {
		set := workload.DestSet(rng, len(hosts), j.dests)
		msgID := uint32(i + 1)
		payload, pkts, err := newMessage(rng, msgID, set[0], j.packets, j.params)
		if err != nil {
			return usagef("session %d: %v", i, err)
		}
		tr, _, err := s.PlanBcast(j.sys, set[0], set[1:], j.packets)
		if err != nil {
			return usagef("session %d plan: %v", i, err)
		}
		h, err := s.Submit(live.Session{Tree: tr, Packets: pkts, MsgID: msgID})
		if err != nil {
			return fmt.Errorf("session %d submit: %w", i, err)
		}
		subs = append(subs, submitted{h: h, payload: payload, dests: set[1:]})
	}

	e2e := make([]time.Duration, 0, n)
	exact := 0
	for i, su := range subs {
		res, err := su.h.Wait()
		if err != nil {
			return fmt.Errorf("session %d failed: %w", i, err)
		}
		if exactAt(res.Hosts, su.dests, su.payload) == len(su.dests) {
			exact++
		}
		e2e = append(e2e, res.FinishAt-res.SubmitAt)
	}
	wall := time.Since(begin)
	sort.Slice(e2e, func(a, b int) bool { return e2e[a] < e2e[b] })
	st := s.Stats()

	j.printf("sched:  %d sessions (%d dests, %d packets each), window %d, %d-host shared fabric\n",
		n, j.dests, j.packets, j.window, len(hosts))
	j.printf("result: wall %v, %.0f sessions/sec, completion p50 %v p99 %v\n",
		wall.Round(time.Millisecond), float64(n)/wall.Seconds(),
		e2e[n/2].Round(time.Microsecond), e2e[n*99/100].Round(time.Microsecond))
	j.printf("        %d of %d sessions delivered byte-exactly at every destination; max in flight %d, %d frames dropped\n",
		exact, n, st.MaxInflight, st.DroppedFrames)
	if exact != n {
		return errors.New("scheduled delivery fell short")
	}
	if j.verbose {
		j.printf("\ncompletion latency distribution:\n")
		for _, q := range []struct {
			name string
			idx  int
		}{{"min", 0}, {"p10", n / 10}, {"p50", n / 2}, {"p90", n * 9 / 10}, {"p99", n * 99 / 100}, {"max", n - 1}} {
			j.printf("  %-4s %10v\n", q.name, e2e[q.idx].Round(time.Microsecond))
		}
	}
	return nil
}

// runLive executes the plan on the live goroutine runtime (internal/live)
// and reports the measured wall clock next to the simulator's prediction.
func (j *job) runLive() error {
	res, err := live.Run([]live.Session{{Tree: j.plan.Tree, Packets: j.pkts, MsgID: 1}}, live.Config{
		Record: j.traceJSON != "", Timeout: j.liveTimeout, Network: j.network})
	if err != nil {
		return fmt.Errorf("live run: %w", err)
	}
	pred := j.sys.Simulate(j.plan, j.params, repro.FPFS)
	sr := res.Sessions[0]
	exact := exactAt(sr.Hosts, j.spec.Dests, j.payload)

	j.printSpec("live FPFS over " + j.fabricName)
	j.printPlan("")
	if j.fabric != nil {
		j.printf("fabric: %+v\n", j.fabric.Stats())
	}
	j.printf("result: wall latency %v, %d sends; simulator predicts %.1f us for this plan\n",
		sr.Latency.Round(time.Microsecond), res.Sends, pred.Latency)
	j.printf("        %d of %d destinations reassembled the message byte-exactly\n", exact, len(j.spec.Dests))
	if exact != len(j.spec.Dests) {
		return errors.New("live delivery fell short")
	}
	if j.verbose {
		j.printCompletions("wall clock", func(d int) string { return wallCell(sr.Hosts[d]) })
	}
	return j.writeTrace(res.Events)
}

// runLiveReliable executes the plan on the chaos-hardened reliable live
// engine — a fault-decorated transport under real retransmission timers,
// heartbeats, and epoch-fenced reconfiguration — and prints the protocol
// and chaos counters. Fault and crash times are milliseconds here.
func (j *job) runLiveReliable() error {
	cfg := live.DefaultReliableConfig()
	var err error
	if cfg.Faults, err = faultPlan(j.faultSpec, true, j.droprate, j.crashes); err != nil {
		return usagef("-faults: %v", err)
	}
	cfg.RetryBudget, cfg.Quorum = j.retries, j.quorum
	cfg.Live.Timeout, cfg.Live.Network = j.liveTimeout, j.network
	res, err := live.RunReliable(live.Session{Tree: j.plan.Tree, Packets: j.pkts, MsgID: 1}, cfg)
	if res == nil {
		// Validation failure (bad rates, bad crash plan): no run happened.
		return usageError{err}
	}

	f := cfg.Faults
	j.printSpec("reliable live FPFS over " + j.fabricName)
	j.printf("faults: drop=%g corrupt=%g reorder=%g ackdrop=%g jitter=%v kills=%d stalls=%d crashes=%d seed=%d\n",
		f.DropRate, f.CorruptRate, f.ReorderRate, f.AckDropRate, f.MaxJitter,
		len(f.Kills), len(f.Stalls), len(f.Crashes), f.Seed)
	j.printf("result: wall latency %v, %d sends (%d retransmits), %d duplicates suppressed, %d stale fenced\n",
		res.Latency.Round(time.Microsecond), res.Sends, res.Retransmits, res.Duplicates, res.Fenced)
	j.printf("        injected: %d dropped, %d corrupted, %d reordered, %d acks lost, %d dead-link sends\n",
		res.Faults.Dropped, res.Faults.Corrupted, res.Faults.Reordered, res.Faults.AcksDropped, res.Faults.DeadSends)
	if j.fabric != nil {
		// The socket fabric's own counters, distinct from the injected
		// chaos: resyncs or bad datagrams here mean the wire itself (not
		// the decorator) mangled traffic the protocol had to absorb.
		j.printf("        fabric: %+v\n", j.fabric.Stats())
	}
	if len(f.Crashes) > 0 {
		j.printf("        crashes: %d crash-dropped frames, %d adoptions, final epoch %d\n",
			res.Faults.CrashDrops, res.Adoptions, res.Epoch)
		j.printViews(res.Views)
	} else if res.Adoptions > 0 {
		j.printf("        %d mid-flight re-graft(s) repaired starved subtrees\n", res.Adoptions)
	}
	if j.verbose {
		j.printCompletions("wall clock", func(d int) string { return wallCell(res.Hosts[d]) })
	}
	return j.printStatus(err, res.Status, res.Epoch, res.Orphaned)
}

// runSimReliable executes the plan under the simulated reliable-delivery
// protocol and prints the protocol and fault counters.
func (j *job) runSimReliable() error {
	fp, err := faultPlan(j.faultSpec, false, j.droprate, j.crashes)
	if err != nil {
		return usagef("-faults: %v", err)
	}
	cfg := repro.DefaultReliableConfig()
	cfg.RetryBudget, cfg.Quorum = j.retries, j.quorum
	res, err := repro.DeliverReliable(j.sys, j.plan, j.payload, cfg, fp)
	if res == nil {
		// Validation failure (bad rates, bad retry budget): no run happened.
		return usageError{err}
	}

	j.printSpec("reliable FPFS")
	j.printf("faults: drop=%g corrupt=%g ackdrop=%g kills=%d stalls=%d crashes=%d seed=%d\n",
		fp.DropRate, fp.CorruptRate, fp.AckDropRate, len(fp.Kills), len(fp.Stalls), len(fp.Crashes), fp.Seed)
	j.printf("result: latency %.1f us, %d sends (%d retransmits), %d duplicates suppressed\n",
		link.US(res.Latency), res.Sends, res.Retransmits, res.Duplicates)
	j.printf("        injected: %d dropped, %d corrupted, %d acks lost, %d dead-link sends, %.1f us stall wait\n",
		res.Faults.Dropped, res.Faults.Corrupted, res.Faults.AcksDropped, res.Faults.DeadSends, res.Faults.StallWait)
	if len(fp.Crashes) > 0 {
		j.printf("        crashes: %d applied, %d recoveries, %d crash-dropped packets, %d stale packets fenced, %d adoptions\n",
			res.Faults.Crashes, res.Faults.Recoveries, res.Faults.CrashDrops, res.Fenced, res.Adoptions)
		j.printViews(res.Views)
	} else if res.Adoptions > 0 {
		j.printf("        %d mid-flight tree repair(s) re-parented starved subtrees\n", res.Adoptions)
	}
	if j.verbose {
		j.printCompletions("us", func(d int) string {
			if rec := res.Hosts[d]; rec != nil && rec.Data != nil {
				return fmt.Sprintf("%8.1f", link.US(rec.DoneAt))
			}
			return ""
		})
	}
	return j.printStatus(err, res.Status, res.Epoch, res.Orphaned)
}

// printStatus ends a reliable report: the protocol's typed failure is the
// run's error; otherwise the verdict line says who holds the message.
func (j *job) printStatus(err error, status repro.DeliveryStatus, epoch int, orphaned []int) error {
	n := len(j.spec.Dests)
	switch {
	case err != nil:
	case status == repro.DeliveredPartial:
		j.printf("        status %s (epoch %d): %d of %d destinations received the %d-byte message byte-exactly; undelivered: %s\n",
			status, epoch, n-len(orphaned), n, len(j.payload), strings.Join(hostNames("", orphaned, nil), " "))
	default:
		j.printf("        status %s: all %d destinations received the %d-byte message byte-exactly\n",
			status, n, len(j.payload))
	}
	return err
}

// hostNames names the hosts of list that are not in except ("h3", "h7"),
// each prefixed by sign.
func hostNames(sign string, list, except []int) []string {
	var names []string
	for _, h := range list {
		if !slices.Contains(except, h) {
			names = append(names, fmt.Sprintf("%sh%d", sign, h))
		}
	}
	return names
}

// printViews renders a membership plane's epoch history as per-view member
// diffs (both planes stamp views in microseconds).
func (j *job) printViews(views []repro.GroupView) {
	for i, v := range views {
		if i == 0 {
			j.printf("        view epoch %d: initial, %d members\n", v.Epoch, len(v.Members))
			continue
		}
		prev := views[i-1].Members
		diff := append(hostNames("-", prev, v.Members), hostNames("+", v.Members, prev)...)
		j.printf("        view epoch %d @ %.1f us: %s (%d members)\n",
			v.Epoch, v.At, strings.Join(diff, " "), len(v.Members))
	}
}

// writeTrace renders events as Chrome trace-event JSON at -trace-json.
func (j *job) writeTrace(events []sim.TraceEvent) error {
	if j.traceJSON == "" {
		return nil
	}
	raw, err := trace.ChromeJSON(events)
	if err == nil {
		err = os.WriteFile(j.traceJSON, raw, 0o644)
	}
	if err != nil {
		return fmt.Errorf("-trace-json: %w", err)
	}
	j.printf("trace:  %d events written to %s (open in about://tracing or ui.perfetto.dev)\n",
		len(events), j.traceJSON)
	return nil
}

// fields parses value against shape — upper-case field names joined by
// single-byte separators, like "HOST@FROM-UNTIL" — storing the i-th field
// in dst[i]: *int, *uint64, *float64, or *time.Duration for a time in
// (fractional) milliseconds. It is the one number parser and the one
// source of error text for -faults, -crash and -mesh.
func fields(kind, value, shape string, dst ...any) error {
	rest, names := value, shape
	for i, d := range dst {
		text, name := rest, names
		if i < len(dst)-1 {
			at := strings.IndexAny(names, "@-x")
			var ok bool
			if text, rest, ok = strings.Cut(rest, names[at:at+1]); !ok {
				return fmt.Errorf("%s %q is not %s", kind, value, shape)
			}
			name, names = names[:at], names[at+1:]
		}
		var err error
		switch p := d.(type) {
		case *int:
			*p, err = strconv.Atoi(text)
		case *uint64:
			*p, err = strconv.ParseUint(text, 10, 64)
		case *float64:
			*p, err = strconv.ParseFloat(text, 64)
		case *time.Duration:
			var v float64
			v, err = strconv.ParseFloat(text, 64)
			*p = ms(v)
		}
		if err != nil {
			return fmt.Errorf("%s %s %q: %v", kind, name, text, errors.Unwrap(err))
		}
	}
	return nil
}

// ms converts a millisecond-valued float (the live plane's CLI time unit)
// to a wall-clock duration.
func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// crashFlags collects repeatable -crash directives.
type crashFlags []repro.HostCrash

func (c *crashFlags) String() string { return fmt.Sprint(*c) }

func (c *crashFlags) Set(arg string) error {
	var hc repro.HostCrash
	shape, dst := "HOST@T", []any{&hc.Host, &hc.At}
	if strings.Count(arg, "@") == 2 {
		shape, dst = "HOST@T@RT", append(dst, &hc.RecoverAt)
	}
	err := fields("crash", arg, shape, dst...)
	*c = append(*c, hc)
	return err
}

// form is how one -faults directive kind is parsed: the shape of its
// value, where fields stores it, and (kill, stall) the append that keeps
// it.
type form struct {
	shape string
	dst   []any
	add   func()
}

// faultPlan builds a run's fault plan from -droprate, -faults and -crash.
// The simulated plane counts microseconds and kills a link (LINK@T); the
// live plane counts milliseconds and kills a directed host pair
// (FROM-TO@T). Every other directive reads the same on both planes, and
// what a run's engine cannot carry out, or names a link or host the run
// does not have, that engine refuses.
func faultPlan(spec string, live bool, droprate float64, crashes []repro.HostCrash) (repro.FaultPlan, error) {
	fp := repro.FaultPlan{Seed: 1, DropRate: droprate}
	unit := 1.0
	var k repro.LinkKill
	var s repro.HostStall
	kill := form{shape: "LINK@T", dst: []any{&k.Link, &k.At}}
	if live {
		unit = 1000
		kill = form{shape: "FROM-TO@T", dst: []any{&k.From, &k.To, &k.At}}
		k.Link = fault.Pair
	}
	kill.add = func() {
		k.At *= unit
		fp.Kills = append(fp.Kills, k)
	}
	forms := map[string]form{
		"kill": kill,
		"stall": {"HOST@FROM-UNTIL", []any{&s.Host, &s.From, &s.Until}, func() {
			s.From, s.Until = s.From*unit, s.Until*unit
			fp.Stalls = append(fp.Stalls, s)
		}},
		"corrupt": {"P", []any{&fp.CorruptRate}, nil},
		"reorder": {"P", []any{&fp.ReorderRate}, nil},
		"ackdrop": {"P", []any{&fp.AckDropRate}, nil},
		"jitter":  {"D", []any{&fp.MaxJitter}, nil},
		"seed":    {"N", []any{&fp.Seed}, nil},
	}
	for _, c := range crashes {
		c.At, c.RecoverAt = c.At*unit, c.RecoverAt*unit
		fp.Crashes = append(fp.Crashes, c)
	}
	if spec == "" {
		return fp, nil
	}
	for _, dir := range strings.Split(spec, ",") {
		kind, val, ok := strings.Cut(strings.TrimSpace(dir), ":")
		f, known := forms[kind]
		switch {
		case !ok:
			return fp, fmt.Errorf("directive %q is not kind:value", dir)
		case !known:
			return fp, fmt.Errorf("unknown fault directive %q", kind)
		}
		if err := fields(kind, val, f.shape, f.dst...); err != nil {
			return fp, err
		}
		if f.add != nil {
			f.add()
		}
	}
	return fp, nil
}
