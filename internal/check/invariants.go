package check

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/analytic"
	"repro/internal/fault"
	"repro/internal/flitsim"
	"repro/internal/ktree"
	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/ordering"
	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/tree"
)

// Violation is one failed invariant on one instance.
type Violation struct {
	ID     string // invariant identifier (stable across shrinking)
	Detail string // what disagreed, with the numbers
}

func (v Violation) String() string { return fmt.Sprintf("[%s] %s", v.ID, v.Detail) }

// Invariant is one named cross-engine property. Check returns nil when the
// property holds on the built instance.
type Invariant struct {
	ID    string
	Doc   string
	Check func(*world) error
}

// Invariants is the harness catalogue, run in order on every instance.
var Invariants = []Invariant{
	{"tree-structure", "the planned tree is a valid tree over exactly the chain, spans contiguous chain segments (Fig. 11), and respects the fanout bound k", checkTreeStructure},
	{"stepsim-structure", "the step schedule covers every node, sends each packet once per edge, and arrivals are ordered", checkStepsimStructure},
	{"theorem2-bound", "measured FPFS steps never exceed the Theorem-2 model t1(n,k)+(m-1)k", checkTheorem2Bound},
	{"t1-exact", "the single-packet FPFS schedule takes exactly Steps1(n,k) steps", checkT1Exact},
	{"theorem1-full-tree", "on full k-binomial trees the packet-completion lag is exactly c_R=k and total steps are exactly t1+(m-1)k", checkTheorem1FullTree},
	{"discipline-order", "FPFS is never slower than FCFS or conventional forwarding at step granularity", checkDisciplineOrder},
	{"steps-monotone-m", "adding a packet adds at least one FPFS step", checkStepsMonotoneM},
	{"t1-monotone-k", "single-packet steps never increase with a larger fanout bound", checkT1MonotoneK},
	{"analytic-optimality", "the Theorem-3 latency is minimal over the instance's fanout bound", checkAnalyticOptimality},
	{"analytic-loss-identities", "the loss closed forms satisfy their defining identities", checkAnalyticLossIdentities},
	{"sim-stepsim-agree", "on contention-free schedules the event simulator reproduces the step schedule exactly under calibrated constants; under contention it is never faster", checkSimStepsimAgree},
	{"cube-contention-free", "hypercube dimension-ordered chains yield contention-free trees (Fig. 11 construction)", checkCubeContentionFree},
	{"flit-agree", "the flit-level simulator completes structurally and stays within band of the packet-level model", checkFlitAgree},
	{"reliable-lossless-replay", "a zero-fault reliable run replays the lossless engine byte-exactly", checkReliableLosslessReplay},
	{"reliable-loss-agreement", "lossy reliable runs deliver byte-exactly and their send counts match the 1/(1-p) expectation", checkReliableLossAgreement},
	{"loss-pattern-agreement", "under one seed and a loss-only plan, each edge incarnation's first j transmissions are dropped identically over the switched network and the in-process wire, j the smaller send count", checkLossPatternAgreement},
	{"crash-no-posthumous-delivery", "a crash-stopped host is never recorded as completing after its crash instant, nor any host after the run ends", checkCrashNoPosthumousDelivery},
	{"crash-epoch-monotone", "accepted packets carry nondecreasing epochs and installed views advance the epoch strictly", checkCrashEpochMonotone},
	{"crash-survivor-bytes", "every surviving destination is delivered byte-exactly despite crashes, recoveries, and loss", checkCrashSurvivorBytes},
	{"live-matches-sim", "the goroutine live runtime reproduces the FPFS step schedule's structure exactly: per-host delivery order, parent edges, and send/receive counts", checkLiveMatchesSim},
	{"live-faulty-terminates", "the chaos-plane live engine reaches a clean verdict on every fault plan — loss, corruption, reordering, ACK loss, crashes — never the watchdog", checkLiveFaultyTerminates},
	{"live-survivor-bytes", "every destination not scheduled to crash-stop ends the faulty live run holding the byte-exact payload", checkLiveSurvivorBytes},
	{"live-epoch-monotone", "faulty live accepts carry per-host nondecreasing epochs and installed views advance strictly from the initial epoch-1 view", checkLiveEpochMonotone},
	{"live-faulty-lossless-identity", "with the fault plane at p=0 the chaos-wrapped reliable live engine is byte- and order-identical to the plain live engine", checkLiveFaultyLosslessIdentity},
	{"net-matches-live", "the same instance executed over loopback UDP sockets is structurally identical to the in-process live run: delivery order, parent edges, send/receive counts, byte-exact payloads", checkNetMatchesLive},
	{"net-faulty-delivery", "the instance split across two cooperating daemon processes over a lossy UDP fabric still delivers byte-exactly with a clean Delivered verdict — retransmission, ACKs and DONE/STOP handshakes all crossing real sockets", checkNetFaultyDelivery},
	{"sched-matches-serial", "three sessions run concurrently through the session scheduler — shared NIs, a window smaller than the load, DRR fair queueing — deliver byte-exactly with per-host send/receive counts and arrival order identical to each session run alone through the live runtime", checkSchedMatchesSerial},
	{"psim-matches-sim", "the sharded parallel event engine is byte-identical to the serial simulator at every worker count: same results bitwise, same trace order — at the calibration constants (also with every start raised by 1e18, where windows degrade to one timestamp) and at the default constants", checkPsimMatchesSim},
	{"virtual-matches-sim", "two contending plain sessions on the live data plane, run in virtual time over the switched network, equal the simulator's FPFS run to the nanosecond — every session's finish, every destination's completion and the total sends — and deliver byte-exactly", checkVirtualMatchesSim},
}

// InvariantByID returns the catalogue entry with the given ID.
func InvariantByID(id string) (Invariant, bool) {
	for _, inv := range Invariants {
		if inv.ID == id {
			return inv, true
		}
	}
	return Invariant{}, false
}

// selected, when non-nil, restricts Check to the IDs it contains. It is
// written once by Select before a sweep starts and only read afterwards;
// calling Select concurrently with a running sweep is a data race.
var selected map[string]bool

// Select restricts the catalogue that Check — and therefore Run,
// RunParallel, RunCase and Shrink — evaluates to the given IDs; calling
// it with no arguments restores the full catalogue. Unknown IDs are an
// error and leave the filter unchanged. Shrinking is unaffected by the
// filter beyond the obvious: a violation can only come from a selected
// invariant, and that invariant stays selected while its counterexample
// shrinks.
func Select(ids ...string) error {
	if len(ids) == 0 {
		selected = nil
		return nil
	}
	m := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, ok := InvariantByID(id); !ok {
			return fmt.Errorf("check: unknown invariant %q", id)
		}
		m[id] = true
	}
	selected = m
	return nil
}

// Active returns the invariants Check currently evaluates: the whole
// catalogue, or the subset chosen by Select, in catalogue order.
func Active() []Invariant {
	if selected == nil {
		return Invariants
	}
	var out []Invariant
	for _, inv := range Invariants {
		if selected[inv.ID] {
			out = append(out, inv)
		}
	}
	return out
}

// Check builds the instance and runs the full catalogue, converting panics
// (from the harness or any engine) into violations so a crashing backend is
// a reportable, shrinkable finding rather than a process abort.
func Check(inst Instance) []Violation {
	if err := inst.Validate(); err != nil {
		return []Violation{{ID: "invalid-instance", Detail: err.Error()}}
	}
	var out []Violation
	w, err := safeBuild(inst)
	if err != nil {
		return []Violation{{ID: "build-panic", Detail: err.Error()}}
	}
	for _, inv := range Active() {
		if err := safeCheck(inv, w); err != nil {
			out = append(out, Violation{ID: inv.ID, Detail: err.Error()})
		}
	}
	return out
}

func safeBuild(inst Instance) (w *world, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic while building: %v", r)
		}
	}()
	return build(inst), nil
}

func safeCheck(inv Invariant, w *world) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return inv.Check(w)
}

// ---------------------------------------------------------------- tree --

func checkTreeStructure(w *world) error {
	if err := w.plan.Tree.Validate(w.plan.Chain); err != nil {
		return fmt.Errorf("tree invalid over chain: %v", err)
	}
	if !tree.SegmentSpans(w.plan.Tree, w.plan.Chain) {
		return fmt.Errorf("subtree spans a non-contiguous chain segment (k=%d chain=%v)", w.plan.K, w.plan.Chain)
	}
	if d := w.plan.Tree.MaxDegree(); d > w.plan.K {
		return fmt.Errorf("max degree %d exceeds fanout bound k=%d", d, w.plan.K)
	}
	return nil
}

// -------------------------------------------------------------- stepsim --

func checkStepsimStructure(w *world) error {
	s := stepsim.Run(w.plan.Tree, w.m, w.inst.Disc)
	if got, want := len(s.Sends), (w.n-1)*w.m; got != want {
		return fmt.Errorf("%v schedule has %d sends, want (n-1)*m = %d", w.inst.Disc, got, want)
	}
	if len(s.Arrival) != w.n {
		return fmt.Errorf("%v schedule covers %d nodes, want %d", w.inst.Disc, len(s.Arrival), w.n)
	}
	maxArr := 0
	for v, arr := range s.Arrival {
		for j := 1; j < len(arr); j++ {
			if arr[j] < arr[j-1] {
				return fmt.Errorf("%v: node %d receives packet %d at step %d before packet %d at step %d",
					w.inst.Disc, v, j, arr[j], j-1, arr[j-1])
			}
		}
		if v != w.plan.Tree.Root() && arr[0] < 1 {
			return fmt.Errorf("%v: node %d receives packet 0 at step %d < 1", w.inst.Disc, v, arr[0])
		}
		if last := arr[len(arr)-1]; last > maxArr {
			maxArr = last
		}
	}
	if s.TotalSteps != maxArr {
		return fmt.Errorf("%v: TotalSteps=%d but last arrival is step %d", w.inst.Disc, s.TotalSteps, maxArr)
	}
	if done := s.PacketDone(w.m - 1); done != s.TotalSteps {
		return fmt.Errorf("%v: last packet done at %d, total steps %d", w.inst.Disc, done, s.TotalSteps)
	}
	return nil
}

func checkTheorem2Bound(w *world) error {
	got := stepsim.Steps(w.plan.Tree, w.m, stepsim.FPFS)
	if got > w.plan.ModelSteps {
		return fmt.Errorf("measured FPFS steps %d exceed model bound t1+(m-1)k = %d (n=%d m=%d k=%d)",
			got, w.plan.ModelSteps, w.n, w.m, w.plan.K)
	}
	return nil
}

func checkT1Exact(w *world) error {
	got := stepsim.Steps(w.plan.Tree, 1, stepsim.FPFS)
	want := ktree.Steps1(w.n, w.plan.K)
	if got != want {
		return fmt.Errorf("single-packet schedule takes %d steps, Steps1(%d,%d) = %d", got, w.n, w.plan.K, want)
	}
	return nil
}

func checkTheorem1FullTree(w *world) error {
	k := w.plan.K
	s1 := ktree.Steps1(w.n, k)
	if w.n != ktree.Coverage(s1, k) || w.plan.Tree.RootDegree() != k {
		return nil // not a full k-binomial tree; Theorems 1-2 give only bounds
	}
	sched := stepsim.Run(w.plan.Tree, w.m, stepsim.FPFS)
	if want := s1 + (w.m-1)*k; sched.TotalSteps != want {
		return fmt.Errorf("full tree (n=%d k=%d m=%d): %d steps, Theorem 2 says exactly %d",
			w.n, k, w.m, sched.TotalSteps, want)
	}
	for i, lag := range sched.Lags() {
		if lag != k {
			return fmt.Errorf("full tree (n=%d k=%d): packet lag %d is %d, Theorem 1 says c_R=%d",
				w.n, k, i, lag, k)
		}
	}
	return nil
}

func checkDisciplineOrder(w *world) error {
	fp := stepsim.Steps(w.plan.Tree, w.m, stepsim.FPFS)
	fc := stepsim.Steps(w.plan.Tree, w.m, stepsim.FCFS)
	cv := stepsim.Steps(w.plan.Tree, w.m, stepsim.Conventional)
	if fp > fc {
		return fmt.Errorf("FPFS %d steps > FCFS %d steps", fp, fc)
	}
	if fp > cv {
		return fmt.Errorf("FPFS %d steps > conventional %d steps", fp, cv)
	}
	return nil
}

func checkStepsMonotoneM(w *world) error {
	a := stepsim.Steps(w.plan.Tree, w.m, stepsim.FPFS)
	b := stepsim.Steps(w.plan.Tree, w.m+1, stepsim.FPFS)
	if b < a+1 {
		return fmt.Errorf("m=%d takes %d steps but m=%d takes %d: an extra packet must add a step", w.m, a, w.m+1, b)
	}
	return nil
}

func checkT1MonotoneK(w *world) error {
	prev := ktree.Steps1(w.n, 1)
	for k := 2; k <= w.kMax(); k++ {
		cur := ktree.Steps1(w.n, k)
		if cur > prev {
			return fmt.Errorf("Steps1(%d,%d) = %d > Steps1(%d,%d) = %d: t1 must not grow with k",
				w.n, k, cur, w.n, k-1, prev)
		}
		prev = cur
	}
	return nil
}

// ------------------------------------------------------------- analytic --

func checkAnalyticOptimality(w *world) error {
	c := analytic.Costs{THostSend: 12.5, THostRecv: 12.5, TStep: 5.0}
	opt, kOpt := analytic.SmartOptimal(w.n, w.m, c)
	mine := analytic.SmartKBinomial(w.n, w.m, w.plan.K, c)
	if opt > mine+1e-9 {
		return fmt.Errorf("SmartOptimal(n=%d m=%d) = %f (k=%d) beatable by k=%d at %f",
			w.n, w.m, opt, kOpt, w.plan.K, mine)
	}
	if sp := analytic.Speedup(w.n, w.m, c); sp < 1-1e-9 {
		return fmt.Errorf("Speedup(n=%d m=%d) = %f < 1: the optimal tree lost to the binomial baseline", w.n, w.m, sp)
	}
	return nil
}

func checkAnalyticLossIdentities(w *world) error {
	p := w.inst.DropRate
	f := analytic.ExpectedSendsFactor(p)
	if math.Abs(f*(1-p)-1) > 1e-12 {
		return fmt.Errorf("ExpectedSendsFactor(%f)*(1-p) = %v, want 1", p, f*(1-p))
	}
	edges := w.n - 1
	got := analytic.ExpectedTreeSends(edges, w.m, p)
	want := float64(edges) * float64(w.m) * f
	if math.Abs(got-want) > 1e-9*math.Max(1, want) {
		return fmt.Errorf("ExpectedTreeSends(%d,%d,%f) = %f, want edges*m*factor = %f", edges, w.m, p, got, want)
	}
	return nil
}

// -------------------------------------------------------- sim vs stepsim --

// calibrationParams makes one sim transmission cost exactly one t_step
// regardless of route length: zero router delay and zero NI receive
// overhead, so both the NI injection cadence (t_ns + wire) and the
// edge-to-edge packet time collapse to the same constant. Under these
// constants a contention-free step schedule and the event simulation are
// the same object on different clocks.
func calibrationParams() sim.Params {
	return sim.Params{
		THostSend:   8,
		THostRecv:   4,
		TNISend:     3,
		TNIRecv:     0,
		PacketBytes: 64,
		LinkBytesUS: 32, // wire = 2 us, exactly representable
		RouterDelay: 0,
	}
}

func checkSimStepsimAgree(w *world) error {
	p := calibrationParams()
	tstep := p.TNISend + p.WireTime() // 5.0
	for _, d := range []stepsim.Discipline{stepsim.FPFS, stepsim.FCFS} {
		steps := stepsim.Steps(w.plan.Tree, w.m, d)
		res := sim.Multicast(w.sys.Router, w.plan.Tree, w.m, p, d)
		want := p.THostSend + float64(steps)*tstep + p.THostRecv
		if res.Sends != (w.n-1)*w.m {
			return fmt.Errorf("%v: sim injected %d packets, want (n-1)*m = %d", d, res.Sends, (w.n-1)*w.m)
		}
		if len(res.HostDone) != w.n-1 {
			return fmt.Errorf("%v: sim completed %d destinations, want %d", d, len(res.HostDone), w.n-1)
		}
		if res.Latency < want-1e-6 {
			return fmt.Errorf("%v: sim latency %f beats the step schedule's %f — contention can only delay",
				d, res.Latency, want)
		}
		if ordering.Conflicts(w.plan.Tree, w.m, d, w.sys.Router) == 0 {
			if res.ChannelWait != 0 {
				return fmt.Errorf("%v: contention-free schedule but sim reports %f us channel wait", d, res.ChannelWait)
			}
			if math.Abs(res.Latency-want) > 1e-6 {
				return fmt.Errorf("%v: contention-free latency %f != t_s + steps*t_step + t_r = %f (steps=%d)",
					d, res.Latency, want, steps)
			}
		}
	}
	return nil
}

func checkCubeContentionFree(w *world) error {
	if w.inst.Topo != TopoCube || w.inst.Arity != 2 {
		return nil // the guarantee is specific to hypercubes with e-cube routing
	}
	if c := ordering.Conflicts(w.plan.Tree, w.m, stepsim.FPFS, w.sys.Router); c != 0 {
		return fmt.Errorf("hypercube 2^%d k=%d: %d same-step channel conflicts, want 0", w.inst.Dims, w.plan.K, c)
	}
	return nil
}

// -------------------------------------------------------------- flitsim --

// flitAgreeBand bounds the flit-level vs packet-level latency ratio. The
// packet model reserves whole paths atomically, so it can be slightly
// pessimistic or optimistic against true wormhole flow control, but on
// these workloads the two track each other well within this band (the
// flitcheck experiment measures ratios within a few percent of 1).
const flitAgreeLo, flitAgreeHi = 0.5, 2.0

func checkFlitAgree(w *world) error {
	if w.inst.Hosts() > 16 || w.m > 4 {
		return nil // keep the cycle-accurate arm off the big instances
	}
	fp := flitsim.DefaultParams()
	fr := flitsim.Multicast(w.sys.Router, w.plan.Tree, w.m, fp)
	if fr.Injections != (w.n-1)*w.m {
		return fmt.Errorf("flitsim injected %d copies, want (n-1)*m = %d", fr.Injections, (w.n-1)*w.m)
	}
	if len(fr.HostDone) != w.n-1 {
		return fmt.Errorf("flitsim completed %d destinations, want %d", len(fr.HostDone), w.n-1)
	}
	pk := sim.Multicast(w.sys.Router, w.plan.Tree, w.m, fp.PacketParams(), stepsim.FPFS)
	if ratio := fr.Latency / pk.Latency; ratio < flitAgreeLo || ratio > flitAgreeHi {
		return fmt.Errorf("flit latency %f vs packet-level %f: ratio %f outside [%g, %g]",
			fr.Latency, pk.Latency, ratio, flitAgreeLo, flitAgreeHi)
	}
	return nil
}

// ------------------------------------------------------------- reliable --

// reliableConfig is the harness protocol configuration: the package
// defaults with a deeper retry budget, so that at the harness's loss
// rates (p <= 0.15) the probability of a spurious orphan is negligible,
// and quorum 1, so crash instances report partial delivery instead of a
// quorum error (the crash invariants judge the survivors directly).
func reliableConfig() reliable.Config {
	cfg := reliable.DefaultConfig()
	cfg.RetryBudget = 20
	cfg.Quorum = 1
	return cfg
}

func checkReliableLosslessReplay(w *world) error {
	cfg := reliableConfig()
	payload := w.inst.payload()
	res, err := live.Deliver(w.sys, w.plan, payload, cfg, fault.Plan{})
	if err != nil {
		return fmt.Errorf("zero-fault delivery failed: %v", err)
	}
	// The run's clock ticks in nanoseconds, and the simulator's constants
	// are whole nanoseconds, so the lossless engine's times rounded to the
	// nanosecond must match exactly: a real schedule difference is at
	// least a router delay.
	want := sim.Multicast(w.sys.Router, w.plan.Tree, res.Packets, cfg.Params, stepsim.FPFS)
	if res.Latency != nanos(want.Latency) {
		return fmt.Errorf("zero-fault latency %v != lossless engine %f us", res.Latency, want.Latency)
	}
	if res.Sends != want.Sends || res.Retransmits != 0 || res.Duplicates != 0 {
		return fmt.Errorf("zero-fault sends=%d retransmits=%d duplicates=%d, lossless engine sends=%d",
			res.Sends, res.Retransmits, res.Duplicates, want.Sends)
	}
	// Iterate hosts in sorted order: the violation detail must name the
	// same host on every run, or parallel and serial harness reports could
	// diff on a real failure.
	hosts := make([]int, 0, len(want.HostDone))
	for h := range want.HostDone {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	for _, h := range hosts {
		if got := res.Hosts[h].DoneAt; got != nanos(want.HostDone[h]) {
			return fmt.Errorf("zero-fault host %d done at %v, lossless engine says %f us", h, got, want.HostDone[h])
		}
	}
	for _, d := range w.inst.Dests {
		if got := res.Hosts[d].Data; !bytes.Equal(got, payload) {
			return fmt.Errorf("zero-fault destination %d received %d bytes, want the %d-byte payload",
				d, len(got), len(payload))
		}
	}
	return nil
}

// nanos rounds a time in microseconds to the run clock's nanosecond.
func nanos(us float64) time.Duration { return time.Duration(math.Round(us * 1e3)) }

// lossyRun executes (once per world) the loss-only switched arm; the loss
// invariants and the digest pin read it.
func (w *world) lossyRun() (*live.ReliableResult, error) {
	return w.lossy.get(func() (*live.ReliableResult, error) {
		fp := fault.Plan{Seed: w.inst.FaultSeed, DropRate: w.inst.DropRate}
		return live.Deliver(w.sys, w.plan, w.inst.payload(), reliableConfig(), fp)
	})
}

func checkReliableLossAgreement(w *world) error {
	p := w.inst.DropRate
	if p == 0 {
		return nil
	}
	payload := w.inst.payload()
	res, err := w.lossyRun()
	if err != nil {
		return fmt.Errorf("lossy delivery (p=%f) failed: %v", p, err)
	}
	for _, d := range w.inst.Dests {
		if got := res.Hosts[d].Data; !bytes.Equal(got, payload) {
			return fmt.Errorf("lossy destination %d received %d bytes, want the %d-byte payload",
				d, len(got), len(payload))
		}
	}
	attempts := (w.n - 1) * res.Packets
	if res.Sends != attempts+res.Retransmits {
		return fmt.Errorf("sends=%d != first attempts %d + retransmits %d", res.Sends, attempts, res.Retransmits)
	}
	// Every (edge, packet) takes Geometric(1-p) transmissions, so total
	// sends concentrate on N/(1-p) with stddev sqrt(N p)/(1-p). A 6-sigma
	// band plus constant slack keeps the check deterministic-by-seed while
	// still catching any systematic drift from the closed form.
	nTrials := float64(attempts)
	want := nTrials * analytic.ExpectedSendsFactor(p)
	band := 6*math.Sqrt(nTrials*p)/(1-p) + 8
	if got := float64(res.Sends); math.Abs(got-want) > band {
		return fmt.Errorf("p=%f: %d sends over %d edge-packets, expectation %f (band +/-%f): 1/(1-p) model violated",
			p, res.Sends, attempts, want, band)
	}
	return nil
}

// --------------------------------------------------------------- crashes --

// crashes maps the instance's step-indexed crash schedule onto a clock
// whose protocol step s lands at origin + s*step.
func (in Instance) crashes(origin, step float64) []fault.Crash {
	var out []fault.Crash
	for _, cr := range in.Crashes {
		c := fault.Crash{Host: cr.Host, At: origin + float64(cr.AtStep)*step}
		if cr.RecoverStep > 0 {
			c.RecoverAt = origin + float64(cr.RecoverStep)*step
		}
		out = append(out, c)
	}
	return out
}

// crashFaultPlan composes the crashes, on the simulator clock, with the
// instance's packet loss: protocol step s lands at t_s + s*(t_ns + wire),
// the NI injection cadence under the harness constants, so integer steps
// in a shrunk instance stay aligned with protocol activity.
func (in Instance) crashFaultPlan(p sim.Params) fault.Plan {
	return fault.Plan{Seed: in.FaultSeed, DropRate: in.DropRate, Crashes: in.crashes(p.THostSend, p.TNISend+p.WireTime())}
}

// crashRun executes (once per world) the crash-tolerance arm of the
// instance. The result is inspected even when the typed error is non-nil
// (a lone destination that crash-stops legitimately misses quorum 1); only
// a nil result — the protocol refusing to run at all — is a harness-level
// failure.
func (w *world) crashRun() (*live.ReliableResult, error) {
	return w.crash.get(func() (*live.ReliableResult, error) {
		cfg := reliableConfig()
		return live.Deliver(w.sys, w.plan, w.inst.payload(), cfg, w.inst.crashFaultPlan(cfg.Params))
	})
}

func checkCrashNoPosthumousDelivery(w *world) error {
	if len(w.inst.Crashes) == 0 {
		return nil
	}
	res, err := w.crashRun()
	if res == nil {
		return fmt.Errorf("crash run produced no result: %v", err)
	}
	if res.Wall < res.Latency {
		return fmt.Errorf("the run ends at %v, before its last completion at %v", res.Wall, res.Latency)
	}
	fp := w.inst.crashFaultPlan(reliableConfig().Params)
	for _, hc := range fp.Crashes {
		if hc.RecoverAt > 0 {
			continue // a recovered host may finish after its crash
		}
		if rec := res.Hosts[hc.Host]; rec != nil && rec.Data != nil && (rec.DoneAt <= 0 || link.US(rec.DoneAt) > hc.At) {
			return fmt.Errorf("host %d crash-stops at %f but holds a payload done at %v", hc.Host, hc.At, rec.DoneAt)
		}
	}
	return nil
}

// checkCrashEpochMonotone holds the switched crash arm to epochsMonotone
// and, on its one clock, to more: accepts in global time order under
// nondecreasing epochs.
func checkCrashEpochMonotone(w *world) error {
	if len(w.inst.Crashes) == 0 {
		return nil
	}
	res, err := w.crashRun()
	if res == nil {
		return fmt.Errorf("crash run produced no result: %v", err)
	}
	if err := epochsMonotone(res); err != nil {
		return err
	}
	for i := 1; i < len(res.Accepts); i++ {
		a, prev := res.Accepts[i], res.Accepts[i-1]
		if a.Epoch < prev.Epoch {
			return fmt.Errorf("accept %d at t=%v regressed to epoch %d after epoch %d", i, a.At, a.Epoch, prev.Epoch)
		}
		if a.At < prev.At {
			return fmt.Errorf("accept %d at t=%v precedes accept %d at t=%v", i, a.At, i-1, prev.At)
		}
	}
	return nil
}

func checkCrashSurvivorBytes(w *world) error {
	if len(w.inst.Crashes) == 0 {
		return nil
	}
	res, err := w.crashRun()
	if res == nil {
		return fmt.Errorf("crash run produced no result: %v", err)
	}
	return w.survivorBytes(res, err, w.inst.payload())
}
