package psim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/tree"
	"repro/internal/workload"
)

// testParams keeps the arithmetic on exact binary fractions so a correct
// parallel schedule is bitwise-identical, never merely close.
func testParams() sim.Params {
	return sim.Params{
		THostSend:   8,
		THostRecv:   4,
		TNISend:     3,
		TNIRecv:     0.5,
		PacketBytes: 64,
		LinkBytesUS: 32, // wire = 2.0
		RouterDelay: 0.25,
	}
}

func meshRouter(arity, dims int) routing.Router {
	net := topology.Mesh(arity, dims)
	return routing.NewMeshDimOrder(net, arity, dims)
}

func irregularRouter(seed uint64) routing.Router {
	net := topology.Irregular(topology.IrregularConfig{Hosts: 48, Switches: 12, Ports: 6},
		workload.NewRNG(seed))
	return routing.NewUpDown(net)
}

// overlappingSessions builds three sessions whose trees share hosts and
// whose starts stagger, so NIs and channels are contended across
// sessions — the hard case for any reordering bug.
func overlappingSessions(numHosts int) []sim.Session {
	chainA := make([]int, 0, numHosts)
	for h := 0; h < numHosts; h++ {
		chainA = append(chainA, h)
	}
	chainB := make([]int, 0, numHosts/2+1)
	for h := numHosts - 1; h >= 0; h -= 2 {
		chainB = append(chainB, h)
	}
	chainC := []int{3, 11, 7, 0, numHosts - 1, 5}
	return []sim.Session{
		{Tree: tree.KBinomial(chainA, 3), Packets: 3, Start: 0},
		{Tree: tree.KBinomial(chainB, 2), Packets: 2, Start: 5},
		{Tree: tree.KBinomial(chainC, 1), Packets: 4, Start: 11},
	}
}

// expectMatch runs the serial oracle and psim at several worker counts
// and requires bitwise-identical results and traces.
func expectMatch(t *testing.T, router routing.Router, sessions []sim.Session,
	p sim.Params, disc stepsim.Discipline, cfg Config) {
	t.Helper()
	wantRes, wantTrace := sim.ConcurrentTraced(router, sessions, p, disc, true)
	for _, workers := range []int{1, 2, 3, 4} {
		c := cfg
		c.Workers = workers
		gotRes, gotTrace := ConcurrentTraced(router, sessions, p, disc, true, c)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("workers=%d: result diverged\n got %+v\nwant %+v", workers, gotRes, wantRes)
		}
		if len(gotTrace) != len(wantTrace) {
			t.Fatalf("workers=%d: %d trace events, want %d", workers, len(gotTrace), len(wantTrace))
		}
		for i := range wantTrace {
			if gotTrace[i] != wantTrace[i] {
				t.Fatalf("workers=%d: trace[%d] = %+v, want %+v", workers, i, gotTrace[i], wantTrace[i])
			}
		}
	}
}

// TestMatchesSerial is the core differential: every discipline, port
// count, and topology family, at 1-4 workers, against the serial oracle.
func TestMatchesSerial(t *testing.T) {
	for _, disc := range []stepsim.Discipline{stepsim.FPFS, stepsim.FCFS, stepsim.Conventional} {
		for _, ports := range []int{1, 2} {
			p := testParams()
			p.NIPorts = ports
			mesh := meshRouter(4, 2)
			expectMatch(t, mesh, overlappingSessions(16), p, disc, Config{})
			irr := irregularRouter(7)
			expectMatch(t, irr, overlappingSessions(48), p, disc, Config{})
		}
	}
}

// TestFaultyRefusesWhatItCannotHonour: both schedulers refuse, by type,
// the plan fields a run without acknowledgments, crashes or a wall clock
// cannot carry out — a crash or an ACK-loss rate is not silently ignored
// and reported as a clean makespan — and a kill of a link the network
// does not have.
func TestFaultyRefusesWhatItCannotHonour(t *testing.T) {
	router := meshRouter(4, 2)
	sessions := overlappingSessions(16)
	links := len(router.Network().Links())
	for _, c := range []struct {
		name string
		plan fault.Plan
	}{
		{"Crashes", fault.Plan{Crashes: []fault.Crash{{Host: 2, At: 1}}}},
		{"AckDropRate", fault.Plan{AckDropRate: 0.5}},
		{"ReorderRate", fault.Plan{ReorderRate: 0.5}},
		{"MaxJitter", fault.Plan{MaxJitter: 1000}},
		{"Kills (host pair)", fault.Plan{Kills: []fault.Kill{{Link: fault.Pair, From: 1, To: 2}}}},
		{"Kills (link)", fault.Plan{Kills: []fault.Kill{{Link: links, At: 1}}}},
	} {
		_, serr := sim.ConcurrentFaulty(router, sessions, testParams(), stepsim.FPFS, c.plan)
		_, perr := ConcurrentFaulty(router, sessions, testParams(), stepsim.FPFS, c.plan, Config{Workers: 2})
		for _, err := range []error{serr, perr} {
			var re *fault.RefusedError
			switch {
			case err == nil:
				t.Errorf("%s: plan %+v accepted", c.name, c.plan)
			case c.name == "Kills (link)":
				if !strings.Contains(err.Error(), "out of range") {
					t.Errorf("%s: %v, want the link named out of range", c.name, err)
				}
			case !errors.As(err, &re) || re.Field != c.name:
				t.Errorf("%s: %v, want a *fault.RefusedError naming it", c.name, err)
			}
		}
	}
}

// TestMatchesSerialFaulty pins the fault plane: each loss stream's draw order, the
// stall accumulation order, and dead-link accounting must all replay the
// serial sequence, or drops land on different packets.
func TestMatchesSerialFaulty(t *testing.T) {
	p := testParams()
	plan := fault.Plan{
		Seed:        42,
		DropRate:    0.08,
		CorruptRate: 0.03,
		Stalls: []fault.Stall{
			{Host: 2, From: 10, Until: 40},
			{Host: 7, From: 0, Until: 25},
		},
		Kills: []fault.Kill{{Link: 3, At: 30}, {Link: 9, At: 55}},
	}
	for _, disc := range []stepsim.Discipline{stepsim.FPFS, stepsim.FCFS, stepsim.Conventional} {
		router := meshRouter(4, 2)
		sessions := overlappingSessions(16)
		want, err := sim.ConcurrentFaulty(router, sessions, p, disc, plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			got, err := ConcurrentFaulty(router, sessions, p, disc, plan, Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("disc=%v workers=%d: faulty result diverged\n got %+v\nwant %+v",
					disc, workers, got, want)
			}
		}
	}
}

// TestWindowEdges covers the barrier's boundary cases, table-driven:
// windows degraded to a single timestamp (a clock at 1e300 absorbs every
// delay, so all events of a session share one timestamp and only seq
// orders them; zero host overheads put Conventional forwards at their
// creator's exact timestamp), partitions with no hosts, and link kills
// timed exactly on a window boundary.
func TestWindowEdges(t *testing.T) {
	base := testParams()
	zeroOverhead := base
	zeroOverhead.THostSend = 0
	zeroOverhead.THostRecv = 0
	// With testParams and a session starting at 0, the first event fires
	// at t=8 and the lookahead is t_ns + wire = 5, so the first window is
	// exactly [8, 13): 13.0 is the first boundary a kill can sit on.
	const boundary = 13.0
	eps := 1e-9
	cases := []struct {
		name  string
		p     sim.Params
		disc  stepsim.Discipline
		cfg   Config
		plan  *fault.Plan
		start float64 // added to every session's Start
	}{
		{name: "zero-lookahead-window-override", p: base, disc: stepsim.FPFS, start: 1e300},
		{name: "zero-lookahead-conventional", p: base, disc: stepsim.Conventional, start: 1e300},
		{name: "empty-partitions", p: base, disc: stepsim.FCFS,
			cfg: Config{Workers: 3, Parts: allToWorkerZero(16, t)}},
		{name: "same-timestamp-forwards", p: zeroOverhead, disc: stepsim.Conventional,
			cfg: Config{}},
		{name: "kill-before-boundary", p: base, disc: stepsim.FPFS,
			plan: &fault.Plan{Seed: 1, Kills: []fault.Kill{{Link: 2, At: boundary - eps}}}},
		{name: "kill-on-boundary", p: base, disc: stepsim.FPFS,
			plan: &fault.Plan{Seed: 1, Kills: []fault.Kill{{Link: 2, At: boundary}}}},
		{name: "kill-after-boundary", p: base, disc: stepsim.FPFS,
			plan: &fault.Plan{Seed: 1, Kills: []fault.Kill{{Link: 2, At: boundary + eps}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			router := meshRouter(4, 2)
			sessions := overlappingSessions(16)
			for i := range sessions {
				sessions[i].Start += tc.start
			}
			if tc.plan == nil {
				expectMatch(t, router, sessions, tc.p, tc.disc, tc.cfg)
				return
			}
			want, err := sim.ConcurrentFaulty(router, sessions, tc.p, tc.disc, *tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				cfg := tc.cfg
				cfg.Workers = workers
				got, err := ConcurrentFaulty(router, sessions, tc.p, tc.disc, *tc.plan, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: diverged\n got %+v\nwant %+v", workers, got, want)
				}
			}
		})
	}
}

func allToWorkerZero(hosts int, t *testing.T) []int {
	t.Helper()
	return make([]int, hosts) // workers 1 and 2 own no hosts
}

// TestWindowStats checks the synchronization counters: every simulated
// event is counted exactly once, and the lookahead is t_ns + wire.
func TestWindowStats(t *testing.T) {
	router := meshRouter(4, 2)
	sessions := overlappingSessions(16)
	p := testParams()
	var ws WindowStats
	Concurrent(router, sessions, p, stepsim.FPFS, Config{Workers: 2, Stats: &ws})
	if ws.Workers != 2 {
		t.Errorf("Workers = %d, want 2", ws.Workers)
	}
	if want := p.TNISend + p.WireTime(); ws.Lookahead != want {
		t.Errorf("Lookahead = %v, want %v", ws.Lookahead, want)
	}
	if ws.Windows < 2 {
		t.Errorf("Windows = %d, want several", ws.Windows)
	}
	// Events: 1 start per session + 2 per delivered copy + 1 per
	// undelivered completion; lossless, so every non-root node of every
	// session receives every packet from one parent send — count sends
	// from the oracle instead of re-deriving tree shapes.
	res := sim.Concurrent(router, sessions, p, stepsim.FPFS)
	wantEvents := len(sessions) + 2*res.Sends
	if ws.Events != wantEvents {
		t.Errorf("Events = %d, want %d", ws.Events, wantEvents)
	}
	if ws.PerWindow.N() != ws.Windows {
		t.Errorf("PerWindow.N = %d, want %d", ws.PerWindow.N(), ws.Windows)
	}
	if ws.Mailed <= 0 {
		t.Errorf("Mailed = %d, want > 0 (slab partition of an overlapping workload must cut edges)", ws.Mailed)
	}
}

// TestPrecomputedRoutes checks the Config.Routes fast path returns the
// same results as router-resolved routes.
func TestPrecomputedRoutes(t *testing.T) {
	router := meshRouter(4, 2)
	sessions := overlappingSessions(16)
	p := testParams()
	routes := map[[2]int]routing.Route{}
	for _, sess := range sessions {
		for _, v := range sess.Tree.Nodes() {
			for _, c := range sess.Tree.Children(v) {
				routes[[2]int{v, c}] = router.Route(v, c)
			}
		}
	}
	want := sim.Concurrent(router, sessions, p, stepsim.FPFS)
	for _, workers := range []int{1, 2} {
		got := Concurrent(router, sessions, p, stepsim.FPFS, Config{Workers: workers, Routes: routes})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: precomputed routes diverged\n got %+v\nwant %+v", workers, got, want)
		}
	}

	// An entry that holds some other pair's route used to be simulated
	// silently, reserving the wrong channels.
	edge := [2]int{0, sessions[0].Tree.Children(0)[0]}
	routes[edge] = router.Route(edge[1], 0)
	for _, workers := range []int{1, 2} {
		expectPanicNaming(t, fmt.Sprintf("workers=%d", workers), fmt.Sprintf("edge %d->%d", edge[0], edge[1]), func() {
			Concurrent(router, sessions, p, stepsim.FPFS, Config{Workers: workers, Routes: routes})
		})
	}
}

// expectPanicNaming runs f and requires a panic, recovered on this
// goroutine, whose message contains want.
func expectPanicNaming(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Errorf("%s: recovered %q, want a panic naming %q", name, msg, want)
		}
	}()
	f()
}

// TestConfigPanics pins the partition-validation errors.
func TestConfigPanics(t *testing.T) {
	router := meshRouter(2, 2)
	sessions := []sim.Session{{Tree: tree.KBinomial([]int{0, 1, 2}, 1), Packets: 1}}
	expectPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		Concurrent(router, sessions, testParams(), stepsim.FPFS, cfg)
	}
	expectPanic("short parts", Config{Workers: 2, Parts: []int{0, 1}})
	expectPanic("part out of range", Config{Workers: 2, Parts: []int{0, 1, 2, 0}})
}

// TestUnknownDisciplinePanics: the first switch on the discipline runs on
// a pool goroutine when Workers > 1, where a panic used to take the whole
// process down; every door must refuse on the caller's goroutine instead.
func TestUnknownDisciplinePanics(t *testing.T) {
	router := meshRouter(4, 2)
	sessions := overlappingSessions(16)
	p := testParams()
	const bogus = stepsim.Discipline(7)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"sim.Concurrent", func() { sim.Concurrent(router, sessions, p, bogus) }},
		{"psim.Concurrent W=1", func() { Concurrent(router, sessions, p, bogus, Config{Workers: 1}) }},
		{"psim.Concurrent W=2", func() { Concurrent(router, sessions, p, bogus, Config{Workers: 2}) }},
	} {
		expectPanicNaming(t, tc.name, "unknown discipline "+bogus.String(), tc.run)
	}
}

// TestNonFiniteStartPanics: a NaN or infinite Session.Start passes a plain
// "< 0" guard and used to return garbage for every session (makespan 0,
// NaN channel wait); both schedulers must refuse it, naming the session.
func TestNonFiniteStartPanics(t *testing.T) {
	router := meshRouter(4, 2)
	p := testParams()
	for _, start := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		sessions := overlappingSessions(16)[:2]
		sessions[1].Start = start
		for name, run := range map[string]func(){
			"sim":  func() { sim.Concurrent(router, sessions, p, stepsim.FPFS) },
			"psim": func() { Concurrent(router, sessions, p, stepsim.FPFS, Config{Workers: 2}) },
		} {
			expectPanicNaming(t, fmt.Sprintf("%s.Concurrent, Start=%v", name, start), "session 1 starts at", run)
		}
	}
}

// TestReuse runs different workloads back-to-back through the pooled
// engine so stale carcass state (slot maps, queues, counters) would
// surface as divergence on the second run.
func TestReuse(t *testing.T) {
	p := testParams()
	mesh := meshRouter(4, 2)
	irr := irregularRouter(3)
	for i := 0; i < 3; i++ {
		expectMatch(t, mesh, overlappingSessions(16), p, stepsim.FPFS, Config{})
		expectMatch(t, irr, overlappingSessions(48), p, stepsim.Conventional, Config{})
		one := []sim.Session{{Tree: tree.KBinomial([]int{5, 1}, 1), Packets: 1, Start: 2}}
		expectMatch(t, mesh, one, p, stepsim.FCFS, Config{})
	}
}
