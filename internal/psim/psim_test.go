package psim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

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

// TestWindowEdges covers the barrier's boundary cases, table-driven:
// windows degraded to a single timestamp (a clock at 1e300 absorbs every
// delay, so all events of a session share one timestamp and only seq
// orders them; zero host overheads put Conventional forwards at their
// creator's exact timestamp) and partitions with no hosts.
func TestWindowEdges(t *testing.T) {
	base := testParams()
	zeroOverhead := base
	zeroOverhead.THostSend = 0
	zeroOverhead.THostRecv = 0
	cases := []struct {
		name  string
		p     sim.Params
		disc  stepsim.Discipline
		cfg   Config
		start float64 // added to every session's Start
	}{
		{name: "zero-lookahead-window-override", p: base, disc: stepsim.FPFS, start: 1e300},
		{name: "zero-lookahead-conventional", p: base, disc: stepsim.Conventional, start: 1e300},
		{name: "empty-partitions", p: base, disc: stepsim.FCFS,
			cfg: Config{Workers: 3, Parts: allToWorkerZero(16, t)}},
		{name: "same-timestamp-forwards", p: zeroOverhead, disc: stepsim.Conventional,
			cfg: Config{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			router := meshRouter(4, 2)
			sessions := overlappingSessions(16)
			for i := range sessions {
				sessions[i].Start += tc.start
			}
			expectMatch(t, router, sessions, tc.p, tc.disc, tc.cfg)
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
	// Events: 1 start per session + 2 per copy (its completion and its
	// delivery) — count sends from the oracle instead of re-deriving tree
	// shapes.
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
