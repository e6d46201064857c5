package sim

import (
	"runtime"
	"testing"

	"repro/internal/routing"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/tree"
)

// meshMulticast is one k=4, 2-packet multicast from host 0 to every other
// host of an arity x arity mesh, with the tree's routes precomputed for
// the windowed scheduler.
func meshMulticast(arity int) (routing.Router, Session, map[[2]int]routing.Route) {
	net := topology.Mesh(arity, 2)
	router := routing.NewMeshDimOrder(net, arity, 2)
	chain := make([]int, net.NumHosts())
	for i := range chain {
		chain[i] = i
	}
	tr := tree.KBinomial(chain, 4)
	routes := map[[2]int]routing.Route{}
	for _, e := range tr.Edges() {
		routes[[2]int{e.Parent, e.Child}] = router.Route(e.Parent, e.Child)
	}
	return router, Session{Tree: tr, Packets: 2}, routes
}

// kernels are the serial loop and the windowed scheduler at one and two
// workers, each one run of the session.
func kernels(router routing.Router, sess Session, routes map[[2]int]routing.Route) map[string]func() {
	p := DefaultParams()
	sessions := []Session{sess}
	windowed := func(w int) func() {
		return func() {
			ConcurrentWindowed(router, sessions, p, stepsim.FPFS, false, nil, WindowConfig{Workers: w, Routes: routes})
		}
	}
	return map[string]func(){
		"serial": func() { Multicast(router, sess.Tree, sess.Packets, p, stepsim.FPFS) },
		"W=1":    windowed(1),
		"W=2":    windowed(2),
	}
}

// TestMulticastAllocs10kHosts pins pool recycling at scale: a 10k-host
// multicast run on a warmed carcass allocates only what escapes to the
// caller — the result and its per-host maps — not per-event or per-host
// state, under either scheduler. Without the carcass free list and the
// retained event queues, every run at this size re-allocates the host
// table and the session tables and re-grows the queues: ~40k allocations
// per run. The budget is far below the 20k scheduled events, so any
// per-event or per-host regression trips it immediately.
func TestMulticastAllocs10kHosts(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow memory inflates allocation counts ~10x")
	}
	for name, run := range kernels(meshMulticast(100)) {
		run() // warm the carcass, the route cache and the event queues
		allocs := testing.AllocsPerRun(5, run)
		// The floor is the escaping result: two float maps and one int map
		// with ~10k entries each (bucket arrays plus overflow buckets).
		if allocs > 2000 {
			t.Errorf("%s: 10k-host multicast = %.0f allocs per run, budget 2000", name, allocs)
		}
	}
}

// TestAllocsSurviveGC pins the carcass free list as owned: two collector
// cycles between runs — what empties a sync.Pool — must not send the next
// run back to allocating its host tables, session tables and event queues
// (buckets and their free list included), under either scheduler.
func TestAllocsSurviveGC(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow memory inflates allocation counts ~10x")
	}
	for name, run := range kernels(meshMulticast(32)) {
		run() // warm the carcass, the route cache and the event queues
		warm := testing.AllocsPerRun(1, run)
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if got := float64(after.Mallocs - before.Mallocs); got > 2*warm {
			t.Errorf("%s: first run after two GC cycles = %.0f allocs, warm run %.0f: the carcass was collected", name, got, warm)
		}
	}
}
