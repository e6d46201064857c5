package sim

import (
	"runtime"
	"testing"

	"repro/internal/routing"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/tree"
)

// TestMulticastAllocs10kHosts pins pool recycling at scale: a 10k-host
// multicast run on a warmed carcass allocates only what escapes to the
// caller — the result and its per-host maps — not per-event or per-host
// state. Without the carcass free list and the retained heap, every run at this
// size re-allocates the host table and the session tables and re-grows the
// event heap: ~40k allocations per run. The budget is far below the 20k
// scheduled events, so any per-event or per-host regression trips it
// immediately.
func TestMulticastAllocs10kHosts(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow memory inflates allocation counts ~10x")
	}
	const arity, dims = 100, 2 // 10000 hosts
	net := topology.Mesh(arity, dims)
	router := routing.NewMeshDimOrder(net, arity, dims)
	chain := make([]int, net.NumHosts())
	for i := range chain {
		chain[i] = i
	}
	tr := tree.KBinomial(chain, 4)
	p := DefaultParams()
	run := func() {
		Multicast(router, tr, 2, p, stepsim.FPFS)
	}
	run() // warm the carcass, the route cache and the event heap
	allocs := testing.AllocsPerRun(5, run)
	// The floor is the escaping result: two float maps and one int map
	// with ~10k entries each (bucket arrays plus overflow buckets).
	if allocs > 2000 {
		t.Errorf("10k-host multicast = %.0f allocs per run, budget 2000", allocs)
	}
}

// TestAllocsSurviveGC pins the carcass free list as owned: two collector
// cycles between runs — what empties a sync.Pool — must not send the next
// run back to allocating its host tables, session tables and event heaps.
func TestAllocsSurviveGC(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow memory inflates allocation counts ~10x")
	}
	const arity, dims = 32, 2 // 1024 hosts
	net := topology.Mesh(arity, dims)
	router := routing.NewMeshDimOrder(net, arity, dims)
	chain := make([]int, net.NumHosts())
	for i := range chain {
		chain[i] = i
	}
	sessions := []Session{{Tree: tree.KBinomial(chain, 4), Packets: 2}}
	p := DefaultParams()
	run := func() { Concurrent(router, sessions, p, stepsim.FPFS) }
	run() // warm the carcass, the route cache and the event heap
	warm := testing.AllocsPerRun(1, run)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs - before.Mallocs); got > 2*warm {
		t.Errorf("first run after two GC cycles = %.0f allocs, warm run %.0f: the carcass was collected", got, warm)
	}
}
