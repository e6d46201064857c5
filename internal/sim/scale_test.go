package sim

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/tree"
)

// TestMulticastAllocs10kHosts pins pool recycling at scale: a 10k-host
// multicast run on a warmed carcass allocates only what escapes to the
// caller — the result and its per-host maps — not per-event or per-host
// state. Without the carcass pool and the retained heap, every run at this
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
	run() // warm the carcass pool, the route cache and the event heap
	allocs := testing.AllocsPerRun(5, run)
	// The floor is the escaping result: two float maps and one int map
	// with ~10k entries each (bucket arrays plus overflow buckets).
	if allocs > 2000 {
		t.Errorf("10k-host multicast = %.0f allocs per run, budget 2000", allocs)
	}
}
