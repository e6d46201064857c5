package routing

import (
	"hash/fnv"
	"testing"

	"repro/internal/topology"
)

// routeTableHash folds every ordered host pair's route — channels, then
// switches, each length-prefixed — into one FNV-1a value.
func routeTableHash(r Router) uint64 {
	h := fnv.New64a()
	put := func(v int) {
		h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	n := r.Network().NumHosts()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			route := r.Route(src, dst)
			for _, part := range [][]int{route.Channels, route.Switches} {
				put(len(part))
				for _, v := range part {
					put(v)
				}
			}
		}
	}
	return h.Sum64()
}

// TestDimOrderRoutesAreTheRecordedOnes holds DimOrder to the routes of the
// two routers it replaced. The hashes were recorded from routing.ECube on
// topology.Cube and routing.MeshDimOrder on topology.Mesh at the commit
// before either was touched (PR 18), so they pin the grid builder's link
// numbering and the router's walk together: a changed link order, channel
// ID, step direction or wrap rule on any ordered host pair changes a hash.
// Never re-record them from a later tree.
func TestDimOrderRoutesAreTheRecordedOnes(t *testing.T) {
	for _, tc := range []struct {
		wrap        bool
		arity, dims int
		want        uint64
	}{
		{true, 2, 4, 0xc46a874597e90265},
		{true, 3, 2, 0x3ea5f9c145dbd27},
		{true, 4, 2, 0xa03d075811cd8de5},
		{true, 5, 2, 0x430227afd535a8ed},
		{false, 3, 2, 0xfe44a811c474b825},
		{false, 4, 3, 0x782771b2c5fc4ad5},
		{false, 10, 2, 0x8a44ff2974b4cb6d},
	} {
		var r Router
		if tc.wrap {
			r = NewECube(topology.Cube(tc.arity, tc.dims), tc.arity, tc.dims)
		} else {
			r = NewMeshDimOrder(topology.Mesh(tc.arity, tc.dims), tc.arity, tc.dims)
		}
		if got := routeTableHash(r); got != tc.want {
			t.Errorf("%s %d^%d: route table hash %#x, recorded %#x", r.Name(), tc.arity, tc.dims, got, tc.want)
		}
	}
}
