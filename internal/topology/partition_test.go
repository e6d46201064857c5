package topology

import (
	"testing"

	"repro/internal/workload"
)

func TestPartitionSlabOnMesh(t *testing.T) {
	net := Mesh(8, 2) // 64 hosts, row-major numbering
	owner := Partition(net, 4)
	if len(owner) != 64 {
		t.Fatalf("owner length = %d, want 64", len(owner))
	}
	counts := make([]int, 4)
	for h, p := range owner {
		if p < 0 || p >= 4 {
			t.Fatalf("host %d assigned to part %d", h, p)
		}
		if h > 0 && p < owner[h-1] {
			t.Fatalf("slab partition not monotone at host %d: %d after %d", h, p, owner[h-1])
		}
		counts[p]++
	}
	for p, c := range counts {
		if c != 16 {
			t.Errorf("part %d owns %d hosts, want 16", p, c)
		}
	}
	// Four slabs of two rows each cut exactly the three row boundaries
	// between slabs: 8 vertical links per boundary.
	if cut := EdgeCut(net, owner); cut != 24 {
		t.Errorf("slab edge cut = %d, want 24", cut)
	}
	// The slab cut must beat a hash assignment on the same grid.
	hash := make([]int, 64)
	for h := range hash {
		hash[h] = int(splitmix64(uint64(h)) % 4)
	}
	if slab, rand := EdgeCut(net, owner), EdgeCut(net, hash); slab >= rand {
		t.Errorf("slab cut %d not below hash cut %d", slab, rand)
	}
}

func TestPartitionHashOnIrregular(t *testing.T) {
	net := Irregular(DefaultIrregular(), workload.NewRNG(1))
	owner := Partition(net, 4)
	again := Partition(net, 4)
	counts := make([]int, 4)
	for h, p := range owner {
		if p < 0 || p >= 4 {
			t.Fatalf("host %d assigned to part %d", h, p)
		}
		if again[h] != p {
			t.Fatalf("partition not deterministic at host %d", h)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c == 0 || c > 3*16 {
			t.Errorf("part %d owns %d of 64 hosts; hash balance off", p, c)
		}
	}
}

func TestPartitionEmptyParts(t *testing.T) {
	net := Mesh(2, 2) // 4 hosts
	owner := Partition(net, 6)
	used := map[int]bool{}
	for h, p := range owner {
		if p < 0 || p >= 6 {
			t.Fatalf("host %d assigned to part %d", h, p)
		}
		used[p] = true
	}
	if len(used) > 4 {
		t.Fatalf("%d parts used for 4 hosts", len(used))
	}
	if len(used) == 6 {
		t.Fatalf("expected at least one empty part with 6 parts over 4 hosts")
	}
}

func TestPartitionPanics(t *testing.T) {
	net := Mesh(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatalf("Partition(net, 0) did not panic")
		}
	}()
	Partition(net, 0)
}

func TestEdgeCutLengthPanic(t *testing.T) {
	net := Mesh(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatalf("EdgeCut with short owner slice did not panic")
		}
	}()
	EdgeCut(net, make([]int, 2))
}

func TestGridAccessor(t *testing.T) {
	if a, d, ok := Mesh(4, 3).Grid(); !ok || a != 4 || d != 3 {
		t.Errorf("Mesh(4,3).Grid() = %d,%d,%v", a, d, ok)
	}
	if a, d, ok := Cube(3, 2).Grid(); !ok || a != 3 || d != 2 {
		t.Errorf("Cube(3,2).Grid() = %d,%d,%v", a, d, ok)
	}
	irr := Irregular(DefaultIrregular(), workload.NewRNG(1))
	if _, _, ok := irr.Grid(); ok {
		t.Errorf("irregular network reports grid geometry")
	}
	// Torus is how the network was built, not how it is wired: a 2-ary cube
	// has a mesh's links and is still a cube to its router.
	if !Cube(3, 2).Torus() || !Cube(2, 3).Torus() || Mesh(4, 3).Torus() || Mesh(2, 2).Torus() || irr.Torus() {
		t.Errorf("Torus() is true exactly on Cube networks")
	}
}
