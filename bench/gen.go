package main

import (
	"encoding/binary"
	"hash/fnv"

	"repro/internal/workload"
)

// gen is one workload's input generator. Everything the program under test
// receives — topology seed, source and destination sets, payload bytes, fault
// seeds — is drawn from it, so one -seed fixes the inputs of a whole run and
// workloads do not disturb each other's streams.
type gen struct {
	seed uint64
	rng  *workload.RNG
}

func newGen(seed uint64, workloadName string) *gen {
	h := fnv.New64a()
	h.Write([]byte(workloadName))
	return &gen{seed: seed, rng: workload.NewRNG(seed ^ h.Sum64())}
}

// destSet draws a uniform random source and dests distinct destinations.
func (g *gen) destSet(hosts, dests int) (source int, d []int) {
	set := workload.DestSet(g.rng, hosts, dests)
	return set[0], set[1:]
}

// payload draws n pseudo-random bytes.
func (g *gen) payload(n int) []byte {
	b := make([]byte, (n+7)/8*8)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], g.rng.Uint64())
	}
	return b[:n]
}
