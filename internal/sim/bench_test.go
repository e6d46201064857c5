package sim

import (
	"testing"

	"repro/internal/stepsim"
)

// BenchmarkEngineEventLoop measures raw event-loop throughput: schedule
// and drain a self-rescheduling chain plus a fan of one-shot events, the
// access pattern of the protocol engines built on Engine. Each op builds a
// fresh Engine, so allocs/op counts the storage its queue grows: the index
// and one slice per bucket open at once, doubled as its events arrive.
func BenchmarkEngineEventLoop(b *testing.B) {
	const chain, fan = 256, 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(0)
		ticks, shots := 0, 0
		var tick func()
		tick = func() {
			ticks++
			if ticks < chain {
				e.At(e.Now()+1, tick)
			}
		}
		e.At(0, tick)
		shot := func() { shots++ } // one closure for the whole fan, so
		// allocs/op measures the engine, not the benchmark harness
		for j := 0; j < fan; j++ {
			e.At(float64(j%17), shot)
		}
		e.Run()
		if ticks+shots != chain+fan {
			b.Fatalf("ran %d events, want %d", ticks+shots, chain+fan)
		}
	}
	b.ReportMetric(float64(chain+fan)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineMulticastFPFS measures one full 32-node 8-packet
// event-driven multicast on the pooled session model — the per-case unit of
// work the check harness and the sweeps repeat thousands of times.
func BenchmarkEngineMulticastFPFS(b *testing.B) {
	_, r, _ := testSystem(1)
	tr := benchTree(2)
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Multicast(r, tr, 8, p, stepsim.FPFS)
	}
}

// BenchmarkEngineMulticast10k measures the serial kernel alone at the
// sim_scale shape: one k=4, 2-packet multicast from host 0 to every other
// host of a 100x100 mesh. The carcass and the route cache are warmed
// before the timer starts, so route construction is not priced.
func BenchmarkEngineMulticast10k(b *testing.B) {
	router, sess, _ := meshMulticast(100)
	sessions := []Session{sess}
	p := DefaultParams()
	Concurrent(router, sessions, p, stepsim.FPFS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Concurrent(router, sessions, p, stepsim.FPFS)
	}
}
