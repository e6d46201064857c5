package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/stepsim"
	"repro/internal/tree"
)

// TestValidateRejectsNonFinite: NaN passes every ordered comparison, so
// without an explicit guard a NaN bandwidth (or Inf overhead) sails
// through Validate and poisons every computed time downstream.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	set := func(mut func(*Params)) Params {
		p := DefaultParams()
		mut(&p)
		return p
	}
	cases := []struct {
		name string
		p    Params
		want string // substring of the error; "" = must validate
	}{
		{"default-ok", DefaultParams(), ""},
		{"nan-link", set(func(p *Params) { p.LinkBytesUS = nan }), "LinkBytesUS"},
		{"inf-link", set(func(p *Params) { p.LinkBytesUS = inf }), "LinkBytesUS"},
		{"neg-inf-link", set(func(p *Params) { p.LinkBytesUS = math.Inf(-1) }), "LinkBytesUS"},
		{"nan-host-send", set(func(p *Params) { p.THostSend = nan }), "THostSend"},
		{"inf-host-recv", set(func(p *Params) { p.THostRecv = inf }), "THostRecv"},
		{"nan-ni-send", set(func(p *Params) { p.TNISend = nan }), "TNISend"},
		{"nan-ni-recv", set(func(p *Params) { p.TNIRecv = nan }), "TNIRecv"},
		{"inf-router", set(func(p *Params) { p.RouterDelay = inf }), "RouterDelay"},
		{"nan-router", set(func(p *Params) { p.RouterDelay = nan }), "RouterDelay"},
		{"neg-link", set(func(p *Params) { p.LinkBytesUS = -160 }), "bandwidth"},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Validate() accepted %+v", tc.name, tc.p)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %q, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// benchTree builds a deterministic 32-node k-binomial tree for the
// allocation tests and engine benchmarks.
func benchTree(k int) *tree.Tree {
	chain := make([]int, 32)
	for i := range chain {
		chain[i] = i
	}
	return tree.KBinomial(chain, k)
}

// TestMulticastAllocationRegression pins the pooled event loop's
// allocation budget. The unpooled loop (container/heap boxing + fresh
// closures per packet copy) spent ~8.5 allocations per packet-send on
// this workload; the pooled loop spends under 3. The bound has headroom
// for Go-version noise but fails loudly if pooling regresses.
func TestMulticastAllocationRegression(t *testing.T) {
	_, r, _ := testSystem(1)
	tr := benchTree(2)
	p := DefaultParams()
	// Warm the carcass free list so steady-state behavior is measured.
	Multicast(r, tr, 8, p, stepsim.FPFS)
	sends := float64(31 * 8)
	allocs := testing.AllocsPerRun(20, func() {
		Multicast(r, tr, 8, p, stepsim.FPFS)
	})
	if perSend := allocs / sends; perSend > 3 {
		t.Fatalf("event loop allocates %.1f/run = %.2f per packet-send, budget 3 (unpooled baseline ~8.5)",
			allocs, perSend)
	}
}

// TestEnginePoolDeterminism: the model's recycled carcass (modelFree) must
// not leak state between runs — repeating a simulation on a warm carcass
// reproduces cold-carcass results exactly.
func TestEnginePoolDeterminism(t *testing.T) {
	_, r, _ := testSystem(7)
	tr := benchTree(3)
	p := DefaultParams()
	first := Multicast(r, tr, 5, p, stepsim.FPFS)
	for i := 0; i < 10; i++ {
		again := Multicast(r, tr, 5, p, stepsim.FPFS)
		if again.Latency != first.Latency || again.Sends != first.Sends ||
			again.ChannelWait != first.ChannelWait {
			t.Fatalf("run %d on warm pools: latency=%f sends=%d wait=%f, first run: %f/%d/%f",
				i, again.Latency, again.Sends, again.ChannelWait,
				first.Latency, first.Sends, first.ChannelWait)
		}
		for h, ht := range first.HostDone {
			if again.HostDone[h] != ht {
				t.Fatalf("run %d: host %d done at %f, first run %f", i, h, again.HostDone[h], ht)
			}
		}
	}
	// And under a lossy fault plane (drops recycle ops on the early path).
	plan := fault.Plan{Seed: 3, DropRate: 0.2}
	sessions := []Session{{Tree: tr, Packets: 5}}
	f1, err := ConcurrentFaulty(r, sessions, p, stepsim.FPFS, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		f2, err := ConcurrentFaulty(r, sessions, p, stepsim.FPFS, plan)
		if err != nil {
			t.Fatal(err)
		}
		if f2.Sends != f1.Sends || f2.Faults.Dropped != f1.Faults.Dropped || f2.Makespan != f1.Makespan {
			t.Fatalf("lossy replay %d diverged: sends=%d dropped=%d makespan=%f, first %d/%d/%f",
				i, f2.Sends, f2.Faults.Dropped, f2.Makespan, f1.Sends, f1.Faults.Dropped, f1.Makespan)
		}
	}
}

// TestEngineTieOrder pins the order live.RunVirtual's bit-exact replay
// rests on: equal times run in At order, an event scheduled at Now() from
// a callback runs behind everything already due at that time (whether its
// bucket is still being drained or was just closed), -0 and +0 are one
// time, and At refuses a time before now, NaN included.
func TestEngineTieOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name     string
		schedule func(e *Engine, note func(string) func())
		want     string // labels in run order; "panic": an At must panic
	}{
		{"equal-times-in-at-order", func(e *Engine, note func(string) func()) {
			for i, at := range []float64{2, 1, 2, 3, 1, 2, 1} {
				e.At(at, note(string(rune('a'+i))))
			}
		}, "begacfd"},
		{"now-into-bucket-being-drained", func(e *Engine, note func(string) func()) {
			e.At(1, func() {
				note("a")()
				e.At(e.Now(), func() { note("x")(); e.At(e.Now(), note("y")) })
			})
			e.At(1, note("b"))
			e.At(2, note("d"))
			e.At(1, note("c"))
		}, "abcxyd"},
		{"now-into-bucket-just-closed", func(e *Engine, note func(string) func()) {
			e.At(1, note("a"))
			e.At(2, note("c"))
			e.At(1, func() { note("b")(); e.At(e.Now(), note("x")); e.At(e.Now(), note("y")) })
		}, "abxyc"},
		{"negative-zero-is-zero", func(e *Engine, note func(string) func()) {
			e.At(negZero, note("a"))
			e.At(0, note("b"))
			e.At(negZero, func() { note("c")(); e.At(0, note("e")); e.At(negZero, note("f")) })
			e.At(0, note("d"))
		}, "abcdef"},
		{"nan-panics", func(e *Engine, note func(string) func()) {
			e.At(math.NaN(), note("a"))
		}, "panic"},
		{"past-panics", func(e *Engine, note func(string) func()) {
			e.At(5, func() {})
			e.Run()
			e.At(math.Nextafter(5, 0), note("a"))
		}, "panic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(0)
			var got strings.Builder
			note := func(label string) func() { return func() { got.WriteString(label) } }
			if tc.want == "panic" {
				defer func() {
					if recover() == nil {
						t.Fatal("At did not panic")
					}
				}()
			}
			tc.schedule(e, note)
			e.Run()
			if got.String() != tc.want {
				t.Fatalf("ran %q, want %q", got.String(), tc.want)
			}
		})
	}
}
