package sim

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/ktree"
	"repro/internal/stepsim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// TestFuzzEventVsStepModel cross-checks the two independent simulators on
// randomized workloads: with negligible wire/router cost and a
// contention-free single edge chain per step, the event simulator's
// latency decomposes as t_s + t_r plus per-step NI costs bounded by the
// step model's count. Randomization covers tree shapes the targeted tests
// never construct.
func TestFuzzEventVsStepModel(t *testing.T) {
	_, r, o := testSystem(42)
	p := DefaultParams()
	p.LinkBytesUS = 1e9
	p.RouterDelay = 0
	rng := workload.NewRNG(777)
	for trial := 0; trial < 60; trial++ {
		destCount := 1 + rng.Intn(50)
		m := 1 + rng.Intn(10)
		k := 1 + rng.Intn(6)
		set := workload.DestSet(rng, 64, destCount)
		chain := o.Chain(set[0], set[1:])
		tr := tree.KBinomial(chain, k)

		steps := stepsim.Steps(tr, m, stepsim.FPFS)
		res := Multicast(r, tr, m, p, stepsim.FPFS)

		upper := p.THostSend + float64(steps)*(p.TNISend+p.TNIRecv) + p.THostRecv + res.ChannelWait + 1e-3
		if res.Latency > upper {
			t.Fatalf("trial %d (n=%d m=%d k=%d): latency %f exceeds bound %f",
				trial, destCount+1, m, k, res.Latency, upper)
		}
		// Hard lower bound: the critical path has at least depth sends and
		// depth receives, plus host overheads.
		depth := float64(tr.Depth())
		lower := p.THostSend + depth*(p.TNISend+p.TNIRecv) + p.THostRecv
		if res.Latency < lower-1e-6 {
			t.Fatalf("trial %d: latency %f below depth bound %f", trial, res.Latency, lower)
		}
		if res.Sends != destCount*m {
			t.Fatalf("trial %d: %d sends, want %d", trial, res.Sends, destCount*m)
		}
	}
}

// TestFuzzRandomTreeShapes drives the event simulator with arbitrary
// (non-k-binomial) random trees: every topology-valid tree must complete
// with exact conservation, whatever its shape.
func TestFuzzRandomTreeShapes(t *testing.T) {
	_, r, _ := testSystem(43)
	rng := workload.NewRNG(888)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		perm := rng.Perm(64)[:n]
		tr := tree.New(perm[0])
		for i := 1; i < n; i++ {
			parent := perm[rng.Intn(i)]
			tr.AddChild(parent, perm[i])
		}
		m := 1 + rng.Intn(6)
		for _, d := range []stepsim.Discipline{stepsim.FPFS, stepsim.FCFS, stepsim.Conventional} {
			res := Multicast(r, tr, m, DefaultParams(), d)
			if res.Sends != (n-1)*m {
				t.Fatalf("trial %d %v: %d sends, want %d", trial, d, res.Sends, (n-1)*m)
			}
			if len(res.HostDone) != n-1 {
				t.Fatalf("trial %d %v: %d completions, want %d", trial, d, len(res.HostDone), n-1)
			}
			// Completion times never precede the theoretical minimum.
			min := DefaultParams().THostSend + DefaultParams().TNISend + DefaultParams().TNIRecv
			for h, tm := range res.HostDone {
				if tm < min {
					t.Fatalf("trial %d %v: host %d done at %f < floor %f", trial, d, h, tm, min)
				}
			}
		}
	}
}

// TestFuzzConcurrentSessions drives random overlapping session sets and
// checks global conservation and per-session sanity.
func TestFuzzConcurrentSessions(t *testing.T) {
	_, r, o := testSystem(44)
	rng := workload.NewRNG(999)
	for trial := 0; trial < 15; trial++ {
		count := 1 + rng.Intn(5)
		sessions := make([]Session, count)
		wantSends := 0
		for i := range sessions {
			destCount := 1 + rng.Intn(20)
			m := 1 + rng.Intn(5)
			set := workload.DestSet(rng, 64, destCount)
			chain := o.Chain(set[0], set[1:])
			k := 1 + rng.Intn(4)
			sessions[i] = Session{
				Tree:    tree.KBinomial(chain, k),
				Packets: m,
				Start:   float64(rng.Intn(100)),
			}
			wantSends += destCount * m
		}
		res := Concurrent(r, sessions, DefaultParams(), stepsim.FPFS)
		if res.Sends != wantSends {
			t.Fatalf("trial %d: %d sends, want %d", trial, res.Sends, wantSends)
		}
		for si, s := range res.Sessions {
			if s.Latency <= 0 || math.IsNaN(s.Latency) {
				t.Fatalf("trial %d session %d: latency %f", trial, si, s.Latency)
			}
			if len(s.HostDone) != sessions[si].Tree.Size()-1 {
				t.Fatalf("trial %d session %d: %d completions", trial, si, len(s.HostDone))
			}
		}
		if res.Makespan <= 0 {
			t.Fatalf("trial %d: makespan %f", trial, res.Makespan)
		}
	}
}

// TestFuzzOptimalNeverLosesByMuch verifies across random workloads that the
// Theorem 3 tree is within a small factor of both baselines in the full
// event simulation (it can lose slightly to a baseline in the crossover
// band, but never by much).
func TestFuzzOptimalNeverLosesByMuch(t *testing.T) {
	_, r, o := testSystem(45)
	rng := workload.NewRNG(1111)
	for trial := 0; trial < 25; trial++ {
		destCount := 3 + rng.Intn(45)
		m := 1 + rng.Intn(16)
		set := workload.DestSet(rng, 64, destCount)
		chain := o.Chain(set[0], set[1:])
		n := destCount + 1
		kOpt, _ := ktree.OptimalK(n, m)
		opt := Multicast(r, tree.KBinomial(chain, kOpt), m, DefaultParams(), stepsim.FPFS).Latency
		bin := Multicast(r, tree.Binomial(chain), m, DefaultParams(), stepsim.FPFS).Latency
		lin := Multicast(r, tree.Linear(chain), m, DefaultParams(), stepsim.FPFS).Latency
		best := math.Min(bin, lin)
		if opt > best*1.25 {
			t.Errorf("trial %d (n=%d m=%d k=%d): optimal %f vs best baseline %f",
				trial, n, m, kOpt, opt, best)
		}
	}
}

// FuzzEventQueue holds the bucket queue to a reference: every pop must be
// the pending event least by (at, seq), given seqs pushed in ascending
// order as the schedulers push them. Each input byte is one operation:
// below 0x80 a push at a time from a small palette (equal times, both
// zeros, 1e300 and its neighbor); 0x80-0xbf a pop; 0xc0-0xdf a push at the
// time last popped, into the bucket being drained or just closed; from
// 0xe0 a push at the float64 in the next 8 bytes. The ops run twice on one
// queue, reset between, so bucket reuse is exercised too.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{2, 2, 3, 0x80, 2, 0xc0, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, ops []byte) {
		palette := [...]float64{0, math.Copysign(0, -1), 1, math.Nextafter(1, 2), 2.5,
			1e300, math.Nextafter(1e300, math.Inf(1)), math.Inf(1)}
		var q eventQueue[pevent]
		for round := 0; round < 2; round++ {
			q.reset()
			var ref []pevent
			seq, last := uint64(0), 0.0
			push := func(at float64) {
				seq++
				ev := pevent{at: at, ord: seq}
				q.push(at, ev)
				ref = append(ref, ev)
			}
			pop := func() {
				if q.empty() != (len(ref) == 0) {
					t.Fatalf("queue empty = %v with %d pending", q.empty(), len(ref))
				}
				if len(ref) == 0 {
					return
				}
				want := 0
				for i, ev := range ref {
					if ev.at < ref[want].at || ev.at == ref[want].at && ev.ord < ref[want].ord {
						want = i
					}
				}
				if q.min() != ref[want].at {
					t.Fatalf("min = %v, want %v", q.min(), ref[want].at)
				}
				got := q.pop()
				if got.ord != ref[want].ord || math.Float64bits(got.at) != math.Float64bits(ref[want].at) {
					t.Fatalf("popped (%v, %d), want (%v, %d)", got.at, got.ord, ref[want].at, ref[want].ord)
				}
				ref = append(ref[:want], ref[want+1:]...)
				last = got.at
			}
			for i := 0; i < len(ops); i++ {
				switch op := ops[i]; {
				case op < 0x80:
					push(palette[int(op)%len(palette)])
				case op < 0xc0:
					pop()
				case op < 0xe0:
					push(last)
				case i+8 < len(ops):
					if at := math.Float64frombits(binary.LittleEndian.Uint64(ops[i+1:])); !math.IsNaN(at) {
						push(at)
					}
					i += 8
				}
			}
			for len(ref) > 0 {
				pop()
			}
			if !q.empty() {
				t.Fatal("queue holds events the reference does not")
			}
		}
	})
}
