//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package live

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/tree"
	"repro/internal/workload"
)

// TestVirtualTimeChaos runs the shipped reliable runtime — RunReliable,
// its NIs, edge senders, pump, detector and supervisor, on their own
// goroutines and their own time.NewTimer/Now calls — on the standard
// library's fake clock: inside a synctest bubble time advances only when
// every goroutine is blocked, so a 25 ms RTO costs no wall time and no
// amount of box load can stretch a timer. That is why this sweep, and
// only this one, runs DefaultReliableConfig as shipped instead of
// fastReliable's timing, and why a watchdog expiry here is a protocol
// stall and never a slow box.
//
// Load-independent is not bit-exact replay: goroutines runnable at the
// same virtual instant still run in the scheduler's order.
//
// Compiled only with GOEXPERIMENT=synctest (Go 1.24+): `make virtual-soak`.
func TestVirtualTimeChaos(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 100
	}
	var (
		virtual                          time.Duration
		retransmits, adoptions, partials int
	)
	for seed := 1; seed <= seeds; seed++ {
		for _, scenario := range []string{"chaos", "crash-stop", "crash-recovery"} {
			res, d, err := virtualRun(scenario, uint64(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", scenario, seed, err)
			}
			virtual += d
			retransmits += res.Retransmits
			adoptions += res.Adoptions
			if res.Status == reliable.DeliveredPartial {
				partials++
			}
		}
	}
	t.Logf("%d runs, %v of virtual time: %d retransmits, %d adoptions, %d partial verdicts",
		3*seeds, virtual, retransmits, adoptions, partials)
	if retransmits == 0 || adoptions == 0 || partials == 0 {
		t.Fatal("the sweep never retransmitted, adopted or settled a partial verdict: its fault plans do not bite")
	}
}

// virtualRun draws one tree, payload and fault plan from the seed, runs it
// in a bubble and judges the verdict. It returns the result and the virtual
// time the run took.
func virtualRun(scenario string, seed uint64) (*ReliableResult, time.Duration, error) {
	rng := workload.NewRNG(seed*0x9e37_79b9 + uint64(len(scenario)))
	n := 4 + rng.Intn(9)
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i
	}
	var tr *tree.Tree
	switch rng.Intn(3) {
	case 0:
		tr = chainTree(n)
	case 1:
		tr = starTree(n)
	default:
		tr = tree.KBinomial(hosts, 1+rng.Intn(3))
	}
	payload := make([]byte, 1+rng.Intn(900))
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	pkts, err := message.Packetize(1, tr.Root(), payload, 64)
	if err != nil {
		return nil, 0, err
	}

	cfg := DefaultReliableConfig()
	cfg.Live.BufferPackets = rng.Intn(4)
	cfg.Faults = fault.Plan{Seed: seed, MaxJitter: time.Duration(1+rng.Intn(2000)) * time.Microsecond}
	victim := 1 + rng.Intn(n-1)
	switch scenario {
	case "chaos":
		cfg.Faults.DropRate = 0.10 * rng.Float64()
		cfg.Faults.AckDropRate = 0.08 * rng.Float64()
		cfg.Faults.CorruptRate = 0.04 * rng.Float64()
		cfg.Faults.ReorderRate = 0.15 * rng.Float64()
	case "crash-stop":
		cfg.Faults.Crashes = []fault.Crash{{Host: victim, At: float64(rng.Intn(20_000))}}
		cfg.Quorum = 1
	case "crash-recovery":
		at := float64(rng.Intn(20_000))
		cfg.Faults.Crashes = []fault.Crash{{Host: victim, At: at, RecoverAt: at + float64(1+rng.Intn(150))*1000}}
	}

	var (
		res  *ReliableResult
		took time.Duration
	)
	// Go 1.24's race detector sees no edge out of synctest.Run, so the
	// result is handed over on a channel as well.
	handed := make(chan struct{}, 1)
	synctest.Run(func() {
		start := time.Now()
		res, err = RunReliable(Session{Tree: tr, Packets: pkts, MsgID: 1}, cfg)
		took = time.Since(start)
		handed <- struct{}{}
	})
	<-handed

	var we *WatchdogError
	if errors.As(err, &we) {
		return res, took, fmt.Errorf("stalled into the watchdog after %v of virtual time: %v", took, err)
	}
	if err != nil || res == nil {
		return res, took, fmt.Errorf("untyped or unexpected verdict (result %v): %v", res != nil, err)
	}
	want := reliable.Delivered
	if _, done := findHost(res, victim); scenario == "crash-stop" && !done {
		want = reliable.DeliveredPartial
	}
	if res.Status != want {
		return res, took, fmt.Errorf("status %v, want %v (crashed %v, orphaned %v, epoch %d)",
			res.Status, want, res.Crashed, res.Orphaned, res.Epoch)
	}
	for _, v := range tr.Nodes() {
		if v == tr.Root() || (scenario == "crash-stop" && v == victim) {
			continue
		}
		if rec := res.Hosts[v]; rec == nil || !bytes.Equal(rec.Data, payload) {
			return res, took, fmt.Errorf("survivor %d does not hold the byte-exact payload (epoch %d, retransmits %d)",
				v, res.Epoch, res.Retransmits)
		}
	}
	return res, took, nil
}
