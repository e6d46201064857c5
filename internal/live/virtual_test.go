package live

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/tree"
	"repro/internal/workload"
)

// virtualBlock numbers the runs of TestVirtualTimeChaos in one test
// process: run i sweeps seeds 100i+1 through 100i+100, so a plain run
// sweeps seeds 1-100 and `go test -count=20` (make virtual-soak) 1-2,000.
var virtualBlock atomic.Int64

// TestVirtualTimeChaos runs the shipped reliable runtime — its share, NIs,
// edge senders, detector, supervisor and brain — at DefaultReliableConfig
// timings in virtual time (RunVirtual), over three scenarios per seed:
// loss with ACK loss, corruption, reordering and jitter; a crash-stop; and
// a crash-recovery. A 25 ms RTO costs no wall time and no box load can
// stretch a timer, so a watchdog expiry here is a protocol stall, and any
// failure replays bit-exact from its seed.
func TestVirtualTimeChaos(t *testing.T) {
	first := 100*int(virtualBlock.Add(1)-1) + 1
	var (
		virtual                          time.Duration
		retransmits, adoptions, partials int
	)
	for seed := first; seed < first+100; seed++ {
		for _, scenario := range []string{"chaos", "crash-stop", "crash-recovery"} {
			res, err := virtualRun(scenario, uint64(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", scenario, seed, err)
			}
			virtual += res.Wall
			retransmits += res.Retransmits
			adoptions += res.Adoptions
			if res.Status == reliable.DeliveredPartial {
				partials++
			}
		}
	}
	t.Logf("seeds %d-%d: 300 runs, %v of virtual time: %d retransmits, %d adoptions, %d partial verdicts",
		first, first+99, virtual, retransmits, adoptions, partials)
	if retransmits == 0 || adoptions == 0 || partials == 0 {
		t.Fatal("the sweep never retransmitted, adopted or settled a partial verdict: its fault plans do not bite")
	}
}

// virtualRun draws one tree, payload and fault plan from the seed, runs it
// in virtual time and judges the verdict.
func virtualRun(scenario string, seed uint64) (*ReliableResult, error) {
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
		return nil, err
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

	res, err := RunVirtual(Session{Tree: tr, Packets: pkts, MsgID: 1}, cfg)
	var we *WatchdogError
	if errors.As(err, &we) {
		return res, fmt.Errorf("stalled into the watchdog: %v", err)
	}
	if err != nil || res == nil {
		return res, fmt.Errorf("untyped or unexpected verdict (result %v): %v", res != nil, err)
	}
	want := reliable.Delivered
	if _, done := findHost(res, victim); scenario == "crash-stop" && !done {
		want = reliable.DeliveredPartial
	}
	if res.Status != want {
		return res, fmt.Errorf("status %v, want %v (crashed %v, orphaned %v, epoch %d)",
			res.Status, want, res.Crashed, res.Orphaned, res.Epoch)
	}
	for _, v := range tr.Nodes() {
		if v == tr.Root() || (scenario == "crash-stop" && v == victim) {
			continue
		}
		if rec := res.Hosts[v]; rec == nil || !bytes.Equal(rec.Data, payload) {
			return res, fmt.Errorf("survivor %d does not hold the byte-exact payload (epoch %d, retransmits %d)",
				v, res.Epoch, res.Retransmits)
		}
	}
	return res, nil
}

// TestRunVirtualTime: in virtual time a run's timings are exact. Down a
// lossless 4-chain whose host h is stalled over [0, (h+1) ms), every
// packet leaves the root at 1 ms and each host forwards once its stall
// is over, a millisecond after it received, so host i completes at i ms
// to the nanosecond and the run settles at 3 ms with no retransmission.
// A socket fabric, which RunVirtual cannot step, is refused.
func TestRunVirtualTime(t *testing.T) {
	sess := Session{Tree: chainTree(4), Packets: mustPacketize(t, 1, 0, payloadBytes(200)), MsgID: 1}
	cfg := DefaultReliableConfig()
	for h := 0; h < 4; h++ {
		cfg.Faults.Stalls = append(cfg.Faults.Stalls, fault.Stall{Host: h, Until: float64(h+1) * 1000})
	}
	res, err := RunVirtual(sess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 4; v++ {
		if got := res.Hosts[v].DoneAt; got != time.Duration(v)*time.Millisecond {
			t.Fatalf("host %d done at %v, want %v", v, got, time.Duration(v)*time.Millisecond)
		}
	}
	if res.Wall != 3*time.Millisecond || res.Retransmits != 0 || res.Sends != 3*len(sess.Packets) {
		t.Fatalf("settled at %v after %d sends, %d retransmits; want 3ms, %d, 0",
			res.Wall, res.Sends, res.Retransmits, 3*len(sess.Packets))
	}
	cfg.Live.Network = newWireNet()
	if _, err := RunVirtual(sess, cfg); err == nil {
		t.Fatal("RunVirtual accepted a socket fabric")
	}
}
