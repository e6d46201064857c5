package comm

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/reliable"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testSys() *core.System {
	return core.NewIrregularSystem(topology.DefaultIrregular(), 1)
}

func TestNewGroupValidation(t *testing.T) {
	sys := testSys()
	if _, err := New(sys, []int{0}); err == nil {
		t.Error("single-host group accepted")
	}
	if _, err := New(sys, []int{0, 0}); err == nil {
		t.Error("duplicate host accepted")
	}
	if _, err := New(sys, []int{0, 999}); err == nil {
		t.Error("out-of-range host accepted")
	}
	g, err := New(sys, []int{5, 9, 23})
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3 || g.Host(1) != 9 || g.Rank(23) != 2 || g.Rank(7) != -1 {
		t.Error("group accessors wrong")
	}
}

func TestBcastDeliversExactly(t *testing.T) {
	sys := testSys()
	g, _ := New(sys, []int{3, 7, 12, 19, 25, 33, 40, 48})
	data := make([]byte, 999)
	rand.New(rand.NewSource(5)).Read(data)
	res, err := g.Bcast(2, data, sim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 || res.Packets != (999+43)/44 {
		t.Errorf("latency=%f packets=%d", res.Latency, res.Packets)
	}
	for r := 0; r < g.Size(); r++ {
		if !bytes.Equal(res.Data[r], data) {
			t.Errorf("rank %d payload differs", r)
		}
	}
}

func TestBcastEmptyMessage(t *testing.T) {
	sys := testSys()
	g, _ := New(sys, []int{0, 1, 2})
	res, err := g.Bcast(0, nil, sim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 1 {
		t.Errorf("empty message used %d packets, want 1", res.Packets)
	}
	for r := 1; r < 3; r++ {
		if len(res.Data[r]) != 0 {
			t.Errorf("rank %d got %d bytes for empty message", r, len(res.Data[r]))
		}
	}
}

func TestBcastLongerMessagesCostMore(t *testing.T) {
	sys := testSys()
	g, _ := New(sys, []int{0, 9, 18, 27, 36, 45, 54, 63})
	p := sim.DefaultParams()
	small, _ := g.Bcast(0, make([]byte, 100), p)
	large, _ := g.Bcast(0, make([]byte, 2000), p)
	if large.Latency <= small.Latency {
		t.Errorf("2000B (%f) not slower than 100B (%f)", large.Latency, small.Latency)
	}
	// Longer messages push the optimal k down.
	if large.K > small.K {
		t.Errorf("k grew with message length: %d -> %d", small.K, large.K)
	}
}

func TestBcastRootValidation(t *testing.T) {
	g, _ := New(testSys(), []int{0, 1})
	if _, err := g.Bcast(5, []byte("x"), sim.DefaultParams()); err == nil {
		t.Error("bad root accepted")
	}
}

func TestScatterDeliversChunks(t *testing.T) {
	sys := testSys()
	hosts := []int{2, 11, 20, 29, 38}
	g, _ := New(sys, hosts)
	chunks := make([][]byte, len(hosts))
	rng := rand.New(rand.NewSource(7))
	for i := range chunks {
		chunks[i] = make([]byte, 50+rng.Intn(400))
		rng.Read(chunks[i])
	}
	res, err := g.Scatter(0, chunks, sim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 {
		t.Error("scatter latency nonpositive")
	}
	for i := range chunks {
		if !bytes.Equal(res.Data[i], chunks[i]) {
			t.Errorf("rank %d chunk differs", i)
		}
	}
}

func TestScatterValidation(t *testing.T) {
	g, _ := New(testSys(), []int{0, 1, 2})
	if _, err := g.Scatter(0, make([][]byte, 2), sim.DefaultParams()); err == nil {
		t.Error("wrong chunk count accepted")
	}
	if _, err := g.Scatter(9, make([][]byte, 3), sim.DefaultParams()); err == nil {
		t.Error("bad root accepted")
	}
}

func TestHostPanics(t *testing.T) {
	g, _ := New(testSys(), []int{0, 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.Host(5)
}

func TestBcastMsgIDsAdvance(t *testing.T) {
	// Two broadcasts must use distinct message IDs (reassembly rejects
	// cross-message mixes; this guards the counter).
	g, _ := New(testSys(), []int{0, 1, 2})
	a, _ := g.Bcast(0, []byte("first"), sim.DefaultParams())
	b, _ := g.Bcast(0, []byte("second"), sim.DefaultParams())
	if a == nil || b == nil {
		t.Fatal("broadcast failed")
	}
	if got := g.msgID.Load(); got != 2 {
		t.Errorf("msgID = %d, want 2", got)
	}
}

func TestBcastLiveDeliversExactly(t *testing.T) {
	sys := testSys()
	g, err := New(sys, []int{0, 3, 7, 11, 14})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 777)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	res, err := g.BcastLive(1, payload, sim.DefaultParams())
	if err != nil {
		t.Fatalf("BcastLive: %v", err)
	}
	for r := range res.Data {
		if !bytes.Equal(res.Data[r], payload) {
			t.Errorf("rank %d got %d bytes, want %d", r, len(res.Data[r]), len(payload))
		}
	}
	if res.WallLatency <= 0 {
		t.Errorf("non-positive wall latency %v", res.WallLatency)
	}
	if res.PredictedLatency <= 0 {
		t.Error("non-positive predicted latency")
	}
	if want := (g.Size() - 1) * res.Packets; res.Sends != want {
		t.Errorf("%d sends, want %d", res.Sends, want)
	}
	if res.Live == nil || len(res.Live.Hosts) != g.Size() {
		t.Error("live detail missing")
	}
}

// TestBcastLiveUDPDeliversExactly is the socket variant of the live
// broadcast: same plan, but the fabric is a loopback UDP network the
// call provisions and tears down.
func TestBcastLiveUDPDeliversExactly(t *testing.T) {
	if c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	} else {
		c.Close()
	}
	sys := testSys()
	g, err := New(sys, []int{0, 3, 7, 11, 14})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 900)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	res, err := g.BcastLiveUDP(1, payload, sim.DefaultParams())
	if err != nil {
		t.Fatalf("BcastLiveUDP: %v", err)
	}
	for r := range res.Data {
		if !bytes.Equal(res.Data[r], payload) {
			t.Errorf("rank %d got %d bytes, want %d", r, len(res.Data[r]), len(payload))
		}
	}
	if want := (g.Size() - 1) * res.Packets; res.Sends != want {
		t.Errorf("%d sends, want %d", res.Sends, want)
	}
	if res.WallLatency <= 0 {
		t.Errorf("non-positive wall latency %v", res.WallLatency)
	}
}

// TestConcurrentBcastLive exercises the documented concurrency contract:
// one group, many goroutines broadcasting live at once. Run with -race.
func TestConcurrentBcastLive(t *testing.T) {
	sys := testSys()
	g, err := New(sys, []int{0, 2, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			payload := bytes.Repeat([]byte{byte(w + 1)}, 200+w)
			res, err := g.BcastLive(w%g.Size(), payload, sim.DefaultParams())
			if err == nil {
				for _, d := range res.Data {
					if !bytes.Equal(d, payload) {
						err = fmt.Errorf("worker %d: payload mismatch", w)
						break
					}
				}
			}
			errs <- err
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := g.msgID.Load(); got != workers {
		t.Errorf("msgID = %d after %d concurrent broadcasts", got, workers)
	}
}

// TestBcastReliableCrash: a crash-stop member does not hang or fail the
// collective — the result surfaces the view change and the partial
// delivery, and every surviving rank's copy is byte-exact.
func TestBcastReliableCrash(t *testing.T) {
	sys := testSys()
	hosts := []int{3, 7, 12, 19, 25, 33, 40, 48}
	g, err := New(sys, hosts)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 700)
	for i := range data {
		data[i] = byte(i * 31)
	}
	cfg := reliable.DefaultConfig()
	cfg.Quorum = 1
	fp := fault.Plan{Crashes: []fault.Crash{{Host: 19, At: 18}}}
	res, err := g.BcastReliable(0, data, cfg, fp)
	if err != nil {
		t.Fatalf("quorum 1 must tolerate one crash: %v", err)
	}
	if res.Status != reliable.DeliveredPartial {
		t.Errorf("status %v, want delivered-partial", res.Status)
	}
	crashedRank := g.Rank(19)
	if len(res.Undelivered) != 1 || res.Undelivered[0] != crashedRank {
		t.Errorf("undelivered ranks %v, want [%d]", res.Undelivered, crashedRank)
	}
	if res.Epoch != 2 || len(res.Views) != 2 {
		t.Errorf("epoch %d with %d views, want one view change", res.Epoch, len(res.Views))
	}
	for r := range hosts {
		if r == crashedRank {
			if res.Data[r] != nil {
				t.Errorf("crashed rank %d has data", r)
			}
			continue
		}
		if !bytes.Equal(res.Data[r], data) {
			t.Errorf("rank %d payload differs", r)
		}
	}
}

// TestBcastReliableLossless: with no faults the reliable collective
// delivers everywhere with a clean verdict and no membership artifacts.
func TestBcastReliableLossless(t *testing.T) {
	sys := testSys()
	g, err := New(sys, []int{0, 5, 9, 23, 44})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	res, err := g.BcastReliable(0, data, reliable.DefaultConfig(), fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != reliable.Delivered || len(res.Undelivered) != 0 || res.Views != nil {
		t.Errorf("lossless run: status=%v undelivered=%v views=%d",
			res.Status, res.Undelivered, len(res.Views))
	}
	for r := range res.Data {
		if !bytes.Equal(res.Data[r], data) {
			t.Errorf("rank %d payload differs", r)
		}
	}
}

// TestBcastLiveReliableLossy: a seeded lossy transport must not change
// what the group delivers — every rank ends with the exact payload, and
// the chaos plane visibly did something (frames dropped, retransmissions
// paid).
func TestBcastLiveReliableLossy(t *testing.T) {
	sys := testSys()
	g, err := New(sys, []int{0, 5, 9, 23, 44, 51})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 500)
	for i := range data {
		data[i] = byte(i * 13)
	}
	cfg := live.DefaultReliableConfig()
	cfg.RTO = 5 * time.Millisecond
	cfg.RTOMax = 40 * time.Millisecond
	cfg.Faults = fault.Plan{
		Seed:        42,
		DropRate:    0.10,
		AckDropRate: 0.05,
		MaxJitter:   200 * time.Microsecond,
	}
	res, err := g.BcastLiveReliable(0, data, sim.DefaultParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != reliable.Delivered || len(res.Undelivered) != 0 {
		t.Fatalf("status=%v undelivered=%v, want clean delivery", res.Status, res.Undelivered)
	}
	if res.Epoch != 0 || res.Views != nil {
		t.Errorf("no crash schedule, but epoch=%d views=%d", res.Epoch, len(res.Views))
	}
	for r := range res.Data {
		if !bytes.Equal(res.Data[r], data) {
			t.Errorf("rank %d payload differs", r)
		}
	}
	if res.Protocol.Faults.Dropped == 0 || res.Protocol.Retransmits == 0 {
		t.Errorf("p=0.10 run shows no chaos: %+v retransmits=%d",
			res.Protocol.Faults, res.Protocol.Retransmits)
	}
}

// TestBcastLiveReliableCrash: a crash-stopped NI surfaces as an
// undelivered rank under quorum 1, with the membership plane's epochs
// exposed on the result.
func TestBcastLiveReliableCrash(t *testing.T) {
	hosts := []int{3, 7, 12, 19, 25, 33}
	g, err := New(testSys(), hosts)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	cfg := live.DefaultReliableConfig()
	cfg.RTO = 10 * time.Millisecond
	cfg.RTOMax = 80 * time.Millisecond
	cfg.Quorum = 1
	// Jitter keeps the protocol in flight long enough for the scheduled
	// crash to land mid-message (unshaped links finish in microseconds).
	cfg.Faults = fault.Plan{Seed: 7, MaxJitter: 2 * time.Millisecond}
	cfg.Faults.Crashes = []fault.Crash{{Host: 19, At: 4000}}
	cfg.Heartbeat = live.HeartbeatParams{
		SuspectAfter: 10 * time.Millisecond,
		ConfirmAfter: 8 * time.Millisecond,
	}
	res, err := g.BcastLiveReliable(0, data, sim.DefaultParams(), cfg)
	if err != nil {
		t.Fatalf("quorum 1 must tolerate one crash: %v", err)
	}
	if res.Status != reliable.DeliveredPartial {
		t.Errorf("status %v, want delivered-partial", res.Status)
	}
	crashedRank := g.Rank(19)
	if len(res.Undelivered) != 1 || res.Undelivered[0] != crashedRank {
		t.Errorf("undelivered ranks %v, want [%d]", res.Undelivered, crashedRank)
	}
	if res.Epoch < 2 || len(res.Views) < 2 {
		t.Errorf("epoch %d with %d views, want at least one view change", res.Epoch, len(res.Views))
	}
	for r := range hosts {
		if r == crashedRank {
			if res.Data[r] != nil {
				t.Errorf("crashed rank %d has data", r)
			}
			continue
		}
		if !bytes.Equal(res.Data[r], data) {
			t.Errorf("rank %d payload differs", r)
		}
	}
}

func TestConcurrentBcastScheduled(t *testing.T) {
	sys := testSys()
	g, err := New(sys, []int{0, 2, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]int, sys.Net.NumHosts())
	for i := range hosts {
		hosts[i] = i
	}
	s, err := sched.New(hosts, sched.Config{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			payload := bytes.Repeat([]byte{byte(w + 1)}, 200+w)
			res, err := g.BcastScheduled(s, w%g.Size(), payload, sim.DefaultParams())
			if err == nil {
				for _, d := range res.Data {
					if !bytes.Equal(d, payload) {
						err = fmt.Errorf("worker %d: payload mismatch", w)
						break
					}
				}
				if err == nil && (res.WallLatency <= 0 || res.QueueWait < 0) {
					err = fmt.Errorf("worker %d: inconsistent timing %v/%v", w, res.QueueWait, res.WallLatency)
				}
			}
			errs <- err
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Completed != workers || st.Inflight != 0 || st.DroppedFrames != 0 {
		t.Errorf("scheduler stats after %d broadcasts: %+v", workers, st)
	}
}
