package mcastd

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/tree"
)

// TestReliableAllLocal runs the reliable engine with every host in one
// process over a lossy loopback fabric: retransmission alone must make
// delivery byte-exact.
func TestReliableAllLocal(t *testing.T) {
	skipWithoutLoopback(t)
	chain := []int{0, 1, 2, 3, 4, 5, 6, 7}
	tr := tree.Binomial(chain)
	data := testPayload(1500)
	pkts, err := message.Packetize(3, 0, data, 128)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := link.NewLoopbackUDP(tr.Nodes(), link.UDPConfig{Session: 0x3E1})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	rcfg := DefaultReliableConfig()
	rcfg.Faults = fault.Plan{Seed: 41, DropRate: 0.05}
	res, err := RunReliable(Config{
		Tree: tr, Packets: pkts, MsgID: 3, Local: tr.Nodes(), Net: nw,
		Timeout: 15 * time.Second,
	}, rcfg)
	if err != nil {
		t.Fatalf("RunReliable: %v", err)
	}
	if res.Status != reliable.Delivered || len(res.Orphaned) != 0 {
		t.Fatalf("status %v orphaned %v, want clean delivery", res.Status, res.Orphaned)
	}
	for _, v := range chain[1:] {
		rep := res.Hosts[v]
		if rep == nil || !bytes.Equal(rep.Data, data) {
			t.Fatalf("host %d not byte-exact", v)
		}
	}
	if res.Retransmits == 0 {
		t.Fatalf("5%% drop over %d packets produced no retransmits (chaos %+v)", len(pkts), nw.Stats())
	}
}

// TestReliableMatchesPlain pins the zero-fault guarantee: with no chaos
// armed, the reliable daemon is structurally the plain daemon — same
// per-host receive counts, same per-host send counts, no recovery
// machinery engaged.
func TestReliableMatchesPlain(t *testing.T) {
	skipWithoutLoopback(t)
	chain := []int{0, 1, 2, 3, 4, 5, 6}
	tr := tree.KBinomial(chain, 2)
	data := testPayload(900)
	pkts, err := message.Packetize(9, 0, data, 96)
	if err != nil {
		t.Fatal(err)
	}
	run := func(rel bool) *live.ReliableResult {
		nw, err := link.NewLoopbackUDP(tr.Nodes(), link.UDPConfig{Session: 0x9A7})
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		cfg := Config{Tree: tr, Packets: pkts, MsgID: 9, Local: tr.Nodes(), Net: nw, Timeout: 10 * time.Second}
		var res *live.ReliableResult
		if rel {
			rcfg := DefaultReliableConfig()
			// A generous RTO keeps scheduler noise from triggering
			// spurious retransmits that would skew the send counts.
			rcfg.RTO, rcfg.RTOMax = 500*time.Millisecond, time.Second
			res, err = RunReliable(cfg, rcfg)
		} else {
			res, err = Run(cfg)
		}
		if err != nil {
			t.Fatalf("run (reliable=%v): %v", rel, err)
		}
		return res
	}
	plain, rel := run(false), run(true)
	if rel.Retransmits != 0 || rel.Duplicates != 0 || rel.Fenced != 0 || rel.Adoptions != 0 {
		t.Fatalf("zero-fault reliable run engaged recovery: %+v", rel)
	}
	if rel.Status != reliable.Delivered || rel.Epoch != 1 {
		t.Fatalf("zero-fault reliable run: status %v epoch %d", rel.Status, rel.Epoch)
	}
	if plain.Sends != rel.Sends || plain.Packets != rel.Packets {
		t.Fatalf("plain sent %d copies of %d packets, reliable %d of %d", plain.Sends, plain.Packets, rel.Sends, rel.Packets)
	}
	for _, v := range chain {
		p, r := plain.Hosts[v], rel.Hosts[v]
		if p == nil || r == nil {
			t.Fatalf("host %d missing from a result", v)
		}
		if p.Recvs != r.Recvs || p.Sends != r.Sends || !bytes.Equal(p.Data, r.Data) {
			t.Fatalf("host %d diverges: plain recv=%d send=%d, reliable recv=%d send=%d",
				v, p.Recvs, p.Sends, r.Recvs, r.Sends)
		}
	}
}

// daemonPair builds the fabrics of two processes that run hosts localA and
// localB, each knowing the other's addresses.
func daemonPair(t *testing.T, session uint64, localA, localB []int) (nwA, nwB *link.UDPNetwork) {
	t.Helper()
	ucfg := link.UDPConfig{Session: session}
	nwA, err := link.NewUDPNetwork(ucfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nwA.Close() })
	nwB, err = link.NewUDPNetwork(ucfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nwB.Close() })
	for _, v := range localA {
		if _, err := nwA.Listen(v, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range localB {
		if _, err := nwB.Listen(v, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range localA {
		if err := nwB.AddPeer(v, nwA.Addr(v).String()); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range localB {
		if err := nwA.AddPeer(v, nwB.Addr(v).String()); err != nil {
			t.Fatal(err)
		}
	}
	return nwA, nwB
}

// reliablePair runs the two processes of cfgA (the root's) and cfgB
// concurrently, each with its own tuning, and fails the test unless both
// return without error.
func reliablePair(t *testing.T, cfgA, cfgB Config, rcfgA, rcfgB ReliableConfig) (resA, resB *live.ReliableResult) {
	t.Helper()
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); resA, errA = RunReliable(cfgA, rcfgA) }()
	go func() { defer wg.Done(); resB, errB = RunReliable(cfgB, rcfgB) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("root process: %v, peer process: %v", errA, errB)
	}
	return resA, resB
}

// lossyPairCase runs one two-process reliable run configured by rcfg in
// both processes, checks byte-exact delivery and, under a drop plane, that
// every data send of a process drew one loss decision of its record's
// Losses, and returns both processes' results.
func lossyPairCase(t *testing.T, rcfg ReliableConfig, session uint64) (resA, resB *live.ReliableResult) {
	t.Helper()
	chain := []int{0, 1, 2, 3, 4, 5, 6, 7}
	tr := tree.KBinomial(chain, 2)
	data := testPayload(1200)
	pkts, err := message.Packetize(5, 0, data, 128)
	if err != nil {
		t.Fatal(err)
	}
	localA, localB := []int{0, 1, 2, 3}, []int{4, 5, 6, 7}
	nwA, nwB := daemonPair(t, session, localA, localB)
	mk := func(local []int, nw *link.UDPNetwork) Config {
		return Config{Tree: tr, Packets: pkts, MsgID: 5, Local: local, Net: nw, Timeout: 20 * time.Second}
	}
	resA, resB = reliablePair(t, mk(localA, nwA), mk(localB, nwB), rcfg, rcfg)
	if resA.Status != reliable.Delivered || len(resA.Orphaned) != 0 {
		t.Fatalf("root verdict %v orphaned %v, want full delivery", resA.Status, resA.Orphaned)
	}
	if resB.Status != reliable.Delivered {
		t.Fatalf("peer process learned status %v from STOP, want Delivered", resB.Status)
	}
	for _, v := range localA[1:] {
		if rep := resA.Hosts[v]; rep == nil || !bytes.Equal(rep.Data, data) {
			t.Fatalf("faults %+v: root-process host %d not byte-exact", rcfg.Faults, v)
		}
	}
	for _, v := range localB {
		if rep := resB.Hosts[v]; rep == nil || !bytes.Equal(rep.Data, data) {
			t.Fatalf("faults %+v: peer-process host %d not byte-exact", rcfg.Faults, v)
		}
	}
	for _, res := range []*live.ReliableResult{resA, resB} {
		drawn, lost := 0, 0
		for _, p := range res.Losses {
			drawn += p.Sent
			lost += bits.OnesCount64(p.Lost) // Lost holds 64 sends; these edges send fewer
		}
		if rcfg.Faults.DropRate > 0 && (drawn != res.Sends || lost != res.Faults.Dropped) {
			t.Fatalf("faults %+v: %d sends, %d dropped, but the loss patterns %+v drew %d and lost %d",
				rcfg.Faults, res.Sends, res.Faults.Dropped, res.Losses, drawn, lost)
		}
	}
	return resA, resB
}

// TestReliableFollowerExhaustion makes a follower process's own edge die:
// of the chain 0-1-2 the root's process runs host 0 and the follower's
// hosts 1 and 2, so the follower runs edge 1->2, and only its chaos plane
// loses data frames. With a retry budget of 1 the edge dies at the first
// packet lost twice; the follower retires it and reports EXHAUSTED, and
// the root, which then routes around the dead pair, adopts host 2 on an
// edge of its own.
func TestReliableFollowerExhaustion(t *testing.T) {
	skipWithoutLoopback(t)
	tr := tree.Linear([]int{0, 1, 2})
	data := testPayload(2000)
	pkts, err := message.Packetize(6, 0, data, 128)
	if err != nil {
		t.Fatal(err)
	}
	localA, localB := []int{0}, []int{1, 2}
	nwA, nwB := daemonPair(t, 0x1E4A, localA, localB)
	mk := func(local []int, nw *link.UDPNetwork) Config {
		return Config{Tree: tr, Packets: pkts, MsgID: 6, Local: local, Net: nw, Timeout: 20 * time.Second}
	}
	lossy := DefaultReliableConfig()
	lossy.RetryBudget = 1
	lossy.Faults = fault.Plan{Seed: 23, DropRate: 0.9}
	resA, resB := reliablePair(t, mk(localA, nwA), mk(localB, nwB), DefaultReliableConfig(), lossy)
	if resA.Status != reliable.Delivered || resB.Status != reliable.Delivered || resA.Adoptions < 1 {
		t.Fatalf("root verdict %v with %d adoptions, follower learned %v; want Delivered after at least one adoption",
			resA.Status, resA.Adoptions, resB.Status)
	}
	for _, v := range localB {
		if rep := resB.Hosts[v]; rep == nil || !bytes.Equal(rep.Data, data) {
			t.Fatalf("follower host %d not byte-exact", v)
		}
	}
}

// TestTwoDaemonsLossy is the soak sweep: the multi-process deployment
// over genuinely lossy data planes across a grid of seeds and drop
// rates, every case byte-exact. Packet loss here hits real UDP sockets
// between two fabric instances, with ACKs to the other process riding the
// ctl plane back. The last case loses ACKs only, local and remote alike:
// the wire drops nothing, so only a lost ACK makes an edge retransmit.
func TestTwoDaemonsLossy(t *testing.T) {
	skipWithoutLoopback(t)
	drops := []float64{0.01, 0.03, 0.05}
	seeds := []uint64{7, 19}
	if testing.Short() {
		drops, seeds = drops[:1], seeds[:1]
	}
	n := 0
	for _, drop := range drops {
		for _, seed := range seeds {
			drop, seed := drop, seed
			sess := uint64(0x10551 + n)
			n++
			t.Run(fmt.Sprintf("drop%.0f%%/seed%d", drop*100, seed), func(t *testing.T) {
				rcfg := DefaultReliableConfig()
				rcfg.Faults = fault.Plan{Seed: seed, DropRate: drop}
				lossyPairCase(t, rcfg, sess)
			})
		}
	}
	t.Run("ackdrop30%/seed7", func(t *testing.T) {
		// Send jitter keeps every edge busy for several RTOs, so a packet
		// whose ACK was lost is resent before the run settles; it delays
		// sends, not ACKs, so by itself it resends nothing.
		rcfg := DefaultReliableConfig()
		rcfg.RTO, rcfg.RTOMax = 2*time.Millisecond, 8*time.Millisecond
		rcfg.Faults = fault.Plan{Seed: 7, AckDropRate: 0.3, MaxJitter: time.Millisecond}
		resA, resB := lossyPairCase(t, rcfg, 0x105A0)
		if resA.Retransmits+resB.Retransmits == 0 {
			t.Fatal("30% ACK loss produced no retransmits")
		}
		if resA.Faults.AcksDropped == 0 || resB.Faults.AcksDropped == 0 {
			t.Fatalf("30%% ACK loss dropped %d and %d ACKs; each process's record counts its own",
				resA.Faults.AcksDropped, resB.Faults.AcksDropped)
		}
	})
}

// TestReliableRejects pins the reliable-specific construction errors.
func TestReliableRejects(t *testing.T) {
	skipWithoutLoopback(t)
	tr := tree.Binomial([]int{0, 1})
	pkts, _ := message.Packetize(1, 0, []byte("x"), 64)
	nw, err := link.NewLoopbackUDP(tr.Nodes(), link.UDPConfig{Session: 0xBAD})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	// A config that slipped through would run to the watchdog.
	cfg := Config{Tree: tr, Packets: pkts, MsgID: 1, Local: []int{0}, Net: nw, Timeout: 200 * time.Millisecond}
	for _, tc := range []struct {
		name, want string
		rcfg       ReliableConfig
	}{
		{"rto-cap-below-base", "RTO cap", ReliableConfig{RTO: 50 * time.Millisecond, RTOMax: 10 * time.Millisecond}},
		{"negative-quorum", "negative quorum -2", ReliableConfig{Quorum: -2}},
		{"negative-rto", "negative RTO -1ms", ReliableConfig{RTO: -time.Millisecond}},
		{"negative-rto-cap", "cap -1ms", ReliableConfig{RTOMax: -time.Millisecond}},
		{"negative-retry-budget", "negative retry budget -1", ReliableConfig{RetryBudget: -1}},
		{"bad-droprate", "drop rate", ReliableConfig{Faults: fault.Plan{DropRate: 1.5}}},
		{"scheduled-kills", "mcastd: fault plan field Kills (host pair) is not supported",
			ReliableConfig{Faults: fault.Plan{Kills: []fault.Kill{{Link: fault.Pair, From: 0, To: 1, At: 1000}}}}},
		{"scheduled-stalls", "mcastd: fault plan field Stalls is not supported",
			ReliableConfig{Faults: fault.Plan{Stalls: []fault.Stall{{Host: 0, Until: 1000}}}}},
		{"scheduled-crashes", "mcastd: fault plan field Crashes is not supported",
			ReliableConfig{Faults: fault.Plan{Crashes: []fault.Crash{{Host: 1, At: 1000}}}}},
	} {
		res, err := RunReliable(cfg, tc.rcfg)
		if res != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RunReliable = %v, %v; want a rejection naming %q", tc.name, res, err, tc.want)
		}
		var re *fault.RefusedError
		if strings.HasPrefix(tc.name, "scheduled-") && !errors.As(err, &re) {
			t.Errorf("%s: err %T, want *fault.RefusedError", tc.name, err)
		}
	}
	// Host ids and packet counts the 16-bit ctl fields cannot carry are
	// rejected up front with a typed error, not truncated onto valid ones.
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"host-id-past-16-bits", Config{Tree: tree.Binomial([]int{0, 1 << 16}), Packets: pkts, MsgID: 1, Local: []int{0}, Net: nw}},
		{"too-many-packets", Config{Tree: tr, Packets: make([][]byte, 1<<16+1), MsgID: 1, Local: []int{0}, Net: nw}},
	} {
		var re *RangeError
		if _, err := RunReliable(tc.cfg, ReliableConfig{}); !errors.As(err, &re) {
			t.Errorf("%s: err = %v, want *RangeError", tc.name, err)
		}
	}
	for _, tc := range bothRefuse(t, tr, nw) {
		if res, err := RunReliable(tc.cfg, ReliableConfig{}); res != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RunReliable = %v, %v; want a rejection naming %q", tc.name, res, err, tc.want)
		}
	}

}

// TestReliableRootDropsForeignExhausted: an EXHAUSTED datagram naming a host
// outside the tree, as parent or as child, is dropped by the root before
// it reaches the generation table, the supervisor or a KILL; a well-formed
// one is reported and acknowledged. Host 1's KILLs land on the fabric's
// ctl queue, which nothing here reads, so the first one is the answer to
// the first EXHAUSTED the root accepted.
func TestReliableRootDropsForeignExhausted(t *testing.T) {
	skipWithoutLoopback(t)
	tr := tree.Linear([]int{0, 1, 2})
	pkts, err := message.Packetize(1, 0, []byte("x"), 64)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := link.NewLoopbackUDP(tr.Nodes(), link.UDPConfig{Session: 0xE7A})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	plane, err := live.NewShare([]int{0, 1}, 8, live.DefaultQuantum, live.Config{Network: nw})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Stop()
	share, err := plane.AddReliable(live.ReliableShareConfig{
		Tree: tr, MsgID: 1,
		Edge: live.EdgeSenderConfig{Packets: pkts, RTO: time.Minute, RTOMax: time.Minute, RetryBudget: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := &drt{cfg: Config{Tree: tr, Net: nw}, root: 0, share: share, exhSeen: map[[2]int]int{}}
	rt.hearRoot(ctlFrame{kind: ctlExhausted, a: 1, b: 9, c: 1})
	rt.hearRoot(ctlFrame{kind: ctlExhausted, a: 9, b: 1, c: 1})
	rt.hearRoot(ctlFrame{kind: ctlExhausted, a: 1, b: 2, c: 1})
	if want := map[[2]int]int{{1, 2}: 1}; !reflect.DeepEqual(rt.exhSeen, want) {
		t.Fatalf("generations %v, want %v", rt.exhSeen, want)
	}
	select {
	case r := <-share.Reports():
		if want := (live.Report{Kind: live.ReportExhausted, Host: 1, To: 2}); r != want {
			t.Fatalf("the supervisor heard %+v first, want %+v", r, want)
		}
	default:
		t.Fatal("the well-formed EXHAUSTED was not reported")
	}
	select {
	case r := <-share.Reports():
		t.Fatalf("a second report %+v", r)
	default:
	}
	select {
	case c := <-nw.Ctl():
		if f, ok := decodeCtl(c.Payload); !ok || c.To != 1 || f != (ctlFrame{kind: ctlKill, a: 1, b: 2, c: share.Epoch()}) {
			t.Fatalf("host 1's first KILL is %+v, want the answer to EXHAUSTED 1->2", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the well-formed EXHAUSTED was not acknowledged")
	}
}
