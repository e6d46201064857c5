package mcastd

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/tree"
)

func skipWithoutLoopback(t *testing.T) {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	c.Close()
}

func testPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*37 + 5)
	}
	return b
}

// TestAllLocal is the -all mode: every host of a binomial tree in one
// process over one loopback fabric.
func TestAllLocal(t *testing.T) {
	skipWithoutLoopback(t)
	chain := []int{0, 1, 2, 3, 4, 5, 6, 7}
	tr := tree.Binomial(chain)
	data := testPayload(1000)
	pkts, err := message.Packetize(1, 0, data, 128)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := link.NewLoopbackUDP(tr.Nodes(), link.UDPConfig{Session: 0xA11})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	res, err := Run(Config{
		Tree: tr, Packets: pkts, MsgID: 1, Local: tr.Nodes(), Net: nw,
		Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Orphaned) != 0 {
		t.Fatalf("Orphaned = %v, want every destination confirmed", res.Orphaned)
	}
	for _, v := range chain[1:] {
		rep := res.Hosts[v]
		if rep == nil || !bytes.Equal(rep.Data, data) || rep.Recvs != len(pkts) {
			t.Fatalf("host %d: %+v (want %d packets, %d bytes)", v, rep, len(pkts), len(data))
		}
		if rep.DoneAt <= 0 {
			t.Fatalf("host %d missing completion timestamp", v)
		}
		// The record is live.Run's, arrival sequence included: every
		// packet, in order, over the edge from the tree parent.
		parent, _ := tr.Parent(v)
		if len(rep.Arrivals) != len(pkts) {
			t.Fatalf("host %d recorded %d arrivals, want %d", v, len(rep.Arrivals), len(pkts))
		}
		for j, a := range rep.Arrivals {
			if a.Packet != j || a.From != parent {
				t.Fatalf("host %d arrival %d = %+v, want packet %d from %d", v, j, a, j, parent)
			}
		}
	}
	if root := res.Hosts[0]; root.Sends != len(pkts)*len(tr.Children(0)) {
		t.Fatalf("root sent %d copies, want %d", root.Sends, len(pkts)*len(tr.Children(0)))
	}
}

// TestTwoDaemons splits one tree across two UDP fabrics — the
// multi-process deployment, with DONE/STOP coordination crossing real
// sockets — and checks byte-exact delivery plus a clean join on both
// sides.
func TestTwoDaemons(t *testing.T) {
	skipWithoutLoopback(t)
	chain := []int{0, 1, 2, 3, 4, 5}
	tr := tree.Binomial(chain)
	data := testPayload(700)
	pkts, err := message.Packetize(7, 0, data, 96)
	if err != nil {
		t.Fatal(err)
	}
	localA, localB := []int{0, 1, 2}, []int{3, 4, 5}
	cfg := link.UDPConfig{Session: 0x2DAE}
	nwA, err := link.NewUDPNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nwA.Close()
	nwB, err := link.NewUDPNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nwB.Close()
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

	var wg sync.WaitGroup
	var resA, resB *live.ReliableResult
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		resA, errA = Run(Config{Tree: tr, Packets: pkts, MsgID: 7, Local: localA, Net: nwA, Timeout: 10 * time.Second})
	}()
	go func() {
		defer wg.Done()
		resB, errB = Run(Config{Tree: tr, Packets: pkts, MsgID: 7, Local: localB, Net: nwB, Timeout: 10 * time.Second})
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("daemon A: %v, daemon B: %v", errA, errB)
	}
	if len(resA.Orphaned) != 0 {
		t.Fatalf("root daemon Orphaned = %v, want every destination confirmed", resA.Orphaned)
	}
	for _, v := range []int{1, 2} {
		if rep := resA.Hosts[v]; rep == nil || !bytes.Equal(rep.Data, data) {
			t.Fatalf("daemon A host %d not byte-exact: %+v", v, rep)
		}
	}
	for _, v := range localB {
		if rep := resB.Hosts[v]; rep == nil || !bytes.Equal(rep.Data, data) {
			t.Fatalf("daemon B host %d not byte-exact: %+v", v, rep)
		}
	}
}

// TestWatchdog pins the failure mode when a remote daemon never shows
// up: the root process must time out with a report naming the missing
// hosts, not hang.
func TestWatchdog(t *testing.T) {
	skipWithoutLoopback(t)
	tr := tree.Binomial([]int{0, 1, 2, 3})
	pkts, err := message.Packetize(1, 0, testPayload(64), 64)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := link.NewUDPNetwork(link.UDPConfig{Session: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if _, err := nw.Listen(0, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// Hosts 1..3 "exist" (black-hole peers) but no daemon serves them.
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	for _, v := range []int{1, 2, 3} {
		if err := nw.AddPeer(v, sink.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(Config{Tree: tr, Packets: pkts, MsgID: 1, Local: []int{0}, Net: nw, Timeout: 400 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("want watchdog error, got %v", err)
	}
	// The partial result is the root's view: nothing delivered, and only
	// its own host's record.
	if res.Status != reliable.Failed || !slices.Equal(res.Orphaned, []int{1, 2, 3}) {
		t.Fatalf("status %v, orphaned %v; want failed with every destination orphaned", res.Status, res.Orphaned)
	}
	if len(res.Hosts) != 1 || res.Hosts[0] == nil {
		t.Fatalf("hosts %v, want the root's record alone", res.Hosts)
	}
}

// TestCorruptPacketFailsRun damages one packet's body after
// packetization: its header still validates, so Run accepts the session,
// and every destination's checksum fails. The failure ends the run at
// once, well before its watchdog, with every destination orphaned.
func TestCorruptPacketFailsRun(t *testing.T) {
	skipWithoutLoopback(t)
	tr := tree.Binomial([]int{0, 1, 2, 3, 4, 5, 6, 7})
	pkts, err := message.Packetize(1, 0, testPayload(1000), 128)
	if err != nil {
		t.Fatal(err)
	}
	pkts[1][len(pkts[1])-1] ^= 0xFF
	nw, err := link.NewLoopbackUDP(tr.Nodes(), link.UDPConfig{Session: 0xBAD})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	const timeout = 10 * time.Second
	start := time.Now()
	res, err := Run(Config{Tree: tr, Packets: pkts, MsgID: 1, Local: tr.Nodes(), Net: nw, Timeout: timeout})
	if !errors.Is(err, message.ErrCorrupt) {
		t.Fatalf("Run returned %v, want message.ErrCorrupt", err)
	}
	if took := time.Since(start); took > timeout/2 {
		t.Fatalf("the failure took %v to end the run, watchdog %v", took, timeout)
	}
	if res.Status != reliable.Failed || !slices.Equal(res.Orphaned, []int{1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("status %v, orphaned %v; want failed with every destination orphaned", res.Status, res.Orphaned)
	}
}

// TestConfigRejects pins the construction errors.
func TestConfigRejects(t *testing.T) {
	skipWithoutLoopback(t)
	tr := tree.Binomial([]int{0, 1})
	pkts, _ := message.Packetize(1, 0, []byte("x"), 64)
	nw, err := link.NewLoopbackUDP(tr.Nodes(), link.UDPConfig{Session: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	// Every row is valid but for the one fault it is named after, and must
	// be refused naming that fault. rng marks what the 16-bit ctl fields
	// cannot carry: a typed rejection, since a truncated host id or
	// sequence number would alias a valid one.
	for _, tc := range []struct {
		name, want string
		cfg        Config
		rng        bool
	}{
		{"nil-tree", "needs a tree", Config{Packets: pkts, MsgID: 1, Local: []int{0}, Net: nw}, false},
		{"nil-net", "needs a tree and a network", Config{Tree: tr, Packets: pkts, MsgID: 1, Local: []int{0}}, false},
		{"no-packets", "no packets", Config{Tree: tr, MsgID: 1, Local: []int{0}, Net: nw}, false},
		{"no-locals", "no local hosts", Config{Tree: tr, Packets: pkts, MsgID: 1, Net: nw}, false},
		{"foreign-local", "not in the tree", Config{Tree: tr, Packets: pkts, MsgID: 1, Local: []int{9}, Net: nw}, false},
		{"duplicate-local", "listed twice", Config{Tree: tr, Packets: pkts, MsgID: 1, Local: []int{0, 0}, Net: nw}, false},
		{"host-id-past-16-bits", "tree host id", Config{Tree: tree.Binomial([]int{0, 1 << 16}), Packets: pkts, MsgID: 1, Local: []int{0}, Net: nw}, true},
		{"too-many-packets", "packet count", Config{Tree: tr, Packets: make([][]byte, 1<<16+1), MsgID: 1, Local: []int{0}, Net: nw}, true},
	} {
		res, err := Run(tc.cfg)
		if res != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run = %v, %v; want a rejection naming %q", tc.name, res, err, tc.want)
		}
		var re *RangeError
		if errors.As(err, &re) != tc.rng {
			t.Errorf("%s: err = %v, *RangeError expected: %v", tc.name, err, tc.rng)
		}
	}
	for _, tc := range bothRefuse(t, tr, nw) {
		if res, err := Run(tc.cfg); res != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run = %v, %v; want a rejection naming %q", tc.name, res, err, tc.want)
		}
	}
}

// bothRefuse are configs both engines must refuse before the run starts,
// naming what is wrong, as live's engines refuse theirs: packets that are
// not the session's (stamped with another MsgID, or out of order), and a
// negative buffer bound, timeout or drain (zero selects a default).
func bothRefuse(t *testing.T, tr *tree.Tree, nw *link.UDPNetwork) []struct {
	name, want string
	cfg        Config
} {
	pkts, err := message.Packetize(1, 0, testPayload(300), 64)
	if err != nil {
		t.Fatal(err)
	}
	reversed := slices.Clone(pkts)
	slices.Reverse(reversed)
	mismatch := Config{Tree: tr, Packets: pkts, MsgID: 2, Local: tr.Nodes(), Net: nw, Timeout: 2 * time.Second}
	unordered := mismatch
	unordered.Packets, unordered.MsgID = reversed, 1
	negative := mismatch
	negative.MsgID, negative.BufferPackets = 1, -5
	negTimeout, negDrain := mismatch, mismatch
	negTimeout.MsgID, negTimeout.Timeout = 1, -time.Second
	negDrain.MsgID, negDrain.Drain = 1, -time.Second
	return []struct {
		name, want string
		cfg        Config
	}{
		{"msgid-mismatch", "header msgID", mismatch},
		{"packets-out-of-order", "out of order", unordered},
		{"negative-buffer", "negative buffer bound -5", negative},
		{"negative-timeout", "negative timeout -1s", negTimeout},
		{"negative-drain", "negative drain -1s", negDrain},
	}
}

// TestDialFailureNamesTheEdge builds a tree whose last host has no address
// on the fabric: both engines must refuse to start, with an error naming
// the edge that could not be dialed, and leave every local host detached
// (a host left attached cannot be attached again).
func TestDialFailureNamesTheEdge(t *testing.T) {
	skipWithoutLoopback(t)
	known := []int{0, 1, 2}
	nw, err := link.NewLoopbackUDP(known, link.UDPConfig{Session: 0xD1A1})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	pkts, err := message.Packetize(4, 0, testPayload(300), 128)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Tree: tree.Linear([]int{0, 1, 2, 3}), Packets: pkts, MsgID: 4, Local: known, Net: nw,
		Timeout: 10 * time.Second,
	}
	engines := map[string]func() (*live.ReliableResult, error){
		"Run":         func() (*live.ReliableResult, error) { return Run(cfg) },
		"RunReliable": func() (*live.ReliableResult, error) { return RunReliable(cfg, ReliableConfig{}) },
	}
	for name, run := range engines {
		if res, err := run(); res != nil || err == nil || !strings.Contains(err.Error(), "mcastd: dial edge 2->3") {
			t.Fatalf("%s over a fabric without host 3 = %v, %v; want an error naming edge 2->3", name, res, err)
		}
		for _, v := range known {
			if err := nw.Attach(v, link.NewInbox(v, 1, 0)); err != nil {
				t.Fatalf("%s left host %d attached: %v", name, v, err)
			}
			nw.Detach(v)
		}
	}
}
