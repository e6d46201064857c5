package check

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/message"
)

// TestNetInvariant100Cases is the acceptance gate for the UDP transport:
// 100 seeded harness instances, each executed twice — once on in-process
// channel links, once over a real loopback UDP fabric — and compared
// structurally (delivery order, parent edges, send/receive counts,
// byte-exact payloads). CI runs this under -race, so the socket pump,
// per-incarnation deliverers and credit plane are concurrency-validated
// at the same time.
func TestNetInvariant100Cases(t *testing.T) {
	if !loopbackUDPAvailable() {
		t.Skip("loopback UDP unavailable in this environment")
	}
	inv, ok := InvariantByID("net-matches-live")
	if !ok {
		t.Fatal("net-matches-live invariant not registered")
	}
	const cases = 100
	failed := 0
	for c := 0; c < cases; c++ {
		inst := Generate(7, c)
		w, err := safeBuild(inst)
		if err != nil {
			t.Fatalf("case %d: build: %v", c, err)
		}
		if err := safeCheck(inv, w); err != nil {
			failed++
			t.Errorf("case %d (replay: mcastcheck -only net-matches-live -seed 7 -case %d): %v", c, c, err)
			if failed >= 5 {
				t.Fatal("stopping after 5 differential failures")
			}
		}
	}
}

// TestNetChaosSweep drives the full reliability stack over real sockets:
// 100 fixed-seed instances where the chaos decorator (1% drop plus
// jitter) wraps the UDP transport, so retransmissions, ACKs and epoch
// fencing all cross the wire as datagrams. Every destination must end
// the run holding the byte-exact payload — the UDP rung of the
// differential ladder under loss, not just lossless loopback.
func TestNetChaosSweep(t *testing.T) {
	if !loopbackUDPAvailable() {
		t.Skip("loopback UDP unavailable in this environment")
	}
	const cases = 100
	failed := 0
	for c := 0; c < cases; c++ {
		inst := Generate(11, c)
		inst.Crashes = nil // the chaos arm here is wire loss, not membership
		w, err := safeBuild(inst)
		if err != nil {
			t.Fatalf("case %d: build: %v", c, err)
		}
		if err := netChaosCase(w, c); err != nil {
			failed++
			t.Errorf("case %d (seed 11): %v", c, err)
			if failed >= 5 {
				t.Fatal("stopping after 5 chaos-sweep failures")
			}
		}
	}
}

// netChaosCase runs one instance's plan on RunReliable over a fresh
// loopback UDP fabric with a seeded 1%-drop fault plan and asserts
// byte-exact delivery everywhere.
func netChaosCase(w *world, c int) error {
	payload := w.inst.livePayload()
	pkts, err := message.Packetize(1, w.plan.Spec.Source, payload, livePacketBytes)
	if err != nil {
		return err
	}
	nw, err := link.NewLoopbackUDP(w.plan.Tree.Nodes(), link.UDPConfig{Session: w.inst.netSession() + uint64(c)})
	if err != nil {
		return err
	}
	defer nw.Close()
	cfg := w.inst.liveReliableConfig()
	cfg.Live.Network = nw
	cfg.Faults = fault.Plan{
		Seed:      w.inst.FaultSeed ^ 0x0001_f00d,
		DropRate:  0.01,
		MaxJitter: 50 * time.Microsecond,
	}
	res, err := live.RunReliable(live.Session{Tree: w.plan.Tree, Packets: pkts, MsgID: 1}, cfg)
	if err != nil {
		return err
	}
	for _, d := range w.inst.Dests {
		rec := res.Hosts[d]
		if rec == nil || !bytes.Equal(rec.Data, payload) {
			got := -1
			if rec != nil {
				got = len(rec.Data)
			}
			return fmt.Errorf("host %d reassembled %d bytes over lossy UDP, want %d (decorator dropped %d datagrams)",
				d, got, len(payload), res.Faults.Dropped)
		}
	}
	return nil
}
