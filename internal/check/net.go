package check

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/message"
)

// This file is the third rung of the differential ladder: sim → live →
// network. checkLiveMatchesSim proved the goroutine runtime reproduces
// the step schedule; checkNetMatchesLive proves the socket fabric
// reproduces the goroutine runtime — the same instance executed over
// loopback UDP must be indistinguishable from the in-process execution
// in everything but wall-clock timing: per-host delivery order, the
// parent edge under every arrival, per-host and total send/receive
// counts, and byte-exact reassembled payloads. Transitively, a loopback
// UDP run is checked all the way down to the paper's step schedule.

var (
	netProbeOnce sync.Once
	netProbeOK   bool
)

// loopbackUDPAvailable reports (once per process) whether this
// environment permits binding 127.0.0.1 UDP sockets. Sandboxes that
// forbid it skip the network arm instead of failing the sweep.
func loopbackUDPAvailable() bool {
	netProbeOnce.Do(func() {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err == nil {
			c.Close()
			netProbeOK = true
		}
	})
	return netProbeOK
}

// netSession derives the instance's datagram session nonce: unique per
// (seed, case) so concurrent sweep workers' fabrics cannot cross-talk
// even if the kernel recycles ports.
func (in Instance) netSession() uint64 {
	return in.FaultSeed ^ 0x0DD5_0CCE_7000_0001
}

// checkNetMatchesLive executes the instance's plan twice — once on the
// in-process live fabric, once over a loopback-UDP network dialed edge
// by edge — and asserts the two runs are structurally identical. It is
// vacuous where loopback sockets are unavailable.
func checkNetMatchesLive(w *world) error {
	if !loopbackUDPAvailable() {
		return nil
	}
	m := w.m
	payload := w.inst.livePayload()
	pkts, err := message.Packetize(1, w.plan.Spec.Source, payload, livePacketBytes)
	if err != nil {
		return fmt.Errorf("packetize: %v", err)
	}
	plain, err := live.Run([]live.Session{{Tree: w.plan.Tree, Packets: pkts, MsgID: 1}}, w.inst.liveConfig())
	if err != nil {
		return fmt.Errorf("in-process reference run failed: %v", err)
	}

	nw, err := link.NewLoopbackUDP(w.plan.Tree.Nodes(), link.UDPConfig{Session: w.inst.netSession()})
	if err != nil {
		return fmt.Errorf("loopback fabric: %v", err)
	}
	defer nw.Close()
	cfg := w.inst.liveConfig()
	cfg.Network = nw
	netRes, err := live.Run([]live.Session{{Tree: w.plan.Tree, Packets: pkts, MsgID: 1}}, cfg)
	if err != nil {
		return fmt.Errorf("loopback UDP run failed (drop counters %+v): %v", nw.Stats(), err)
	}
	if s := nw.Stats(); s.BadDatagrams != 0 || s.Resyncs != 0 || s.Overflow != 0 {
		return fmt.Errorf("loopback fabric dropped datagrams on a lossless run: %+v", s)
	}

	if netRes.Sends != plain.Sends || netRes.Sends != (w.n-1)*m {
		return fmt.Errorf("UDP run injected %d copies, in-process %d, model (n-1)*m = %d",
			netRes.Sends, plain.Sends, (w.n-1)*m)
	}
	nr := netRes.Sessions[0]
	if err := sameHosts(nr.Hosts, plain.Sessions[0].Hosts, w.plan.Tree.Root(), payload, "over UDP", "in-process"); err != nil {
		return err
	}
	if nr.Latency <= 0 || netRes.Wall < nr.Latency {
		return fmt.Errorf("UDP wall clock inconsistent: session latency %v, wall %v", nr.Latency, netRes.Wall)
	}
	return nil
}
