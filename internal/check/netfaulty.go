package check

// This file is the fourth rung of the differential ladder under fault:
// sim → live → network → deployment. checkNetMatchesLive proved the
// socket fabric lossless-identical to the goroutine runtime; here the
// instance is split across two cooperating mcastd engines — separate
// fabrics, separate ctl planes, everything crossing real loopback
// datagrams — with a seeded chaos plane dropping 1–5% of the data
// frames. The reliable daemon protocol (per-edge retransmission, ctl
// ACKs, acknowledged DONE/STOP) must still deliver byte-exactly to
// every destination and settle a clean Delivered verdict.

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/mcastd"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/workload"
)

// daemonFaults derives the fault plan of the deployment arm: the drop
// rate is a seeded draw in [1%, 5%], plus a little send jitter to keep
// the decorator's timing path hot. Only data transports are wrapped —
// the ctl plane rides the raw socket, exactly as deployed.
func (in Instance) daemonFaults() fault.Plan {
	rng := workload.NewRNG(in.FaultSeed ^ 0xdaef_a017_5EED_0CA3)
	return fault.Plan{
		Seed:      in.FaultSeed ^ 0xdae0_fab5,
		DropRate:  0.01 + 0.04*rng.Float64(),
		MaxJitter: 50 * time.Microsecond,
	}
}

// daemonReliableConfig tunes the daemon protocol for a sweep: RTOs fast
// enough that 120 cases finish in seconds, a retry budget deep enough
// that a spurious exhaustion at 5% loss is a ~(0.05)^20 event.
func (in Instance) daemonReliableConfig() mcastd.ReliableConfig {
	rcfg := mcastd.DefaultReliableConfig()
	rcfg.RTO = 8 * time.Millisecond
	rcfg.RTOMax = 64 * time.Millisecond
	rcfg.RetryBudget = 20
	rcfg.Faults = in.daemonFaults()
	return rcfg
}

// daemonFaultyCase splits the instance's tree across two in-process
// daemon engines joined only by loopback UDP, runs both under the
// instance's chaos plane, and asserts clean byte-exact delivery.
func daemonFaultyCase(w *world) error {
	tr := w.plan.Tree
	root := tr.Root()
	var localA, localB []int
	for i, v := range tr.Nodes() {
		if v == root || i%2 == 0 {
			localA = append(localA, v)
		} else {
			localB = append(localB, v)
		}
	}
	if len(localB) == 0 {
		return nil // two-node instance: nothing to split across processes
	}
	payload := w.inst.livePayload()
	pkts, err := message.Packetize(1, w.plan.Spec.Source, payload, livePacketBytes)
	if err != nil {
		return fmt.Errorf("packetize: %v", err)
	}
	sess := w.inst.netSession() ^ 0xFA17_DE70
	nwA, err := link.NewUDPNetwork(link.UDPConfig{Session: sess})
	if err != nil {
		return fmt.Errorf("fabric A: %v", err)
	}
	defer nwA.Close()
	nwB, err := link.NewUDPNetwork(link.UDPConfig{Session: sess})
	if err != nil {
		return fmt.Errorf("fabric B: %v", err)
	}
	defer nwB.Close()
	for _, v := range localA {
		if _, err := nwA.Listen(v, "127.0.0.1:0"); err != nil {
			return fmt.Errorf("bind host %d: %v", v, err)
		}
	}
	for _, v := range localB {
		if _, err := nwB.Listen(v, "127.0.0.1:0"); err != nil {
			return fmt.Errorf("bind host %d: %v", v, err)
		}
	}
	for _, v := range localA {
		if err := nwB.AddPeer(v, nwA.Addr(v).String()); err != nil {
			return err
		}
	}
	for _, v := range localB {
		if err := nwA.AddPeer(v, nwB.Addr(v).String()); err != nil {
			return err
		}
	}
	rcfg := w.inst.daemonReliableConfig()
	mk := func(local []int, nw *link.UDPNetwork) mcastd.Config {
		return mcastd.Config{
			Tree: tr, Packets: pkts, MsgID: 1, Local: local, Net: nw,
			Timeout: 30 * time.Second,
		}
	}
	type outcome struct {
		res *live.ReliableResult
		err error
	}
	chB := make(chan outcome, 1)
	go func() {
		res, err := mcastd.RunReliable(mk(localB, nwB), rcfg)
		chB <- outcome{res, err}
	}()
	resA, errA := mcastd.RunReliable(mk(localA, nwA), rcfg)
	oB := <-chB
	if errA != nil {
		return fmt.Errorf("root daemon failed (drop %.3f, fabric %+v): %v", rcfg.Faults.DropRate, nwA.Stats(), errA)
	}
	if oB.err != nil {
		return fmt.Errorf("peer daemon failed (drop %.3f, fabric %+v): %v", rcfg.Faults.DropRate, nwB.Stats(), oB.err)
	}
	if resA.Status != reliable.Delivered || len(resA.Orphaned) != 0 {
		return fmt.Errorf("root verdict %v with orphaned %v on a crash-free run (drop %.3f)",
			resA.Status, resA.Orphaned, rcfg.Faults.DropRate)
	}
	if oB.res.Status != reliable.Delivered {
		return fmt.Errorf("peer daemon learned status %v from STOP, want Delivered", oB.res.Status)
	}
	// The daemons crash nobody, so every destination is a survivor.
	maps.Copy(resA.Hosts, oB.res.Hosts)
	return (&world{inst: Instance{Dests: w.inst.Dests}}).survivorBytes(resA, nil, payload)
}

// checkNetFaultyDelivery is the deployment rung's loss gate. It runs
// only on lossy instances (the lossless deployment is already pinned
// structurally by net-matches-live through the shared engine) and where
// loopback sockets exist.
func checkNetFaultyDelivery(w *world) error {
	if !loopbackUDPAvailable() || w.inst.DropRate == 0 {
		return nil
	}
	return daemonFaultyCase(w)
}
