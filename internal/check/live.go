package check

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/live"
	"repro/internal/message"
	"repro/internal/stepsim"
	"repro/internal/workload"
)

// livePacketBytes is the wire packet size of the live differential arm:
// with 64-byte packets each carries 44 payload bytes, so a payload of
// m*44 bytes packetizes to exactly the instance's m timing packets.
const livePacketBytes = 64

// liveTimeout bounds the live run inside the harness. A single tree
// cannot deadlock under FPFS backpressure, so expiry means a runtime
// bug; the bound keeps a buggy build from hanging the whole sweep.
const liveTimeout = 30 * time.Second

// liveConfig derives the deterministic runtime configuration of an
// instance. The buffer bound cycles through 1, 2, 3 and unbounded on the
// fault seed, so the sweep exercises blocking admission (tight bounds)
// and the free-running path in one catalogue.
func (in Instance) liveConfig() live.Config {
	return live.Config{
		BufferPackets: int(in.FaultSeed % 4), // 0 = unbounded, else 1..3 slots
		Timeout:       liveTimeout,
	}
}

// livePayload builds the deterministic payload whose packetization is
// exactly m wire packets.
func (in Instance) livePayload() []byte {
	rng := workload.NewRNG(in.FaultSeed ^ 0x11fe_ca57)
	b := make([]byte, in.Packets*(livePacketBytes-message.HeaderSize))
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	return b
}

// checkLiveMatchesSim is the differential bridge into the live runtime:
// it executes the instance's plan on real goroutine NIs over channel
// links and asserts that the concurrent run reproduces the FPFS step
// schedule's structure exactly — per-host packet delivery order, the
// parent→child edges used, and per-host send/receive counts. The live
// fabric dedicates a link to every tree edge, so like the Fig.-11
// construction it is contention-free by design and the step schedule's
// order is the ground truth on every instance. Wall-clock timing is
// deliberately not compared (see DESIGN.md §11).
func checkLiveMatchesSim(w *world) error {
	m := w.m
	payload := w.inst.livePayload()
	pkts, err := message.Packetize(1, w.plan.Spec.Source, payload, livePacketBytes)
	if err != nil {
		return fmt.Errorf("packetize: %v", err)
	}
	if len(pkts) != m {
		return fmt.Errorf("payload packetized to %d packets, want the instance's m=%d", len(pkts), m)
	}
	res, err := live.Run([]live.Session{{Tree: w.plan.Tree, Packets: pkts, MsgID: 1}}, w.inst.liveConfig())
	if err != nil {
		return fmt.Errorf("live run failed: %v", err)
	}
	sched := stepsim.Run(w.plan.Tree, m, stepsim.FPFS)
	lr := res.Sessions[0]

	// Send/receive counts: exact, per host and in total.
	if res.Sends != (w.n-1)*m {
		return fmt.Errorf("live injected %d copies, want (n-1)*m = %d", res.Sends, (w.n-1)*m)
	}
	// The step schedule as reference records: per-host send counts, and at
	// each destination the delivery order — arrivals from a serial parent
	// occupy distinct steps, so the order is total — all on the planned
	// parent edge.
	root := w.plan.Tree.Root()
	want := map[int]*live.HostRecord{}
	for _, v := range w.plan.Tree.Nodes() {
		want[v] = &live.HostRecord{Host: v}
	}
	for _, s := range sched.Sends {
		want[s.From].Sends++
	}
	for v, ref := range want {
		if v == root {
			continue
		}
		order := make([]int, m)
		for j := range order {
			order[j] = j
		}
		arr := sched.Arrival[v]
		sort.SliceStable(order, func(a, b int) bool { return arr[order[a]] < arr[order[b]] })
		parent, _ := w.plan.Tree.Parent(v)
		ref.Recvs = m
		for _, pkt := range order {
			ref.Arrivals = append(ref.Arrivals, live.Arrival{Packet: pkt, From: parent})
		}
	}
	if err := sameHosts(lr.Hosts, want, root, payload, "live", "step schedule"); err != nil {
		return err
	}
	// Per-session clock sanity: Latency is the session's own span
	// (FinishAt - StartAt), which the run-wide wall must contain. Wall
	// itself is a cross-session measure and is deliberately not used as
	// the session latency (it conflates the two under concurrency).
	if lr.Latency <= 0 || lr.Latency != lr.FinishAt-lr.StartAt {
		return fmt.Errorf("live session latency %v inconsistent with span %v..%v", lr.Latency, lr.StartAt, lr.FinishAt)
	}
	if res.Wall < lr.FinishAt {
		return fmt.Errorf("live wall clock inconsistent: session finish %v, wall %v", lr.FinishAt, res.Wall)
	}
	return nil
}

// sameHosts is the structural comparison every live rung makes against the
// rung below it: got must match want host for host — send and receive
// counts, the arrival count, then arrival by arrival the packet and the
// tree edge it rode — and every host but the root must hold payload byte
// for byte and carry a completion timestamp. The callers name the two
// sides so a violation reads in their words. Hosts are visited in
// ascending order, so the violation reported is deterministic.
func sameHosts(got, want map[int]*live.HostRecord, root int, payload []byte, gotName, wantName string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s covers %d hosts, %s %d", gotName, len(got), wantName, len(want))
	}
	hosts := make([]int, 0, len(want))
	for v := range want {
		hosts = append(hosts, v)
	}
	sort.Ints(hosts)
	for _, v := range hosts {
		rec, ref := got[v], want[v]
		if rec == nil {
			return fmt.Errorf("host %d has no %s record", v, gotName)
		}
		if rec.Sends != ref.Sends || rec.Recvs != ref.Recvs {
			return fmt.Errorf("host %d sends/recvs %d/%d %s, %s %d/%d",
				v, rec.Sends, rec.Recvs, gotName, wantName, ref.Sends, ref.Recvs)
		}
		if len(rec.Arrivals) != len(ref.Arrivals) {
			return fmt.Errorf("host %d admitted %d packets %s, %s %d",
				v, len(rec.Arrivals), gotName, wantName, len(ref.Arrivals))
		}
		for i, a := range rec.Arrivals {
			if a != ref.Arrivals[i] {
				return fmt.Errorf("host %d arrival %d is packet %d from %d %s, %s packet %d from %d",
					v, i, a.Packet, a.From, gotName, wantName, ref.Arrivals[i].Packet, ref.Arrivals[i].From)
			}
		}
		if v == root {
			continue
		}
		if !bytes.Equal(rec.Data, payload) {
			return fmt.Errorf("host %d reassembled %d bytes %s, want the %d-byte payload",
				v, len(rec.Data), gotName, len(payload))
		}
		if rec.DoneAt <= 0 {
			return fmt.Errorf("host %d has no completion ACK timestamp %s", v, gotName)
		}
	}
	return nil
}
