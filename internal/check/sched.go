package check

import (
	"fmt"

	"repro/internal/live"
	"repro/internal/message"
	"repro/internal/sched"
)

// schedSessions is the concurrency degree of the scheduler arm: enough
// sessions to force admission queueing (the window is smaller), DRR
// interleaving at shared NIs, and at the root's NI, their source.
const schedSessions = 3

// schedPayload derives session i's deterministic payload, sized to the
// instance's m wire packets like livePayload but salted per session so
// byte-exactness is per-session evidence.
func (in Instance) schedPayload(i int) []byte {
	b := in.livePayload()
	for j := range b {
		b[j] ^= byte(0x9e*i + 0x37)
	}
	return b
}

// checkSchedMatchesSerial is the scheduler's differential gate: the
// instance's plan is executed three times concurrently through one
// sched.Scheduler — shared NIs, a window smaller than the load, DRR fair
// queueing, quantum-interleaved root injection — and each session's
// per-host outcome must be identical to the same session run alone
// through live.Run. Concurrency, admission control and fair queueing are
// allowed to reshape timing, never structure: delivered bytes, per-host
// send/receive counts, and per-host arrival order (packet sequence and
// parent edge) must survive untouched.
func checkSchedMatchesSerial(w *world) error {
	m := w.m
	cfg := w.inst.liveConfig()

	type arm struct {
		payload []byte
		pkts    [][]byte
		serial  live.SessionResult
	}
	arms := make([]arm, schedSessions)
	for i := range arms {
		msgID := uint32(i + 1)
		payload := w.inst.schedPayload(i)
		pkts, err := message.Packetize(msgID, w.plan.Spec.Source, payload, livePacketBytes)
		if err != nil {
			return fmt.Errorf("session %d: packetize: %v", i, err)
		}
		if len(pkts) != m {
			return fmt.Errorf("session %d packetized to %d packets, want m=%d", i, len(pkts), m)
		}
		res, err := live.Run([]live.Session{{Tree: w.plan.Tree, Packets: pkts, MsgID: msgID}}, cfg)
		if err != nil {
			return fmt.Errorf("session %d: serial live run failed: %v", i, err)
		}
		arms[i] = arm{payload: payload, pkts: pkts, serial: res.Sessions[0]}
	}

	s, err := sched.New(w.plan.Tree.Nodes(), sched.Config{
		Window:         schedSessions - 1, // smaller than the load: the last session must queue
		Quantum:        1,
		BufferPackets:  cfg.BufferPackets,
		SessionTimeout: liveTimeout,
	})
	if err != nil {
		return fmt.Errorf("sched.New: %v", err)
	}
	defer s.Close()
	handles := make([]*sched.Handle, schedSessions)
	for i := range arms {
		h, err := s.Submit(live.Session{Tree: w.plan.Tree, Packets: arms[i].pkts, MsgID: uint32(i + 1)})
		if err != nil {
			return fmt.Errorf("session %d: Submit: %v", i, err)
		}
		handles[i] = h
	}

	root := w.plan.Tree.Root()
	for i, h := range handles {
		res, err := h.Wait()
		if err != nil {
			return fmt.Errorf("session %d: scheduled run failed: %v", i, err)
		}
		if err := sameHosts(res.Hosts, arms[i].serial.Hosts, root, arms[i].payload, "scheduled", "serial"); err != nil {
			return fmt.Errorf("session %d: %v", i, err)
		}
		if res.Latency <= 0 || res.Latency != res.FinishAt-res.StartAt || res.FinishAt < res.StartAt || res.StartAt < res.SubmitAt {
			return fmt.Errorf("session %d: inconsistent timestamps submit=%v start=%v finish=%v latency=%v",
				i, res.SubmitAt, res.StartAt, res.FinishAt, res.Latency)
		}
	}
	return nil
}
