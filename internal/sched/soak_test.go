package sched

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/message"
	"repro/internal/workload"
)

// TestSchedSoak256 pushes 256 fixed-seed sessions through one scheduler
// over a shared 32-host cube: random groups, random payloads,
// planner-built trees, window 16. Every session must deliver byte-exact,
// and no session may be delayed past a generous multiple of its fair
// share of the fabric — deficit round robin at every NI, over forwarded
// frames and each root's injection alike, has to prevent elephant
// sessions from starving mice. CI runs it under -race in the soak job.
func TestSchedSoak256(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	const (
		sessions = 256
		window   = 16
	)
	sys := core.NewCubeSystem(2, 5) // 32 hosts
	n := 32
	rng := workload.NewRNG(0x5c4e_d50a)

	s, err := New(hostRange(n), Config{
		Window:     window,
		QueueDepth: sessions,
		Quantum:    2,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	type sub struct {
		h       *Handle
		payload []byte
		dests   []int
	}
	subs := make([]sub, 0, sessions)
	begin := time.Now()
	for i := 0; i < sessions; i++ {
		groupSize := 2 + rng.Intn(n-1)
		perm := rng.Perm(n)
		hosts := perm[:groupSize]
		payload := make([]byte, 1+rng.Intn(700))
		for j := range payload {
			payload[j] = byte(rng.Uint64())
		}
		msgID := uint32(i + 1)
		tr, _, err := s.PlanBcast(sys, hosts[0], hosts[1:], 1+len(payload)/(64-message.HeaderSize))
		if err != nil {
			t.Fatalf("session %d: PlanBcast: %v", i, err)
		}
		pkts, err := message.Packetize(msgID, hosts[0], payload, 64)
		if err != nil {
			t.Fatalf("session %d: Packetize: %v", i, err)
		}
		h, err := s.Submit(live.Session{Tree: tr, Packets: pkts, MsgID: msgID})
		if err != nil {
			t.Fatalf("session %d: Submit: %v", i, err)
		}
		subs = append(subs, sub{h: h, payload: payload, dests: hosts[1:]})
	}

	var maxLatency time.Duration
	for i, su := range subs {
		res, err := su.h.Wait()
		if err != nil {
			t.Fatalf("session %d failed: %v", i, err)
		}
		for _, v := range su.dests {
			rec := res.Hosts[v]
			if rec == nil || !bytes.Equal(rec.Data, su.payload) {
				t.Fatalf("session %d host %d delivered wrong bytes", i, v)
			}
		}
		if res.Latency <= 0 || res.Latency != res.FinishAt-res.StartAt {
			t.Fatalf("session %d latency %v inconsistent with span [%v, %v]", i, res.Latency, res.StartAt, res.FinishAt)
		}
		if res.Latency > maxLatency {
			maxLatency = res.Latency
		}
	}
	wall := time.Since(begin)

	// Fairness: with `window` slots shared by `sessions` equal-priority
	// sessions, a session's fair in-flight span is wall*window/sessions.
	// K bounds scheduling skew plus unequal session sizes (payloads vary
	// 700x); the floor absorbs timer and goroutine-wakeup granularity.
	// A starved session — one parked behind an elephant for a large part
	// of the run — blows through this by an order of magnitude.
	const k = 16
	fairShare := wall * window / sessions
	bound := k * fairShare
	if floor := 250 * time.Millisecond; bound < floor {
		bound = floor
	}
	if maxLatency > bound {
		t.Fatalf("fairness: slowest session in flight %v, bound %v (wall %v, fair share %v)",
			maxLatency, bound, wall, fairShare)
	}

	st := s.Stats()
	if st.Completed != sessions || st.Inflight != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MaxInflight > window {
		t.Fatalf("MaxInflight %d exceeded window %d", st.MaxInflight, window)
	}
	if st.DroppedFrames != 0 {
		t.Fatalf("healthy soak dropped %d frames", st.DroppedFrames)
	}
}
