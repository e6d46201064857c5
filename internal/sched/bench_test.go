package sched

import (
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/message"
)

// benchSched drives n concurrent 8-destination sessions (4 packets each)
// through one scheduler on a 64-host cube and reports sustained
// throughput plus the p50/p99 end-to-end completion latency (submit to
// last destination done). This is the massive-session configuration the
// scheduler exists for: goroutines stay one per host plus two while
// thousands of sessions share the fabric.
func benchSched(b *testing.B, n int) {
	sys := core.NewCubeSystem(2, 6) // 64 hosts
	const (
		groupSize = 8
		packets   = 4
	)
	payload := make([]byte, packets*(64-message.HeaderSize))
	for i := range payload {
		payload[i] = byte(i)
	}
	// Eight distinct groups rotated across sessions: enough tree overlap
	// to exercise the congestion-aware planner and NI sharing, enough
	// spread to keep the cube busy.
	type shape struct {
		source int
		dests  []int
	}
	shapes := make([]shape, 8)
	for g := range shapes {
		src := g * 8
		dests := make([]int, 0, groupSize-1)
		for i := 1; i < groupSize; i++ {
			dests = append(dests, src+i)
		}
		shapes[g] = shape{source: src, dests: dests}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		s, err := New(hostRange(64), Config{
			Window:     1024,
			QueueDepth: n,
		})
		if err != nil {
			b.Fatalf("New: %v", err)
		}
		handles := make([]*Handle, n)
		begin := time.Now()
		for i := 0; i < n; i++ {
			sh := shapes[i%len(shapes)]
			msgID := uint32(i + 1)
			tr, _, err := s.PlanBcast(sys, sh.source, sh.dests, packets)
			if err != nil {
				b.Fatalf("session %d: PlanBcast: %v", i, err)
			}
			pkts, err := message.Packetize(msgID, sh.source, payload, 64)
			if err != nil {
				b.Fatalf("session %d: Packetize: %v", i, err)
			}
			handles[i], err = s.Submit(live.Session{Tree: tr, Packets: pkts, MsgID: msgID})
			if err != nil {
				b.Fatalf("session %d: Submit: %v", i, err)
			}
		}
		e2e := make([]time.Duration, n)
		for i, h := range handles {
			res, err := h.Wait()
			if err != nil {
				b.Fatalf("session %d failed: %v", i, err)
			}
			e2e[i] = res.FinishAt - res.SubmitAt
		}
		wall := time.Since(begin)
		s.Close()
		sort.Slice(e2e, func(i, j int) bool { return e2e[i] < e2e[j] })
		b.ReportMetric(float64(n)/wall.Seconds(), "sessions/sec")
		b.ReportMetric(float64(e2e[n/2])/1e6, "p50-ms")
		b.ReportMetric(float64(e2e[n*99/100])/1e6, "p99-ms")
	}
}

func BenchmarkSched1kSessions(b *testing.B)  { benchSched(b, 1000) }
func BenchmarkSched4kSessions(b *testing.B)  { benchSched(b, 4000) }
func BenchmarkSched10kSessions(b *testing.B) { benchSched(b, 10000) }
