package live

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live/link"
	"repro/internal/message"
)

// benchSession plans a broadcast to dests destinations on a 64-host cube
// and packetizes a payload of packets wire packets.
func benchSession(b *testing.B, dests, packets int) Session {
	b.Helper()
	sys := core.NewCubeSystem(2, 6)
	hosts := make([]int, dests)
	for i := range hosts {
		hosts[i] = i + 1
	}
	plan := sys.Plan(core.Spec{Source: 0, Dests: hosts, Packets: packets, Policy: core.OptimalTree})
	payload := make([]byte, packets*(64-message.HeaderSize))
	for i := range payload {
		payload[i] = byte(i)
	}
	pkts, err := message.Packetize(1, 0, payload, 64)
	if err != nil {
		b.Fatalf("Packetize: %v", err)
	}
	return Session{Tree: plan.Tree, Packets: pkts, MsgID: 1}
}

func benchLive(b *testing.B, dests, packets, buffer int) {
	s := benchSession(b, dests, packets)
	cfg := Config{BufferPackets: buffer, Timeout: time.Minute}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run([]Session{s}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLiveBcast16x8(b *testing.B)        { benchLive(b, 16, 8, 0) }
func BenchmarkLiveBcast16x8Bounded(b *testing.B) { benchLive(b, 16, 8, 1) }
func BenchmarkLiveBcast63x32(b *testing.B)       { benchLive(b, 63, 32, 0) }

func BenchmarkLiveConcurrent4Sessions(b *testing.B) {
	sys := core.NewCubeSystem(2, 6)
	sessions := make([]Session, 4)
	for si := range sessions {
		src := si * 16
		var hosts []int
		for i := 0; i < 64; i++ {
			if i != src {
				hosts = append(hosts, i)
			}
		}
		plan := sys.Plan(core.Spec{Source: src, Dests: hosts, Packets: 4, Policy: core.OptimalTree})
		payload := make([]byte, 4*(64-message.HeaderSize))
		pkts, err := message.Packetize(uint32(si+1), src, payload, 64)
		if err != nil {
			b.Fatalf("Packetize: %v", err)
		}
		sessions[si] = Session{Tree: plan.Tree, Packets: pkts, MsgID: uint32(si + 1)}
	}
	cfg := Config{Timeout: time.Minute}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sessions, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLiveReliable measures the reliable live engine. p = 0 exercises
// the chaos decorator's pass-through path (the transport is still
// wrapped: MaxJitter keeps the FaultyTransport in the loop, so the
// baseline prices the decorator, not just the bare links); p > 0 adds
// real loss and the retransmission machinery it triggers. The pair's
// delta is the measured cost of fault recovery.
func benchLiveReliable(b *testing.B, dests, packets int, droprate float64) {
	s := benchSession(b, dests, packets)
	cfg := DefaultReliableConfig()
	cfg.Live.Timeout = time.Minute
	cfg.RTO = 5 * time.Millisecond
	cfg.RTOMax = 40 * time.Millisecond
	cfg.Faults = link.Faults{
		Seed:      9,
		DropRate:  droprate,
		MaxJitter: 50 * time.Microsecond,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunReliable(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLiveReliable16x8Lossless(b *testing.B) { benchLiveReliable(b, 16, 8, 0) }
func BenchmarkLiveReliable16x8Drop1pct(b *testing.B) { benchLiveReliable(b, 16, 8, 0.01) }

// BenchmarkLiveReliable16x8Clean prices the reliable overlay itself: no
// chaos decorator and DefaultReliableConfig, so neither jitter sleeps nor
// retransmissions are in the op (Lossless above is mostly its 50 µs
// jitter waits).
func BenchmarkLiveReliable16x8Clean(b *testing.B) {
	s := benchSession(b, 16, 8)
	cfg := DefaultReliableConfig()
	cfg.Live.Timeout = time.Minute
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunReliable(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLiveUDP is the socket rung of the reliable pair: the same
// 17-host session, but every tree edge is a loopback UDP socket and the
// chaos decorator (when armed) drops real datagrams. Each iteration
// provisions a fresh fabric — port binding and goroutine spin-up are
// part of the price of a networked run, and reusing a lossy fabric
// across runs would leak stale datagrams into the next iteration.
func benchLiveUDP(b *testing.B, dests, packets int, droprate float64) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Skipf("loopback UDP unavailable: %v", err)
	}
	c.Close()
	s := benchSession(b, dests, packets)
	cfg := DefaultReliableConfig()
	cfg.Live.Timeout = time.Minute
	cfg.RTO = 5 * time.Millisecond
	cfg.RTOMax = 40 * time.Millisecond
	cfg.Faults = link.Faults{
		Seed:      9,
		DropRate:  droprate,
		MaxJitter: 50 * time.Microsecond,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw, err := link.NewLoopbackUDP(s.Tree.Nodes(), link.UDPConfig{Session: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Live.Network = nw
		if _, err := RunReliable(s, cfg); err != nil {
			nw.Close()
			b.Fatal(err)
		}
		nw.Close()
	}
}

func BenchmarkLiveUDP16x8Lossless(b *testing.B) { benchLiveUDP(b, 16, 8, 0) }
func BenchmarkLiveUDP16x8Drop1pct(b *testing.B) { benchLiveUDP(b, 16, 8, 0.01) }
