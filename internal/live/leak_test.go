package live_test

import (
	"errors"
	"net"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/mcastd"
	"repro/internal/message"
	"repro/internal/sched"
	"repro/internal/tree"
)

// TestAbortedRunLeaksNoGoroutines pins the plain data plane's one teardown,
// abort → join → detach (live.PlainShare.Stop), which ends every run
// whatever its outcome. After each arm the goroutine count has to settle
// back to its baseline: no NI parked forever on a full gate, no injector
// stuck in Send, no ctl listener or network pump left behind. The watchdog
// arm runs 6 sessions over a shared 8-host chain — 8 NI loops plus 6
// injectors, all stalled mid-wire by latency-shaped links when an
// impossibly tight watchdog fires. The clean arms are an in-process
// live.Run, a live.Run over loopback UDP and an all-local mcastd.Run. The
// churn arm joins 200 sessions to one scheduler's share and removes them
// again, the chain's half expiring mid-flight with frames still on the
// wire, before Close. Run under -race (the live-race target), where a
// leaked goroutine that still touches NI state would also surface as a
// report.
func TestAbortedRunLeaksNoGoroutines(t *testing.T) {
	chain := []int{0, 1, 2, 3, 4, 5, 6, 7}
	session := func(t *testing.T, id uint32) live.Session {
		pkts, err := message.Packetize(id, 0, make([]byte, 600), 64)
		if err != nil {
			t.Fatal(err)
		}
		return live.Session{Tree: tree.Linear(chain), Packets: pkts, MsgID: id}
	}
	loopback := func(t *testing.T) *link.UDPNetwork {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Skipf("loopback UDP unavailable: %v", err)
		}
		c.Close()
		nw, err := link.NewLoopbackUDP(chain, link.UDPConfig{Session: 0x1EA4})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"watchdog", func(t *testing.T) {
			var sessions []live.Session
			for id := uint32(1); id <= 6; id++ {
				sessions = append(sessions, session(t, id))
			}
			_, err := live.Run(sessions, live.Config{
				BufferPackets: 1,
				LinkLatency:   50 * time.Millisecond,
				Timeout:       time.Millisecond,
			})
			var we *live.WatchdogError
			if !errors.As(err, &we) {
				t.Fatalf("Run returned %v, want *WatchdogError", err)
			}
		}},
		{"clean", func(t *testing.T) {
			if _, err := live.Run([]live.Session{session(t, 1)}, live.Config{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"clean-udp", func(t *testing.T) {
			nw := loopback(t)
			defer nw.Close()
			if _, err := live.Run([]live.Session{session(t, 1)}, live.Config{Network: nw}); err != nil {
				t.Fatal(err)
			}
		}},
		{"clean-mcastd", func(t *testing.T) {
			nw := loopback(t)
			defer nw.Close()
			s := session(t, 1)
			cfg := mcastd.Config{Tree: s.Tree, Packets: s.Packets, MsgID: s.MsgID, Local: chain, Net: nw}
			if _, err := mcastd.Run(cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"churn-sched", func(t *testing.T) {
			// A hop costs 5ms, so the chain's last host needs at least 35ms
			// and every chain session expires at 20ms; a one-hop session
			// normally completes.
			s, err := sched.New(chain, sched.Config{
				Window:         16,
				QueueDepth:     200,
				LinkLatency:    5 * time.Millisecond,
				SessionTimeout: 20 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			var handles []*sched.Handle
			for id := uint32(1); id <= 200; id++ {
				sess := session(t, id)
				if id%2 == 0 {
					sess.Tree = tree.Linear(chain[:2])
				}
				h, err := s.Submit(sess)
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, h)
			}
			expired := 0
			for _, h := range handles {
				if _, err := h.Wait(); errors.Is(err, sched.ErrSessionTimeout) {
					expired++
				} else if err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			if expired < 100 || expired == 200 {
				t.Fatalf("%d of 200 sessions expired, want the 100 chains and not every session", expired)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := goruntime.NumGoroutine()
			tc.run(t)
			// Frames still sleeping out their latency stamps retire within
			// about one LinkLatency of the abort; poll until the count
			// settles. The +2 slack absorbs unrelated test-framework
			// goroutines coming and going.
			deadline := time.Now().Add(5 * time.Second)
			for {
				goruntime.GC()
				now := goruntime.NumGoroutine()
				if now <= before+2 {
					return
				}
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("run leaked goroutines: %d before, %d after\n%s",
						before, now, buf[:goruntime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
