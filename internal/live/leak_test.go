package live_test

import (
	"errors"
	"net"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/mcastd"
	"repro/internal/message"
	"repro/internal/tree"
)

// TestAbortedRunLeaksNoGoroutines pins the data plane's one teardown,
// abort → join → detach (live.Share.Stop), which ends every run whatever
// its outcome. After each arm the goroutine count has to settle back to
// its baseline: no NI parked forever on a full gate, no injector or edge
// sender stuck in Send, no ctl listener or network pump left behind. The
// watchdog arm runs 6 sessions over a shared 8-host chain of 1-slot NIs
// whose edge 3->4 never takes a frame, so host 3's NI is parked in Send
// and hosts 0-2 on full gates when the watchdog fires. The clean arms are
// an in-process live.Run, a live.Run over loopback UDP and an all-local
// mcastd.Run. The reliable arms are live.RunReliable at 1% loss with one
// host crashing and recovering mid-message (reliable-crash), and an
// all-local mcastd.RunReliable over loopback UDP (reliable-mcastd). The
// scheduler's churn is internal/sched's TestChurnLeaksNoGoroutines.
// Run under -race (the live-race target), where a leaked goroutine that
// still touches NI state would also surface as a report.
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
				Timeout:       time.Millisecond,
				Network:       &cutNet{inboxes: map[int]*link.Inbox{}},
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
		{"reliable-crash", func(t *testing.T) {
			cfg := live.DefaultReliableConfig()
			cfg.Quorum = 1
			// Jitter keeps the message in flight across the crash window.
			cfg.Faults = link.Faults{Seed: 3, DropRate: 0.01, MaxJitter: time.Millisecond}
			cfg.Faults.Crashes = []fault.Crash{{Host: 3, At: 2000, RecoverAt: 30_000}}
			if _, err := live.RunReliable(session(t, 1), cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"reliable-mcastd", func(t *testing.T) {
			nw := loopback(t)
			defer nw.Close()
			s := session(t, 1)
			cfg := mcastd.Config{Tree: s.Tree, Packets: s.Packets, MsgID: s.MsgID, Local: chain, Net: nw}
			if _, err := mcastd.RunReliable(cfg, mcastd.DefaultReliableConfig()); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := goruntime.NumGoroutine()
			tc.run(t)
			// The sockets' receive pumps may still be unwinding; poll
			// until the count settles. The +2 slack absorbs unrelated
			// test-framework goroutines coming and going.
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

// cutNet is an in-process link.Network whose edge 3->4 never takes a
// frame: its sender parks until the run aborts.
type cutNet struct{ inboxes map[int]*link.Inbox }

func (n *cutNet) Attach(host int, in *link.Inbox) error { n.inboxes[host] = in; return nil }
func (n *cutNet) Detach(int)                            {}
func (n *cutNet) Dial(from, to int) (link.Transport, error) {
	l := link.New(from, n.inboxes[to], 0)
	if from == 3 && to == 4 {
		return cutEdge{l}, nil
	}
	return l, nil
}

type cutEdge struct{ link.Transport }

func (cutEdge) Send(_ []byte, abort <-chan struct{}) error { <-abort; return link.ErrAborted }
