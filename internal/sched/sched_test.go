package sched

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/tree"
)

// chainTree builds root -> root+1 -> ... over consecutive host IDs.
func chainTree(root, n int) *tree.Tree {
	t := tree.New(root)
	for v := root + 1; v < root+n; v++ {
		t.AddChild(v-1, v)
	}
	return t
}

func hostRange(n int) []int {
	hs := make([]int, n)
	for i := range hs {
		hs[i] = i
	}
	return hs
}

func payloadBytes(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 17 + salt*29)
	}
	return b
}

func mustPacketize(t *testing.T, msgID uint32, source int, data []byte) [][]byte {
	t.Helper()
	pkts, err := message.Packetize(msgID, source, data, 64)
	if err != nil {
		t.Fatalf("Packetize: %v", err)
	}
	return pkts
}

func TestSingleSessionByteExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unbounded", Config{}},
		{"1slot", Config{BufferPackets: 1}},
		{"quantum1", Config{Quantum: 1, BufferPackets: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(hostRange(5), tc.cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer s.Close()
			data := payloadBytes(300, 0)
			pkts := mustPacketize(t, 9, 0, data)
			tr := chainTree(0, 5)
			h, err := s.Submit(live.Session{Tree: tr, Packets: pkts, MsgID: 9})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			res, err := h.Wait()
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			m := len(pkts)
			if res.MsgID != 9 {
				t.Fatalf("MsgID = %d, want 9", res.MsgID)
			}
			if res.Latency <= 0 || res.Latency != res.FinishAt-res.StartAt {
				t.Fatalf("latency %v inconsistent with span %v..%v", res.Latency, res.StartAt, res.FinishAt)
			}
			if res.QueueWait < 0 || res.QueueWait != res.StartAt-res.SubmitAt {
				t.Fatalf("queue wait %v inconsistent with %v..%v", res.QueueWait, res.SubmitAt, res.StartAt)
			}
			for _, v := range tr.Nodes() {
				rec := res.Hosts[v]
				if v == tr.Root() {
					if rec.Recvs != 0 || rec.Data != nil {
						t.Fatalf("root record polluted: %+v", rec)
					}
					if rec.Sends != m {
						t.Fatalf("root injected %d copies, want %d", rec.Sends, m)
					}
					continue
				}
				if rec.Recvs != m {
					t.Fatalf("host %d Recvs = %d, want %d", v, rec.Recvs, m)
				}
				if !bytes.Equal(rec.Data, data) {
					t.Fatalf("host %d reassembled %d bytes, want %d", v, len(rec.Data), len(data))
				}
				if rec.DoneAt <= 0 || rec.DoneAt > res.FinishAt {
					t.Fatalf("host %d DoneAt %v outside session finish %v", v, rec.DoneAt, res.FinishAt)
				}
				parent, _ := tr.Parent(v)
				for i, a := range rec.Arrivals {
					if a.Packet != i || a.From != parent {
						t.Fatalf("host %d arrival %d = %+v, want packet %d from %d", v, i, a, i, parent)
					}
				}
			}
			st := s.Stats()
			if st.Completed != 1 || st.Inflight != 0 {
				t.Fatalf("stats after one session: %+v", st)
			}
		})
	}
}

func TestManySessionsWindowed(t *testing.T) {
	// 64 sessions through a window of 8 over 12 shared hosts: all must
	// deliver byte-exact, the in-flight gauge must respect the window,
	// and the fabric must be fully reclaimed afterwards.
	const sessions = 64
	s, err := New(hostRange(12), Config{Window: 8, QueueDepth: sessions, Quantum: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	payloads := make([][]byte, sessions)
	handles := make([]*Handle, sessions)
	for i := 0; i < sessions; i++ {
		payloads[i] = payloadBytes(200+i, i)
		root := i % 12
		tr := tree.New(root)
		prev := root
		for d := 1; d <= 5; d++ {
			v := (root + d) % 12
			tr.AddChild(prev, v)
			prev = v
		}
		pkts := mustPacketize(t, uint32(i+1), root, payloads[i])
		h, err := s.Submit(live.Session{Tree: tr, Packets: pkts, MsgID: uint32(i + 1)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		for v, rec := range res.Hosts {
			if rec.Host != v {
				t.Fatalf("session %d host %d record mislabeled %d", i, v, rec.Host)
			}
			if rec.Data != nil && !bytes.Equal(rec.Data, payloads[i]) {
				t.Fatalf("session %d host %d delivered wrong bytes", i, v)
			}
		}
	}
	st := s.Stats()
	if st.Completed != sessions || st.Inflight != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MaxInflight > 8 {
		t.Fatalf("MaxInflight %d exceeded window 8", st.MaxInflight)
	}
	if st.DroppedFrames != 0 {
		t.Fatalf("healthy run dropped %d frames", st.DroppedFrames)
	}
}

func TestTypedRejections(t *testing.T) {
	if _, err := New(hostRange(3), Config{BufferPackets: -1}); err == nil || !strings.Contains(err.Error(), "sched: negative buffer bound -1") {
		t.Fatalf("New with a negative buffer bound returned %v", err)
	}
	for _, cfg := range []Config{{Window: -5}, {QueueDepth: -1}, {Quantum: -1}, {SessionTimeout: -1}} {
		if _, err := New(hostRange(3), cfg); err == nil || !strings.Contains(err.Error(), "sched: negative") {
			t.Fatalf("New(%+v) returned %v, want a refusal, not a default", cfg, err)
		}
	}
	// Window 1 and a closed gate on every edge keep the first session in
	// flight until the test opens the gate, so every typed rejection is
	// observed with the window full and the queue as the test left it.
	net, open := gatedEverywhere()
	s, err := newOn(hostRange(3), Config{Window: 1, QueueDepth: 1}, net)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	defer open() // Close drains, so the gate must be open by then
	submit := func(id uint32) (*Handle, error) {
		data := payloadBytes(120, int(id))
		return s.Submit(live.Session{Tree: chainTree(0, 3), Packets: mustPacketize(t, id, 0, data), MsgID: id})
	}
	inflight, err := submit(1)
	if err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	// Wait for session 1 to leave the queue for the window, so the
	// queue-depth assertions below are deterministic.
	awaitInflight(t, s, 1)
	// Duplicate of an in-flight session: typed, shared with live.
	if _, err := submit(1); !errors.Is(err, live.ErrDuplicateSession) {
		t.Fatalf("duplicate submit returned %v, want ErrDuplicateSession", err)
	}
	// Fill the queue (depth 1), then overflow it.
	queued, err := submit(2)
	if err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	if _, err := submit(3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit returned %v, want ErrQueueFull", err)
	}
	var se *SessionError
	if _, err := submit(3); !errors.As(err, &se) || se.MsgID != 3 {
		t.Fatalf("overflow submit returned %v, want *SessionError for MsgID 3", err)
	}
	// Unknown host.
	data := payloadBytes(80, 9)
	_, err = s.Submit(live.Session{Tree: chainTree(2, 2), Packets: mustPacketize(t, 9, 2, data), MsgID: 9})
	if !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("out-of-fabric submit returned %v, want ErrUnknownHost", err)
	}
	if st := s.Stats(); st.Inflight != 1 || st.Completed != 0 {
		t.Fatalf("stats with the gate closed: %+v", st)
	}
	// Opened, the gate lets the in-flight session complete and the
	// queued one follow it through the window.
	open()
	if _, err := inflight.Wait(); err != nil {
		t.Fatalf("in-flight session failed: %v", err)
	}
	if _, err := queued.Wait(); err != nil {
		t.Fatalf("queued session failed: %v", err)
	}
	st := s.Stats()
	if st.RejectedDuplicate != 1 || st.RejectedFull != 2 || st.Completed != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// awaitInflight polls until n sessions are in flight.
func awaitInflight(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); s.Stats().Inflight < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d sessions admitted", s.Stats().Inflight, n)
		}
	}
}

// gatedNet is an in-process link.Network whose edges hold their senders
// at the gate that gate returns for them (nil: a plain link). A sender
// waits until its gate closes or its session aborts; no hop is timed, so
// a session stays in flight exactly as long as the test holds it.
type gatedNet struct {
	inboxes map[int]*link.Inbox
	gate    func(from, to int) <-chan struct{}
}

func (n *gatedNet) Attach(host int, in *link.Inbox) error { n.inboxes[host] = in; return nil }
func (n *gatedNet) Detach(int)                            {}
func (n *gatedNet) Dial(from, to int) (link.Transport, error) {
	l := link.New(from, n.inboxes[to], 0)
	if g := n.gate(from, to); g != nil {
		return gatedEdge{l, g}, nil
	}
	return l, nil
}

type gatedEdge struct {
	link.Transport
	gate <-chan struct{}
}

func (e gatedEdge) Send(pkt []byte, abort <-chan struct{}) error {
	select {
	case <-e.gate:
		return e.Transport.Send(pkt, abort)
	case <-abort:
		return link.ErrAborted
	}
}

// gatedEverywhere is a gatedNet with one closed gate on every edge, and
// the function that opens it; calls after the first do nothing.
func gatedEverywhere() (*gatedNet, func()) {
	gate := make(chan struct{})
	net := &gatedNet{inboxes: map[int]*link.Inbox{}, gate: func(int, int) <-chan struct{} { return gate }}
	return net, sync.OnceFunc(func() { close(gate) })
}

// heldNet is an in-process link.Network whose edge 2->3 takes every frame
// and delivers none until the test releases it: host 3 is wedged by
// construction, while every other edge is a plain link.
type heldNet struct {
	inboxes map[int]*link.Inbox
	held    chan []byte
}

func (n *heldNet) Attach(host int, in *link.Inbox) error { n.inboxes[host] = in; return nil }
func (n *heldNet) Detach(int)                            {}
func (n *heldNet) Dial(from, to int) (link.Transport, error) {
	l := link.New(from, n.inboxes[to], 0)
	if from == 2 && to == 3 {
		return heldEdge{l, n.held}, nil
	}
	return l, nil
}

type heldEdge struct {
	link.Transport
	held chan []byte
}

func (e heldEdge) Send(pkt []byte, _ <-chan struct{}) error { e.held <- pkt; return nil }

func TestSessionTimeoutReclaimsFabric(t *testing.T) {
	// A chain 0->1->2->3 whose edge 2->3 holds its frame: hosts 1 and 2
	// complete at once, and host 3 cannot until the test delivers the held
	// frame, after the deadline. The deadline is a second past work that
	// takes microseconds, and no hop is timed, so nothing depends on where
	// it lands. The held frame then arrives for an expired session and is
	// dropped, and a star over the same 1-slot NIs proves the expired
	// session's buffer credits were reclaimed (a leaked slot would wedge
	// the star too).
	net := &heldNet{inboxes: map[int]*link.Inbox{}, held: make(chan []byte, 1)}
	s, err := newOn(hostRange(4), Config{
		Window:         2,
		BufferPackets:  1,
		SessionTimeout: time.Second,
	}, net)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	star := func() *tree.Tree {
		tr := tree.New(0)
		tr.AddChild(0, 1)
		tr.AddChild(0, 2)
		tr.AddChild(0, 3)
		return tr
	}
	data := payloadBytes(40, 1)
	wedged, err := s.Submit(live.Session{Tree: chainTree(0, 4), Packets: mustPacketize(t, 1, 0, data), MsgID: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	_, werr := wedged.Wait()
	if !errors.Is(werr, ErrSessionTimeout) {
		t.Fatalf("wedged session returned %v, want ErrSessionTimeout", werr)
	}
	var se *SessionError
	if !errors.As(werr, &se) || se.MsgID != 1 || se.Dests != 3 {
		t.Fatalf("wedged session error %v lacks session identity/progress", werr)
	}
	// Hosts 1 and 2 completed, host 3 never heard of the message.
	if se.Acked != 2 {
		t.Fatalf("wedged session error counts %d destinations done, want 2", se.Acked)
	}
	// Deliver the held frame late, wait for its drop, then prove the slots
	// are free again.
	if err := link.New(2, net.inboxes[3], 0).Send(<-net.held, nil); err != nil {
		t.Fatalf("late frame: %v", err)
	}
	for deadline := time.Now().Add(time.Minute); s.Stats().DroppedFrames == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("expired session's late frame was never dropped")
		}
	}
	data2 := payloadBytes(40, 2)
	fresh, err := s.Submit(live.Session{Tree: star(), Packets: mustPacketize(t, 2, 0, data2), MsgID: 2})
	if err != nil {
		t.Fatalf("Submit fresh: %v", err)
	}
	res, err := fresh.Wait()
	if err != nil {
		t.Fatalf("fresh session after a timeout failed: %v — buffer slots were not reclaimed", err)
	}
	for _, v := range []int{1, 2, 3} {
		if !bytes.Equal(res.Hosts[v].Data, data2) {
			t.Fatalf("fresh session delivered wrong bytes at host %d", v)
		}
	}
	st := s.Stats()
	if st.TimedOutInflight != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.DroppedFrames == 0 {
		t.Fatal("expired session's late frames were never dropped")
	}
	// MsgID 1 is free again after the failure: reuse must be accepted.
	reuse, err := s.Submit(live.Session{Tree: star(), Packets: mustPacketize(t, 1, 0, data), MsgID: 1})
	if err != nil {
		t.Fatalf("MsgID reuse after failure rejected: %v", err)
	}
	if _, err := reuse.Wait(); err != nil {
		t.Fatalf("reused session failed: %v", err)
	}
}

// TestCorruptSessionFailsTyped damages one packet's body after
// packetization: its header still validates, so Submit admits the session,
// and the destinations' checksums fail. The failure reaches the collector
// on the share's report queue; Wait returns it typed, not as a timeout,
// and the scheduler goes on serving.
func TestCorruptSessionFailsTyped(t *testing.T) {
	s, err := New(hostRange(3), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	bad := mustPacketize(t, 1, 0, payloadBytes(300, 1))
	bad[1][len(bad[1])-1] ^= 0xFF
	h, err := s.Submit(live.Session{Tree: chainTree(0, 3), Packets: bad, MsgID: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var se *SessionError
	if _, err := h.Wait(); !errors.As(err, &se) || se.MsgID != 1 || errors.Is(err, ErrSessionTimeout) ||
		!errors.Is(err, message.ErrCorrupt) {
		t.Fatalf("corrupt session returned %v, want a *SessionError wrapping message.ErrCorrupt", err)
	}
	if st := s.Stats(); st.Failed != 1 || st.TimedOutInflight != 0 {
		t.Fatalf("stats after the failure: %+v", st)
	}
	data := payloadBytes(300, 2)
	good, err := s.Submit(live.Session{Tree: chainTree(0, 3), Packets: mustPacketize(t, 2, 0, data), MsgID: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := good.Wait()
	if err != nil || !bytes.Equal(res.Hosts[2].Data, data) {
		t.Fatalf("the session after a failed one: %v", err)
	}
	if st := s.Stats(); st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	s, err := New(hostRange(4), Config{Window: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var handles []*Handle
	for i := 0; i < 8; i++ {
		data := payloadBytes(100, i)
		h, err := s.Submit(live.Session{Tree: chainTree(0, 4), Packets: mustPacketize(t, uint32(i+1), 0, data), MsgID: uint32(i + 1)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	s.Close()
	// Close drains: every handle must already be settled, successfully.
	for i, h := range handles {
		select {
		case <-h.Done():
		default:
			t.Fatalf("session %d not settled after Close", i)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatalf("session %d failed across Close: %v", i, err)
		}
	}
	data := payloadBytes(50, 99)
	if _, err := s.Submit(live.Session{Tree: chainTree(0, 4), Packets: mustPacketize(t, 99, 0, data), MsgID: 99}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close submit returned %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// ownedGoroutines counts the goroutines, other than the caller's, that run
// code of repro/internal/live or repro/internal/sched, from one dump of
// every stack. Unlike a runtime.NumGoroutine difference it does not count
// the test framework's goroutines, such as the previous test's, which may
// still be exiting when this one starts.
func ownedGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	owned := 0
	// The caller's goroutine is the dump's first.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		for _, frame := range strings.Split(g, "\n") {
			if strings.HasPrefix(frame, "repro/internal/live") || strings.HasPrefix(frame, "repro/internal/sched") {
				owned++
				break
			}
		}
	}
	return owned
}

func TestGoroutinesIndependentOfSessions(t *testing.T) {
	// 32 sessions held in flight on 8 hosts by closed gates: the
	// scheduler runs one NI per host, an admitter and a collector — each
	// root's NI is its sessions' source, so no goroutine is spent on
	// injection.
	const hosts, sessions = 8, 32
	net, open := gatedEverywhere()
	s, err := newOn(hostRange(hosts), Config{}, net)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	defer open()
	for i := 0; i < sessions; i++ {
		root := i % hosts
		tr := tree.New(root)
		for d := 1; d < hosts; d++ {
			tr.AddChild((root+d-1)%hosts, (root+d)%hosts)
		}
		id := uint32(i + 1)
		if _, err := s.Submit(live.Session{Tree: tr, Packets: mustPacketize(t, id, root, payloadBytes(150, i)), MsgID: id}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	awaitInflight(t, s, sessions)
	if got := ownedGoroutines(); got != hosts+2 {
		t.Fatalf("%d goroutines with %d sessions in flight, want %d (one per host, an admitter, a collector)", got, sessions, hosts+2)
	}
}

// TestChurnLeaksNoGoroutines joins 200 sessions to one scheduler's share
// and removes them again. The 100 chains 0->1->...->7 wait at a dead edge
// 2->3, so their 20 ms deadline expires every one of them with frames
// still queued at host 2; the 100 one-hop sessions 0->1 normally
// complete. After Close no goroutine of the scheduler or its share is
// left: none parked on the dead edge, a gate or the report queue.
func TestChurnLeaksNoGoroutines(t *testing.T) {
	net := &gatedNet{inboxes: map[int]*link.Inbox{}, gate: func(from, to int) <-chan struct{} {
		if from == 2 && to == 3 {
			return make(chan struct{}) // never opens
		}
		return nil
	}}
	s, err := newOn(hostRange(8), Config{Window: 16, QueueDepth: 200, SessionTimeout: 20 * time.Millisecond}, net)
	if err != nil {
		t.Fatal(err)
	}
	var handles []*Handle
	for id := uint32(1); id <= 200; id++ {
		tr := chainTree(0, 8)
		if id%2 == 0 {
			tr = chainTree(0, 2)
		}
		h, err := s.Submit(live.Session{Tree: tr, Packets: mustPacketize(t, id, 0, make([]byte, 600)), MsgID: id})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	expired := 0
	for _, h := range handles {
		if _, err := h.Wait(); errors.Is(err, ErrSessionTimeout) {
			expired++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if expired < 100 || expired == 200 {
		t.Fatalf("%d of 200 sessions expired, want the 100 chains and not every session", expired)
	}
	if n := ownedGoroutines(); n != 0 {
		t.Fatalf("%d goroutines of the scheduler left after Close", n)
	}
}

func TestOppositeRootsDegradeToTimeouts(t *testing.T) {
	// Host 0 roots one session and forwards nothing of the other; host 2
	// the reverse; host 1 forwards both, over 1-slot NIs. Each root's NI
	// may block on its own injection while the other session's frames
	// wait for its slot, the credit cycle DESIGN.md's Deadlock paragraph
	// admits: each session must either complete byte-exact or time out,
	// and the NIs must then carry a fresh session.
	s, err := New(hostRange(3), Config{BufferPackets: 1, SessionTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	reverse := tree.New(2)
	reverse.AddChild(2, 1)
	reverse.AddChild(1, 0)
	trees := []*tree.Tree{chainTree(0, 3), reverse}
	payloads := make([][]byte, len(trees))
	handles := make([]*Handle, len(trees))
	for i, tr := range trees {
		id := uint32(i + 1)
		payloads[i] = payloadBytes(1000, i)
		h, err := s.Submit(live.Session{Tree: tr, Packets: mustPacketize(t, id, tr.Root(), payloads[i]), MsgID: id})
		if err != nil {
			t.Fatalf("Submit %d: %v", id, err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := h.Wait()
		if err != nil {
			if !errors.Is(err, ErrSessionTimeout) {
				t.Fatalf("session %d failed with %v, want completion or ErrSessionTimeout", i+1, err)
			}
			continue
		}
		for _, v := range trees[i].Nodes() {
			if v != trees[i].Root() && !bytes.Equal(res.Hosts[v].Data, payloads[i]) {
				t.Fatalf("session %d delivered wrong bytes at host %d", i+1, v)
			}
		}
	}
	data := payloadBytes(400, 7)
	fresh, err := s.Submit(live.Session{Tree: chainTree(0, 3), Packets: mustPacketize(t, 3, 0, data), MsgID: 3})
	if err != nil {
		t.Fatalf("Submit fresh: %v", err)
	}
	res, err := fresh.Wait()
	if err != nil {
		t.Fatalf("fresh session after the cycle failed: %v — buffer slots were not reclaimed", err)
	}
	for _, v := range []int{1, 2} {
		if !bytes.Equal(res.Hosts[v].Data, data) {
			t.Fatalf("fresh session delivered wrong bytes at host %d", v)
		}
	}
}
