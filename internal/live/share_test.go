package live

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/tree"
)

// wireNet is a link.Network that delivers nothing and only keeps score:
// the order of Attach, Dial and Detach calls, and per dialed wire the
// sequence numbers sent on it. The failDial-th Dial (1-based; 0 = never)
// fails with errNoRoute. Sends park until the test's abort closes when
// block is set, then linger a moment before returning, so a teardown that
// detaches before it has joined its senders is caught in the act.
type wireNet struct {
	mu        sync.Mutex
	calls     []string // "attach 3", "dial 0->3", "detach 3"
	wires     []*wire  // every dialed wire, in dial order
	failDial  int
	block     bool
	onDetach  func()        // runs inside every Detach
	sent      chan struct{} // one token per recorded send
	returning atomic.Int32  // blocked Sends that have returned
}

var errNoRoute = errors.New("no route")

type wire struct {
	net      *wireNet
	from, to int
	seqs     []int
}

func newWireNet() *wireNet { return &wireNet{sent: make(chan struct{}, 1024)} }

func (n *wireNet) note(format string, args ...any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.calls = append(n.calls, fmt.Sprintf(format, args...))
}

func (n *wireNet) Attach(host int, in *link.Inbox) error { n.note("attach %d", host); return nil }

func (n *wireNet) Detach(host int) {
	if n.onDetach != nil {
		n.onDetach()
	}
	n.note("detach %d", host)
}

func (n *wireNet) Dial(from, to int) (link.Transport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.calls = append(n.calls, fmt.Sprintf("dial %d->%d", from, to))
	if len(n.wires)+1 == n.failDial {
		n.failDial = -1
		return nil, errNoRoute
	}
	w := &wire{net: n, from: from, to: to}
	n.wires = append(n.wires, w)
	return w, nil
}

func (w *wire) From() int { return w.from }
func (w *wire) To() int   { return w.to }
func (w *wire) Send(pkt []byte, abort <-chan struct{}) error {
	h, _ := message.DecodeHeader(pkt)
	w.net.mu.Lock()
	w.seqs = append(w.seqs, int(h.Seq))
	w.net.mu.Unlock()
	w.net.sent <- struct{}{}
	if w.net.block {
		<-abort
		time.Sleep(5 * time.Millisecond)
		w.net.returning.Add(1)
		return link.ErrAborted
	}
	return nil
}

// sentOn returns what the i-th dialed wire carried so far.
func (n *wireNet) sentOn(i int) []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]int(nil), n.wires[i].seqs...)
}

// count returns how many recorded calls start with prefix.
func (n *wireNet) count(prefix string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for _, s := range n.calls {
		if strings.HasPrefix(s, prefix) {
			c++
		}
	}
	return c
}

// await takes k send tokens, failing the test if they do not come.
func (n *wireNet) await(t *testing.T, k int) {
	t.Helper()
	for ; k > 0; k-- {
		select {
		case <-n.sent:
		case <-time.After(5 * time.Second):
			t.Fatalf("still waiting for %d sends", k)
		}
	}
}

// shareTree is 0 -> {5, 2, 9}, 2 -> {7, 3}: children listed out of
// ascending order on purpose.
func shareTree() *tree.Tree {
	tr := tree.New(0)
	for _, e := range [][2]int{{0, 5}, {0, 2}, {0, 9}, {2, 7}, {2, 3}} {
		tr.AddChild(e[0], e[1])
	}
	return tr
}

// testShare builds a share of shareTree's hosts 0 and 2 over nw (every
// host when nw is nil) with a long RTO, so that nothing is retransmitted
// unless a test says so.
func testShare(t *testing.T, nw *wireNet, pkts [][]byte) *ReliableShare {
	t.Helper()
	tr, hosts, cfg := shareTree(), []int{2, 0}, Config{}
	if nw != nil {
		cfg.Network = nw
	} else {
		hosts = tr.Nodes()
	}
	plane, err := NewShare(hosts, 4*len(pkts)+16, DefaultQuantum, cfg)
	if err != nil {
		t.Fatalf("NewShare: %v", err)
	}
	s, err := plane.AddReliable(ReliableShareConfig{
		Tree:  tr,
		MsgID: 3,
		Edge:  EdgeSenderConfig{Packets: pkts, RTO: time.Minute, RTOMax: time.Minute, RetryBudget: 3},
	})
	if err != nil {
		t.Fatalf("AddReliable: %v", err)
	}
	return s
}

func TestReliableShare(t *testing.T) {
	pkts := mustPacketize(t, 3, 0, payloadBytes(200))
	m := len(pkts)
	if m < 3 {
		t.Fatalf("want >= 3 packets, got %d", m)
	}
	all := make([]int, m)
	for j := range all {
		all[j] = j
	}

	t.Run("attach, then dial ascending by child; the root's edges carry the message in order", func(t *testing.T) {
		nw := newWireNet()
		s := testShare(t, nw, pkts)
		want := []string{"attach", "attach", "dial 0->2", "dial 2->3", "dial 0->5", "dial 2->7", "dial 0->9"}
		nw.mu.Lock()
		got := append([]string(nil), nw.calls...)
		nw.mu.Unlock()
		for i := range got[:2] {
			got[i] = strings.Fields(got[i])[0] // the two attaches come in map order
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fabric calls %q, want %q", got, want)
		}
		for parent, wantKids := range map[int][]int{0: {2, 5, 9}, 2: {3, 7}} {
			var kids []int
			for _, e := range s.NI(parent).children {
				kids = append(kids, e.To())
			}
			if !reflect.DeepEqual(kids, wantKids) {
				t.Fatalf("host %d seeds its children in order %v, want %v", parent, kids, wantKids)
			}
		}
		s.Start()
		nw.await(t, 3*m) // the root holds everything; host 2 holds nothing yet
		s.Stop()
		for i, w := range nw.wires {
			want := all
			if w.from == 2 {
				want = nil
			}
			if got := nw.sentOn(i); !reflect.DeepEqual(got, want) {
				t.Fatalf("edge %d->%d carried %v, want %v", w.from, w.to, got, want)
			}
		}
	})

	t.Run("install replays what the parent holds and takes over the ACK route; retire is idempotent; totals keep the cancelled", func(t *testing.T) {
		nw := newWireNet()
		s := testShare(t, nw, pkts)
		inbox2 := s.Share.nis[2].inbox
		s.Start()
		nw.await(t, 3*m)
		// Host 2 receives packets 0 and 2 and forwards each to 3 and 7.
		feed := link.New(0, inbox2, 0)
		for _, j := range []int{0, 2} {
			if err := feed.Send(pkts[j], s.Aborted()); err != nil {
				t.Fatal(err)
			}
		}
		nw.await(t, 4)
		old := s.Route(7, 2)
		if old == nil || s.Route(7, 0) != nil || s.Route(4, 2) != nil {
			t.Fatalf("routes: 7<-2 %v, 7<-0 %v, 4<-2 %v; want an edge, nil, nil", old, s.Route(7, 0), s.Route(4, 2))
		}
		s.Retire(2, 7)
		s.Retire(2, 7) // no longer installed: does nothing
		if s.Route(7, 2) != nil {
			t.Fatal("a retired incarnation still takes ACKs")
		}
		s.Install(2, 7)
		nw.await(t, 2)
		fresh := s.Route(7, 2)
		if fresh == nil || fresh == old {
			t.Fatalf("after re-install host 7's ACKs go to %p, the retired incarnation is %p", fresh, old)
		}
		s.Install(2, 7) // a re-sent order
		if s.Route(7, 2) != fresh || nw.count("dial 2->7") != 2 {
			t.Fatalf("installing the installed edge dialed again (%d dials of 2->7)", nw.count("dial 2->7"))
		}
		// Installing 0->7 supersedes 2->7: one parent at a time.
		s.Install(0, 7)
		nw.await(t, m)
		if s.Route(7, 2) != nil || s.Route(7, 0) == nil {
			t.Fatal("installing 0->7 did not take host 7 over from 2->7")
		}
		s.Stop()
		last := len(nw.wires) - 1
		if got := nw.sentOn(last - 1); !reflect.DeepEqual(got, []int{0, 2}) {
			t.Fatalf("the new 2->7 incarnation was replayed %v, want exactly what host 2 holds: [0 2]", got)
		}
		if got := nw.sentOn(last); !reflect.DeepEqual(got, all) {
			t.Fatalf("the 0->7 incarnation was replayed %v, want the whole message", got)
		}
		// 0->{2,5,9} and 0->7 carry m each; 2->3 two, 2->7 two per incarnation.
		sends, retransmits, dups, fenced := s.Totals()
		if sends != 4*m+6 || retransmits != 0 || dups != 0 || fenced != 0 {
			t.Fatalf("totals %d sends, %d retransmits, %d duplicates, %d fenced; want %d, 0, 0, 0", sends, retransmits, dups, fenced, 4*m+6)
		}
		if s.NI(0).Sends != 4*m || s.NI(2).Sends != 6 || s.NI(2).Recvs != 2 || s.NI(2).Host != 2 {
			t.Fatalf("records: host 0 %+v, host 2 %+v; want %d and 6 sends (the cancelled incarnation's two included), 2 recvs", s.NI(0).HostRecord, s.NI(2).HostRecord, 4*m)
		}
	})

	t.Run("the epoch register never lowers", func(t *testing.T) {
		s := testShare(t, nil, pkts)
		s.SetEpoch(4)
		s.SetEpoch(2)
		if s.Epoch() != 4 {
			t.Fatalf("SetEpoch(2) after SetEpoch(4) left the register at %d", s.Epoch())
		}
		s.Stop()
	})

	t.Run("a mid-run dial failure is one exhaustion report and no incarnation", func(t *testing.T) {
		nw := newWireNet()
		nw.failDial = 6 // the five initial edges dial; the regraft does not
		s := testShare(t, nw, pkts)
		s.Start()
		s.Retire(2, 7)
		s.Install(2, 7)
		select {
		case got := <-s.Reports():
			if want := (Report{Kind: ReportExhausted, Host: 2, To: 7}); got != want {
				t.Fatalf("reported %+v, want %+v", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the failed dial was never reported")
		}
		if s.Route(7, 2) != nil || len(s.all) != 5 {
			t.Fatalf("a failed dial left an incarnation behind (route %v, %d incarnations)", s.Route(7, 2), len(s.all))
		}
		s.Stop()
		if got := reports(s); len(got) != 0 {
			t.Fatalf("reports %+v after the one for a failed dial", got)
		}
	})

	t.Run("stop is abort, join, detach", func(t *testing.T) {
		for _, nw := range []*wireNet{nil, newWireNet()} {
			var lingered atomic.Bool
			detachedEarly := false
			if nw != nil {
				nw.block = true
				nw.onDetach = func() {
					if !lingered.Load() || nw.returning.Load() != 3 {
						detachedEarly = true
					}
				}
			}
			s := testShare(t, nw, pkts)
			s.Start()
			if nw != nil {
				nw.await(t, 3) // the root's three senders are parked in Send
			}
			s.Go(func() {
				<-s.Aborted()
				time.Sleep(5 * time.Millisecond)
				lingered.Store(true)
			})
			s.Stop()
			if !lingered.Load() {
				t.Fatalf("network %v: Stop returned before a goroutine it runs had", nw != nil)
			}
			if nw == nil {
				continue
			}
			if detachedEarly {
				t.Fatal("Stop detached while senders and driver goroutines were still running")
			}
			if nw.count("detach") != 2 || nw.count("attach") != 2 {
				t.Fatalf("attached %d hosts, detached %d; want 2 and 2", nw.count("attach"), nw.count("detach"))
			}
		}
	})
}

// TestRunReliableSurfacesDialFailure fails the k-th dial of the fabric a
// reliable run is built from: like every other engine, RunReliable must
// return that error, naming the edge, with every host detached again — not
// start a run that repairs around edges that never existed.
func TestRunReliableSurfacesDialFailure(t *testing.T) {
	tr := shareTree()
	s := Session{Tree: tr, Packets: mustPacketize(t, 3, 0, payloadBytes(200)), MsgID: 3}
	for k, edge := range map[int]string{1: "0->2", 3: "0->5", 5: "0->9"} {
		nw := newWireNet()
		nw.failDial = k
		cfg := fastReliable()
		cfg.Live.Network = nw
		res, err := RunReliable(s, cfg)
		if res != nil || !errors.Is(err, errNoRoute) || !strings.Contains(err.Error(), "live: dial edge "+edge) {
			t.Fatalf("dial %d failed: RunReliable = %v, %v; want the dial error naming edge %s", k, res, err, edge)
		}
		if nw.count("attach") != tr.Size() || nw.count("detach") != tr.Size() {
			t.Fatalf("dial %d failed: %d hosts attached, %d detached, want %d both", k, nw.count("attach"), nw.count("detach"), tr.Size())
		}
	}
}
