package live

import (
	"bytes"
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/live/link"
	"repro/internal/message"
)

// fakeEdge is a link.Transport that only keeps score: every Send is
// appended to a log shared by the session's edges as "to:seq", the
// failAt-th Send on this edge (1-based; 0 = never) returns err, and a
// closed abort returns a wrapped link.ErrAborted. onSend, when set, runs
// inside Send, so a test can look at the sender's state mid-fan-out.
type fakeEdge struct {
	from, to int
	log      *[]string
	sends    int
	failAt   int
	err      error
	onSend   func()
}

func (e *fakeEdge) From() int { return e.from }
func (e *fakeEdge) To() int   { return e.to }
func (e *fakeEdge) Send(pkt []byte, abort <-chan struct{}) error {
	select {
	case <-abort:
		return fmt.Errorf("fake edge %d->%d: %w", e.from, e.to, link.ErrAborted)
	default:
	}
	if e.onSend != nil {
		e.onSend()
	}
	if e.sends++; e.sends == e.failAt {
		return e.err
	}
	h, _ := message.DecodeHeader(pkt)
	*e.log = append(*e.log, fmt.Sprintf("%d:%d", e.to, h.Seq))
	return nil
}

// fakeSession returns host 7's HostSession over fake edges to the given
// children, plus the edges and their shared send log.
func fakeSession(children ...int) (*HostSession, []*fakeEdge, *[]string) {
	log := &[]string{}
	var edges []*fakeEdge
	var links []link.Transport
	for _, c := range children {
		e := &fakeEdge{from: 7, to: c, log: log}
		edges, links = append(edges, e), append(links, e)
	}
	hs := NewHostSession(7, links)
	return &hs, edges, log
}

// serveFrom does what every plain NI does with an admitted packet: decode
// the header once, to find the session, and hand both to Serve.
func serveFrom(hs *HostSession, pkt []byte, from int, abort <-chan struct{}, clock link.Clock) (bool, error) {
	h, err := message.DecodeHeader(pkt)
	if err != nil {
		return false, err
	}
	return hs.Serve(h, pkt, from, abort, clock)
}

func TestHostSession(t *testing.T) {
	data := payloadBytes(200)
	pkts := mustPacketize(t, 5, 0, data) // 64-byte packets: several of them
	if len(pkts) < 3 {
		t.Fatalf("want >= 3 packets, got %d", len(pkts))
	}
	open := make(chan struct{})

	t.Run("forward is packet-major in tree order", func(t *testing.T) {
		hs, _, log := fakeSession(3, 1, 2)
		var want []string
		for j, pkt := range pkts {
			if err := hs.Forward(pkt, open); err != nil {
				t.Fatalf("Forward(%d): %v", j, err)
			}
			// Packet j has reached every child, in the order the tree
			// lists them, before packet j+1 is touched.
			want = append(want, fmt.Sprintf("3:%d", j), fmt.Sprintf("1:%d", j), fmt.Sprintf("2:%d", j))
			if got := strings.Join(*log, " "); got != strings.Join(want, " ") {
				t.Fatalf("after packet %d the edges saw %q, want %q", j, got, strings.Join(want, " "))
			}
		}
		if hs.Sends != 3*len(pkts) || hs.Recvs != 0 || hs.Host != 7 {
			t.Fatalf("record %+v, want Host 7, %d sends, 0 recvs", hs.HostRecord, 3*len(pkts))
		}
	})

	t.Run("a failing child is named and Sends counts the copies that went out", func(t *testing.T) {
		hs, edges, log := fakeSession(3, 1, 2)
		cut := errors.New("wire cut")
		edges[1].failAt, edges[1].err = 2, cut // child 1 dies on its second packet
		if err := hs.Forward(pkts[0], open); err != nil {
			t.Fatalf("Forward(0): %v", err)
		}
		err := hs.Forward(pkts[1], open)
		if !errors.Is(err, cut) || !strings.Contains(err.Error(), "edge 7->1") {
			t.Fatalf("Forward(1) = %v, want the wire cut on edge 7->1", err)
		}
		if errors.Is(err, link.ErrAborted) {
			t.Fatalf("a transport failure reads as an abort: %v", err)
		}
		// 3 copies of packet 0, then packet 1 to child 3 only: child 2,
		// after the dead edge in tree order, is never reached.
		if hs.Sends != 4 || strings.Join(*log, " ") != "3:0 1:0 2:0 3:1" {
			t.Fatalf("Sends = %d, edges saw %q; want 4 and \"3:0 1:0 2:0 3:1\"", hs.Sends, strings.Join(*log, " "))
		}
	})

	t.Run("an abort returns link.ErrAborted itself", func(t *testing.T) {
		hs, _, log := fakeSession(3, 1)
		closed := make(chan struct{})
		close(closed)
		if err := hs.Forward(pkts[0], closed); err != link.ErrAborted {
			t.Fatalf("Forward under a closed abort = %v, want link.ErrAborted unwrapped", err)
		}
		if hs.Sends != 0 || len(*log) != 0 {
			t.Fatalf("aborted forward left Sends = %d, log %q", hs.Sends, *log)
		}
		if done, err := serveFrom(hs, pkts[0], 0, closed, &Share{start: time.Now()}); done || err != link.ErrAborted {
			t.Fatalf("Serve under a closed abort = %v, %v; want false, link.ErrAborted", done, err)
		}
	})

	t.Run("serve forwards before it reassembles and completes once", func(t *testing.T) {
		hs, edges, log := fakeSession(4)
		// What the child's edge sees of its sender while packet j is going
		// out: the arrival already on record, nothing of packet j held yet.
		edges[0].onSend = func() {
			held, _ := hs.reasm.Progress()
			if held != hs.Recvs-1 || len(hs.Arrivals) != hs.Recvs || hs.Data != nil {
				t.Errorf("during forward of arrival %d: %d packets held, %d arrivals, data %v",
					hs.Recvs, held, len(hs.Arrivals), hs.Data != nil)
			}
		}
		clock := &Share{start: time.Now()}
		for j, pkt := range pkts {
			done, err := serveFrom(hs, pkt, 2, open, clock)
			if err != nil {
				t.Fatalf("Serve(%d): %v", j, err)
			}
			if last := j == len(pkts)-1; done != last || (hs.Data != nil) != last || (hs.DoneAt > 0) != last {
				t.Fatalf("after packet %d of %d: done %v, data %v, DoneAt %v", j, len(pkts), done, hs.Data != nil, hs.DoneAt)
			}
		}
		if !bytes.Equal(hs.Data, data) {
			t.Fatalf("reassembled %d bytes, not the payload", len(hs.Data))
		}
		if hs.Recvs != len(pkts) || hs.Sends != len(pkts) || len(*log) != len(pkts) {
			t.Fatalf("record %d recvs / %d sends, edge saw %d; want %d each", hs.Recvs, hs.Sends, len(*log), len(pkts))
		}
		for j, a := range hs.Arrivals {
			if a != (Arrival{Packet: j, From: 2}) {
				t.Fatalf("arrival %d = %+v", j, a)
			}
		}
		// A replayed packet is a protocol error and restamps nothing.
		edges[0].onSend = nil
		doneAt := hs.DoneAt
		if done, err := serveFrom(hs, pkts[0], 2, open, clock); done || err == nil || !strings.Contains(err.Error(), "host 7") {
			t.Fatalf("replayed packet: done %v, err %v; want an error naming host 7", done, err)
		}
		if hs.DoneAt != doneAt || !bytes.Equal(hs.Data, data) {
			t.Fatalf("replayed packet restamped the record")
		}
	})

	t.Run("a damaged packet is forwarded, then rejected here", func(t *testing.T) {
		for name, damage := range map[string]func([]byte) []byte{
			"payload bit":  func(p []byte) []byte { p[len(p)-1] ^= 0x10; return p },
			"epoch bit":    func(p []byte) []byte { p[19] ^= 0x01; return p },
			"missing byte": func(p []byte) []byte { return p[:len(p)-1] },
		} {
			hs, _, log := fakeSession(4)
			bad := damage(append([]byte(nil), pkts[0]...))
			if done, err := serveFrom(hs, bad, 2, open, &Share{start: time.Now()}); done || err == nil || !strings.Contains(err.Error(), "host 7") {
				t.Fatalf("%s: done %v, err %v; want an error naming host 7", name, done, err)
			}
			if held, _ := hs.reasm.Progress(); held != 0 || hs.Sends != 1 || strings.Join(*log, " ") != "4:0" {
				t.Fatalf("%s: %d held, %d sends, child saw %q; want the copy forwarded and nothing held", name, held, hs.Sends, *log)
			}
		}
	})

	t.Run("a packet that could not be forwarded is not delivered", func(t *testing.T) {
		hs, edges, _ := fakeSession(4)
		edges[0].failAt, edges[0].err = 1, errors.New("wire cut")
		if done, err := serveFrom(hs, pkts[0], 2, open, &Share{start: time.Now()}); done || err == nil {
			t.Fatalf("Serve over a dead edge: done %v, err %v", done, err)
		}
		if held, _ := hs.reasm.Progress(); held != 0 || hs.Recvs != 1 || hs.Sends != 0 {
			t.Fatalf("after the failed forward: %d held, %d recvs, %d sends; want 0, 1, 0", held, hs.Recvs, hs.Sends)
		}
	})
}

// flakyNet is a link.Network over in-process links whose failAt-th Send,
// counted across every edge, fails with errWireCut.
type flakyNet struct {
	mu       sync.Mutex
	inboxes  map[int]*link.Inbox
	detached map[int]bool
	sends    int
	failAt   int
	cut      string // the edge that failed, "from->to"
}

var errWireCut = errors.New("wire cut")

func (n *flakyNet) Attach(host int, in *link.Inbox) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inboxes[host] = in
	return nil
}

func (n *flakyNet) Detach(host int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.detached[host] = true
}

func (n *flakyNet) Dial(from, to int) (link.Transport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return flakyEdge{Link: link.New(from, n.inboxes[to], 0), net: n}, nil
}

type flakyEdge struct {
	*link.Link
	net *flakyNet
}

func (e flakyEdge) Send(pkt []byte, abort <-chan struct{}) error {
	e.net.mu.Lock()
	e.net.sends++
	fail := e.net.sends == e.net.failAt
	if fail {
		e.net.cut = fmt.Sprintf("%d->%d", e.From(), e.To())
	}
	e.net.mu.Unlock()
	if fail {
		return errWireCut
	}
	return e.Link.Send(pkt, abort)
}

// TestRunSurfacesTransportFailure cuts the k-th send of a run, wherever it
// falls — at the root's injector or at a forwarding NI — and expects Run
// to return that error, naming the edge, well before the watchdog, with
// every host detached from the network again.
func TestRunSurfacesTransportFailure(t *testing.T) {
	tr := chainTree(3) // 0 -> 1 -> 2
	tr.AddChild(0, 3)  // and 0 -> 3
	pkts := mustPacketize(t, 9, 0, payloadBytes(300))
	total := (tr.Size() - 1) * len(pkts)
	for _, k := range []int{1, 2, total / 2, total} {
		nw := &flakyNet{inboxes: map[int]*link.Inbox{}, detached: map[int]bool{}, failAt: k}
		began := time.Now()
		res, err := Run([]Session{{Tree: tr, Packets: pkts, MsgID: 9}}, Config{Network: nw, Timeout: 20 * time.Second})
		if res != nil || !errors.Is(err, errWireCut) || errors.Is(err, ErrWatchdog) {
			t.Fatalf("send %d cut: Run = %v, %v; want the wire cut, not the watchdog", k, res, err)
		}
		if !strings.Contains(err.Error(), "edge "+nw.cut) {
			t.Fatalf("send %d cut on edge %s, error does not name it: %v", k, nw.cut, err)
		}
		if took := time.Since(began); took > 10*time.Second {
			t.Fatalf("send %d cut: Run took %v to report it", k, took)
		}
		if len(nw.detached) != tr.Size() {
			t.Fatalf("send %d cut: %d of %d hosts detached", k, len(nw.detached), tr.Size())
		}
	}
}

// TestHostSessionCopiesOnce: between the inbox and HostRecord.Data a
// destination copies each payload byte once, into the one buffer that then
// is Data — so serving a message allocates about the message (plus
// per-packet flags and the Arrivals log), not a copy per packet and a
// concatenation on top.
func TestHostSessionCopiesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes inlining and with it escape analysis")
	}
	const packets, chunk = 64, 4096
	pkts, err := message.Packetize(5, 0, payloadBytes(packets*chunk), message.HeaderSize+chunk)
	if err != nil || len(pkts) != packets {
		t.Fatalf("Packetize: %d packets, %v", len(pkts), err)
	}
	open, clock := make(chan struct{}), &Share{start: time.Now()}
	serveAll := func() {
		hs := NewHostSession(7, nil)
		for _, pkt := range pkts {
			if _, err := serveFrom(&hs, pkt, 0, open, clock); err != nil {
				t.Fatal(err)
			}
		}
		if len(hs.Data) != packets*chunk {
			t.Fatalf("delivered %d bytes", len(hs.Data))
		}
	}
	if n := testing.AllocsPerRun(20, serveAll); n > 12 {
		t.Errorf("serving %d packets allocates %v times, want <= 12", packets, n)
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	serveAll()
	goruntime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > packets*chunk*5/4 {
		t.Errorf("serving a %d-byte message allocates %d bytes", packets*chunk, got)
	}
}
