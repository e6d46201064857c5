package live

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/workload"
)

// edgeRig is one EdgeSender under test whose far end is a bare inbox:
// the test is the receiving NI, reading frames and releasing slots.
type edgeRig struct {
	e     *EdgeSender
	in    *link.Inbox
	abort chan struct{}
	done  chan struct{} // closed when Run returns
}

// bareSession is a session of no share: an edge attached to it stamps its
// epoch, reads its clock and crash schedule (the hosts down, crashed from
// the start for good) and reports its death on its queue, which the test
// reads.
func bareSession(down ...int) *ReliableShare {
	var plan fault.Plan
	for _, h := range down {
		plan.Crashes = append(plan.Crashes, fault.Crash{Host: h})
	}
	faults, err := plan.Arm()
	if err != nil {
		panic(err)
	}
	return &ReliableShare{
		Share: &Share{abort: make(chan struct{}), start: time.Now(), reports: make(chan Report, 8)},
		cfg:   ReliableShareConfig{Faults: faults},
	}
}

// reports drains what the session's queue holds.
func reports(s *ReliableShare) []Report {
	var got []Report
	for {
		select {
		case r := <-s.Reports():
			got = append(got, r)
		default:
			return got
		}
	}
}

// startEdge builds an incarnation of edge 0->1 of session sess (nil: a bare
// edge, of its own session) over an inbox with the given buffer slots (0:
// unbounded) and runs it once the enqueues are in, so they reach it in order.
func startEdge(t *testing.T, cfg EdgeSenderConfig, sess *ReliableShare, slots int, enqueue ...int) *edgeRig {
	t.Helper()
	r := &edgeRig{in: link.NewInbox(1, 64, slots), abort: make(chan struct{}), done: make(chan struct{})}
	if sess != nil {
		r.abort = sess.abort
	}
	cfg.Abort = r.abort
	r.e = NewEdgeSender(link.New(0, r.in, 0), cfg)
	if sess != nil {
		r.e.s = sess
	}
	for _, seq := range enqueue {
		r.e.Enqueue(seq)
	}
	go func() { defer close(r.done); r.e.Run() }()
	return r
}

// recv returns the next frame's header; a bounded inbox's slot stays held.
func (r *edgeRig) recv(t *testing.T) message.Header {
	t.Helper()
	select {
	case f := <-r.in.Wire():
		h, _, err := message.Parse(f.Payload)
		if err != nil {
			t.Fatalf("edge sent a bad frame: %v", err)
		}
		return h
	case <-time.After(5 * time.Second):
		t.Fatal("no frame")
	}
	return message.Header{}
}

// join waits for Run to return, failing the test if it does not.
func (r *edgeRig) join(t *testing.T, why string) {
	t.Helper()
	select {
	case <-r.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("the edge sender did not return %s", why)
	}
}

// stop aborts the run and joins the sender.
func (r *edgeRig) stop(t *testing.T) {
	t.Helper()
	close(r.abort)
	r.join(t, "on abort")
}

func TestEdgeSender(t *testing.T) {
	pkts := mustPacketize(t, 3, 0, payloadBytes(4*(64-message.HeaderSize)))
	if len(pkts) != 4 {
		t.Fatalf("want 4 packets, got %d", len(pkts))
	}
	// No retransmission fires inside a test that waits on this.
	quiet := EdgeSenderConfig{Packets: pkts, RTO: time.Minute, RTOMax: time.Minute, RetryBudget: 3}

	t.Run("an ACK that lands before the first send suppresses it", func(t *testing.T) {
		r := startEdge(t, quiet, nil, 0)
		r.e.Ack(EdgeAck{Seq: 0})
		r.e.Enqueue(0)
		r.e.Enqueue(1)
		if h := r.recv(t); h.Seq != 1 {
			t.Fatalf("first frame carries packet %d, want 1: the ACKed packet 0 went out", h.Seq)
		}
		r.stop(t)
		if r.e.Sends() != 1 || r.e.Fenced() != 0 {
			t.Fatalf("%d sends, %d fenced; want 1, 0", r.e.Sends(), r.e.Fenced())
		}
	})

	t.Run("a stale-epoch ACK is fenced and suppresses nothing", func(t *testing.T) {
		sess := bareSession()
		sess.SetEpoch(2)
		r := startEdge(t, quiet, sess, 0)
		r.e.Ack(EdgeAck{Seq: 0, Epoch: 1})
		r.e.Enqueue(0)
		if h := r.recv(t); h.Seq != 0 || h.Epoch != 2 {
			t.Fatalf("frame carries packet %d at epoch %d, want packet 0 stamped 2", h.Seq, h.Epoch)
		}
		r.stop(t)
		if r.e.Fenced() != 1 || r.e.Sends() != 1 {
			t.Fatalf("%d fenced, %d sends; want 1, 1", r.e.Fenced(), r.e.Sends())
		}
	})

	t.Run("cancel is idempotent and wakes an idle edge before its timer", func(t *testing.T) {
		r := startEdge(t, quiet, nil, 0, 0)
		r.recv(t) // packet 0 is out; the timer is armed a minute ahead
		r.e.Cancel()
		r.e.Cancel()
		r.join(t, "on cancel before its timer")
		r.e.Enqueue(1) // the NI may still feed a retired edge
		close(r.abort)
		select {
		case f := <-r.in.Wire():
			t.Fatalf("a cancelled edge sent %d bytes", len(f.Payload))
		default:
		}
	})

	t.Run("one timer fire retransmits its due packets in ascending order", func(t *testing.T) {
		// One buffer slot: the test paces the sends. It holds packet 3's
		// slot past every RTO, so packet 1's first send returns only after
		// packets 2, 0 and 3 are all due, and the next fire finds the three.
		cfg := quiet
		cfg.RTO, cfg.RTOMax = 100*time.Millisecond, 100*time.Millisecond
		r := startEdge(t, cfg, nil, 1, 2, 0, 3, 1)
		var got []int
		for len(got) < 7 {
			h := r.recv(t)
			got = append(got, int(h.Seq))
			if len(got) == 3 {
				time.Sleep(2 * cfg.RTO)
			}
			r.in.Release()
		}
		r.stop(t)
		if want := []int{2, 0, 3, 1, 0, 2, 3}; !reflect.DeepEqual(got, want) {
			t.Fatalf("frames carried %v, want %v", got, want)
		}
	})

	dead := []Report{{Kind: ReportExhausted, Host: 0, To: 1}}

	t.Run("budget exhaustion reports once; suppressed sends burn budget", func(t *testing.T) {
		for _, down := range []bool{false, true} {
			var crashed []int
			if down {
				crashed = append(crashed, 0)
			}
			sess := bareSession(crashed...)
			cfg := quiet
			cfg.RTO, cfg.RTOMax, cfg.RetryBudget = time.Millisecond, 2*time.Millisecond, 2
			r := startEdge(t, cfg, sess, 0, 0, 1, 2, 3)
			r.join(t, "after exhausting its budget")
			close(r.abort)
			want := 1 + cfg.RetryBudget // the failing packet's every attempt
			if down {
				want = 0
			}
			if got := reports(sess); !reflect.DeepEqual(got, dead) || r.e.Sends() < want || r.e.Retransmits() > len(pkts)*cfg.RetryBudget {
				t.Fatalf("down %v: reports %+v after %d sends (%d retransmissions); want %+v, >= %d sends, <= %d retransmissions",
					down, got, r.e.Sends(), r.e.Retransmits(), dead, want, len(pkts)*cfg.RetryBudget)
			}
		}
	})

	t.Run("a transport failure is one dead-edge report", func(t *testing.T) {
		sess := bareSession()
		cfg := quiet
		cfg.Abort = sess.abort
		e := NewEdgeSender(failingTransport{errors.New("cut")}, cfg)
		e.s = sess
		e.Enqueue(0)
		e.Enqueue(1)
		e.Run()
		if got := reports(sess); !reflect.DeepEqual(got, dead) || e.Sends() != 0 {
			t.Fatalf("reports %+v, %d sends; want %+v, 0", got, e.Sends(), dead)
		}
	})
}

// failingTransport fails every send with err.
type failingTransport struct{ err error }

func (failingTransport) From() int                            { return 0 }
func (failingTransport) To() int                              { return 1 }
func (f failingTransport) Send([]byte, <-chan struct{}) error { return f.err }

// TestBackoffPacesEveryRetry pins the one retry pacer at its three uses:
// an edge at DefaultReliableConfig (edge 0->1 of a live run with fault
// seed 0), the daemon's DONE report (destination 0) and its STOP exchange
// (root 0). The delays were recorded once from the implementations Backoff
// replaced, EdgeSender.rto and the daemon's own backoff pacer, so an edit
// that moves any of them fails here.
func TestBackoffPacesEveryRetry(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		name      string
		base, max time.Duration
		seed      uint64
		want      []time.Duration
	}{
		{"edge", 25 * ms, 200 * ms, 0x9e6c_a61b_60ca_77d5 ^ 1<<20 ^ 2, []time.Duration{
			30151373, 59878854, 118629858, 214153416, 205745732,
			210209110, 228575804, 215704459, 248944829, 202609424}},
		{"done", 25 * ms, 400 * ms, 0xd00e ^ 1<<16, []time.Duration{
			25840331, 51726876, 110202127, 233397013, 468651790,
			496575317, 467137952, 426199664, 469745313, 409350314}},
		{"stop", 20 * ms, 250 * ms, 0x57a9 ^ 1<<16, []time.Duration{
			21945303, 45744288, 98158279, 167142894, 290283729,
			278779251, 290612137, 254463014, 302848264, 252426923}},
	} {
		rng := workload.NewRNG(c.seed)
		for i, want := range c.want {
			if got := Backoff(c.base, c.max, i+1, rng); got != want {
				t.Errorf("%s: attempt %d: Backoff = %d, want %d", c.name, i+1, got, want)
			}
		}
	}
}
