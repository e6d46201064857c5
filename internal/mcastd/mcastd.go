// Package mcastd hosts a subset of a multicast tree's network
// interfaces as one OS process. Where the live engine owns every host
// of a run in a single address space, this engine owns only the hosts
// named in Config.Local and reaches the rest through a UDP fabric whose
// peer map the caller provides — the deployment shape of the paper's
// NI-supported multicast: one P³FA-style forwarding loop per local NI,
// packets crossing real sockets between processes.
//
// Every participating process must derive the identical tree, packet
// set and message ID (the daemon binary derives them deterministically
// from shared flags). Completion is coordinated over the fabric's
// control plane with an acknowledged handshake: each destination
// retries a DONE report (exponential backoff + jitter) until the root
// acknowledges it, and the root retries STOP per remote host until
// acknowledged or the drain deadline passes.
//
// Run drives the unreliable engine — correct on a lossless fabric,
// wedging on loss. RunReliable (reliable.go) layers retransmission,
// duplicate suppression, process-level failure detection and Fig.-11
// orphan adoption on the same fabric: live's reliable data plane in every
// process, and live's one supervisor in the root's.
package mcastd

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/tree"
)

// Config describes one process's share of a multicast run.
type Config struct {
	Tree    *tree.Tree // the full tree, identical in every process
	Packets [][]byte   // the packetized message, identical in every process
	MsgID   uint32
	Local   []int // hosts this process runs; must be tree nodes
	Net     *link.UDPNetwork

	// BufferPackets bounds each local NI's buffer slots; 0 means a
	// buffer deep enough that wire senders never block on this host.
	BufferPackets int
	// Timeout is the whole-run watchdog (default 30s).
	Timeout time.Duration
	// Drain bounds the root's graceful shutdown: how long it retries
	// STOP at unacknowledged remote hosts before giving up (default 1s),
	// so a dead peer cannot stall the root's exit.
	Drain time.Duration
	// Log, when non-nil, receives one line per protocol milestone.
	Log io.Writer
}

// Result is a process's view of the run.
type Result struct {
	// Hosts holds a record per local host, the shape live.Run reports
	// (DoneAt is measured from process start).
	Hosts map[int]*live.HostRecord
	Wall  time.Duration
	// Completed is filled only in the root's process: every destination
	// (local and remote) whose DONE the root heard, sorted. It reflects
	// actual progress, so a watchdog or transport error still reports
	// the destinations that made it.
	Completed []int

	// Status is the typed verdict: Delivered on full success,
	// DeliveredPartial when a reliable run lost processes but reached
	// quorum, Failed otherwise.
	Status reliable.Status
	// Epoch is the final membership epoch (reliable runs; 0 unarmed).
	Epoch int
	// Orphaned lists destinations never delivered (root process only).
	Orphaned []int
	// Crashed lists hosts whose process the root confirmed dead
	// (reliable runs, root process only).
	Crashed []int
	// Retransmits, Duplicates and Fenced count the reliable data
	// plane's recovery work across local hosts (0 for Run).
	Retransmits int
	Duplicates  int
	Fenced      int
	// Adoptions counts Fig.-11 re-grafts ordered by the root (reliable
	// runs, root process only).
	Adoptions int
}

func (c *Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, "mcastd: "+format+"\n", args...)
	}
}

// prepare validates what both engines require of a Config and fills the
// timing defaults. Host ids and the packet count must fit the ctl
// plane's 16-bit fields (*RangeError): truncated, they would alias onto
// other hosts and sequence numbers.
func (c *Config) prepare() error {
	if c.Tree == nil || c.Net == nil {
		return fmt.Errorf("mcastd: config needs a tree and a network")
	}
	if len(c.Packets) == 0 {
		return fmt.Errorf("mcastd: no packets to multicast")
	}
	if len(c.Packets) > ctlFieldMax+1 {
		return &RangeError{What: "packet count", Value: len(c.Packets)}
	}
	for _, v := range c.Tree.Nodes() {
		if v < 0 || v > ctlFieldMax {
			return &RangeError{What: "tree host id", Value: v}
		}
	}
	if len(c.Local) == 0 {
		return fmt.Errorf("mcastd: no local hosts")
	}
	seen := map[int]bool{}
	for _, v := range c.Local {
		if !c.Tree.Contains(v) {
			return fmt.Errorf("mcastd: local host %d is not in the tree", v)
		}
		if seen[v] {
			return fmt.Errorf("mcastd: local host %d listed twice", v)
		}
		seen[v] = true
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Drain <= 0 {
		c.Drain = defaultDrain
	}
	return nil
}

// ackStop acknowledges the root's STOP for every local host, not just
// the one that heard it: the root tracks STOP-ACKs per host, so one
// delivered STOP settles the whole process even when copies aimed at
// sibling hosts are lost.
func (c *Config) ackStop() {
	for _, v := range c.Local {
		c.sendCtl(v, c.Tree.Root(), ctlFrame{kind: ctlStopAck, a: v})
	}
}

// host is one local NI and its share of the session: the FPFS step every
// plain engine shares, plus the daemon's half of the DONE handshake.
type host struct {
	live.HostSession
	inbox   *link.Inbox
	doneAck chan struct{} // root acknowledged this host's DONE
	ackOnce sync.Once
}

func (h *host) markDoneAck() { h.ackOnce.Do(func() { close(h.doneAck) }) }

// Run executes this process's share of the run and blocks until the
// whole multicast completes (root: every destination reported DONE;
// non-root: every local destination delivered and the root's STOP
// arrived) or the watchdog fires.
func Run(cfg Config) (*Result, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	root := cfg.Tree.Root()
	m := len(cfg.Packets)
	start := time.Now()

	inboxes := map[int]*link.Inbox{}
	for _, v := range cfg.Local {
		capacity := m
		if cfg.BufferPackets > 0 {
			capacity = cfg.BufferPackets
		}
		inboxes[v] = link.NewInbox(v, capacity, cfg.BufferPackets)
	}
	// Attach everything before dialing anything (link.AttachAll).
	detachAll, err := link.AttachAll(cfg.Net, inboxes)
	if err != nil {
		return nil, fmt.Errorf("mcastd: %w", err)
	}
	hosts := map[int]*host{}
	for _, v := range cfg.Local {
		var links []link.Transport
		for _, c := range cfg.Tree.Children(v) {
			t, err := cfg.Net.Dial(v, c)
			if err != nil {
				detachAll()
				return nil, fmt.Errorf("mcastd: dial edge %d->%d: %w", v, c, err)
			}
			links = append(links, t)
		}
		hosts[v] = &host{HostSession: live.NewHostSession(v, links), inbox: inboxes[v], doneAck: make(chan struct{})}
	}

	abort := make(chan struct{})   // watchdog / fatal error
	stopped := make(chan struct{}) // root's STOP observed (or sent)
	var stopOnce sync.Once         // several local listeners may hear STOP
	markStopped := func() { stopOnce.Do(func() { close(stopped) }) }
	// Completions, local (blocking sends, one per local host) and remote
	// (DONE reports, dropped when full: they are retried).
	doneCh := make(chan int, cfg.Tree.Size())
	failCh := make(chan error, len(hosts)+1)
	// fail reports a forwarding or protocol error to the coordinator. An
	// abort is not one: the run is already being torn down.
	fail := func(err error) {
		if errors.Is(err, link.ErrAborted) {
			return
		}
		select {
		case failCh <- err:
		default:
		}
	}
	stopAckCh := make(chan int, cfg.Tree.Size()+4)
	var wg sync.WaitGroup

	// Forwarding loops: each non-root local host is a serial NI server —
	// admit, forward to children (FPFS), reassemble, release.
	for _, h := range hosts {
		if h.Host == root {
			continue
		}
		wg.Add(1)
		go func(h *host) {
			defer wg.Done()
			if err := serve(h, cfg, m, start, abort, stopped, doneCh); err != nil {
				fail(err)
			}
		}(h)
	}

	// Control listeners: destinations watch for STOP (acknowledging each
	// one, including repeats) and their own DONE-ACK; the root collects
	// DONE reports (acknowledging each) and STOP-ACKs.
	for _, h := range hosts {
		wg.Add(1)
		go func(h *host) {
			defer wg.Done()
			listenCtl(cfg, h.Host, abort, func(f ctlFrame) {
				switch {
				case f.kind == ctlDone && h.Host == root:
					// Non-blocking: DONE is retried, so a full queue
					// loses nothing and the listener can never stall.
					select {
					case doneCh <- f.a:
					default:
					}
					cfg.sendCtl(root, f.a, ctlFrame{kind: ctlDoneAck, a: f.a})
				case f.kind == ctlStopAck && h.Host == root:
					select {
					case stopAckCh <- f.a:
					default:
					}
				case f.kind == ctlStop && h.Host != root:
					markStopped()
					cfg.ackStop()
				case f.kind == ctlDoneAck && h.Host != root && f.a == h.Host:
					h.markDoneAck()
				}
			})
		}(h)
	}

	// The injector: if the root is local, feed the tree packet-major.
	if h, ok := hosts[root]; ok {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, pkt := range cfg.Packets {
				if err := h.Forward(pkt, abort); err != nil {
					fail(fmt.Errorf("mcastd: %w", err))
					return
				}
			}
			cfg.logf("root %d injected %d packets", root, m)
		}()
	}

	got, err := coordinate(cfg, hosts, root, stopped, markStopped, doneCh, stopAckCh, failCh)

	close(abort)
	detachAll()
	wg.Wait()
	for _, h := range hosts {
		h.inbox.Close()
	}

	res := &Result{Hosts: map[int]*live.HostRecord{}, Wall: time.Since(start), Status: reliable.Failed}
	if err == nil {
		res.Status = reliable.Delivered
	}
	for v, h := range hosts {
		res.Hosts[v] = &h.HostRecord
	}
	if _, ok := hosts[root]; ok {
		// Actual progress: a watchdog or transport error still reports
		// the destinations that made it.
		for _, v := range cfg.Tree.Nodes() {
			switch {
			case v == root:
			case got[v]:
				res.Completed = append(res.Completed, v)
			default:
				res.Orphaned = append(res.Orphaned, v)
			}
		}
	}
	return res, err
}

// serve is the P³FA loop of one local destination NI: every admitted
// packet is forwarded to the children before local reassembly
// (HostSession.Serve), and the buffer slot is held for the packet's full
// service residency. After the message completes it retries DONE at the
// root with exponential backoff until acknowledged (or the run stops).
func serve(h *host, cfg Config, m int, start time.Time,
	abort, stopped <-chan struct{}, doneCh chan<- int) error {

	for h.Recvs < m {
		f, ok := h.inbox.Recv(abort)
		if !ok {
			return nil // aborted
		}
		hd, err := message.DecodeHeader(f.Payload)
		if err != nil {
			return fmt.Errorf("mcastd: host %d: undecodable packet from %d: %v", h.Host, f.From, err)
		}
		if hd.MsgID != cfg.MsgID {
			return fmt.Errorf("mcastd: host %d: packet for unknown message %d", h.Host, hd.MsgID)
		}
		done, err := h.Serve(hd, f.Payload, f.From, abort, start)
		if err != nil {
			return fmt.Errorf("mcastd: %w", err)
		}
		h.inbox.Release()
		if done {
			cfg.logf("host %d delivered %d bytes at %v", h.Host, len(h.Data), h.DoneAt)
			select {
			case doneCh <- h.Host:
			case <-abort:
				return nil
			}
		}
	}
	reportDone(cfg, h.Host, h.doneAck, stopped, abort)
	return nil
}

// coordinate blocks until this process's exit condition: the root waits
// for every destination then runs the acknowledged STOP exchange; a
// destination-only process waits for its local deliveries plus the
// root's STOP. It returns the set of destinations whose DONE this
// process heard, even on error.
func coordinate(cfg Config, hosts map[int]*host, root int,
	stopped chan struct{}, markStopped func(), doneCh, stopAckCh <-chan int,
	failCh <-chan error) (map[int]bool, error) {

	deadline := time.NewTimer(cfg.Timeout)
	defer deadline.Stop()
	_, rootLocal := hosts[root]
	want := map[int]bool{}
	for _, v := range cfg.Tree.Nodes() {
		if v == root {
			continue
		}
		if _, local := hosts[v]; local || rootLocal {
			want[v] = true
		}
	}
	got := map[int]bool{}
	progress := func() string {
		missing := make([]int, 0, len(want))
		for v := range want {
			if !got[v] {
				missing = append(missing, v)
			}
		}
		sort.Ints(missing)
		return fmt.Sprintf("%d/%d done, waiting on %v (fabric %+v)", len(got), len(want), missing, cfg.Net.Stats())
	}
	for len(got) < len(want) {
		select {
		case v := <-doneCh:
			if want[v] && !got[v] {
				got[v] = true
				if hosts[v] == nil {
					cfg.logf("root heard DONE from remote host %d", v)
				}
			}
		case err := <-failCh:
			return got, err
		case <-deadline.C:
			return got, fmt.Errorf("mcastd: watchdog after %v: %s", cfg.Timeout, progress())
		}
	}
	if rootLocal {
		// Every destination is accounted for: run the STOP handshake so
		// remote reporters stand down, bounded by the drain deadline so a
		// dead peer cannot stall us.
		stopRemotes(cfg, nil, stopAckCh, reliable.Delivered, 0)
		markStopped()
		return got, nil
	}
	// Destination-only process: all local hosts delivered; hold on for
	// the root's STOP so our DONE reports are known to have landed.
	cfg.logf("all local hosts delivered; awaiting STOP")
	select {
	case <-stopped:
		return got, nil
	case err := <-failCh:
		return got, err
	case <-deadline.C:
		return got, fmt.Errorf("mcastd: delivered everywhere locally but no STOP after %v: %s", cfg.Timeout, progress())
	}
}
