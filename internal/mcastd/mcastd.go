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
// control plane with an acknowledged handshake: a process without the
// root retries a DONE report per local destination (exponential backoff
// + jitter) until the root acknowledges it, and the root retries STOP
// per remote host until acknowledged or the drain deadline passes.
//
// Run drives live's plain data plane (live.Share) — correct on a
// lossless fabric, wedging on loss — and owns only that handshake.
// RunReliable (reliable.go) layers retransmission, duplicate suppression,
// process-level failure detection and Fig.-11 orphan adoption on the same
// fabric: live's reliable data plane in every process, and live's one
// supervisor in the root's.
package mcastd

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/live"
	"repro/internal/live/link"
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
	// (DoneAt is measured from the share's start).
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
// other hosts and sequence numbers. The packets must be the session's
// (live.Session.Validate), as live's engines require of theirs.
func (c *Config) prepare() error {
	if c.Tree == nil || c.Net == nil {
		return fmt.Errorf("mcastd: config needs a tree and a network")
	}
	if len(c.Packets) > ctlFieldMax+1 {
		return &RangeError{What: "packet count", Value: len(c.Packets)}
	}
	for _, v := range c.Tree.Nodes() {
		if v < 0 || v > ctlFieldMax {
			return &RangeError{What: "tree host id", Value: v}
		}
	}
	if err := (live.Session{Tree: c.Tree, Packets: c.Packets, MsgID: c.MsgID}).Validate(); err != nil {
		return fmt.Errorf("mcastd: %w", err)
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

// handshake is one process's side of a plain run's DONE/STOP exchange.
type handshake struct {
	Config
	share    *live.Share
	stopped  chan struct{} // root's STOP observed (or sent)
	stopOnce sync.Once     // STOP is retried, so it may be heard again
	// acked holds a channel per local host, closed by the listener once
	// the root acknowledged the host's DONE.
	acked     map[int]chan struct{}
	doneCh    chan int // DONE reports heard by the root, dropped when full: they are retried
	stopAckCh chan int
}

func (hs *handshake) markStopped() { hs.stopOnce.Do(func() { close(hs.stopped) }) }

// Run executes this process's share of the run and blocks until the
// whole multicast completes (root: every destination reported DONE;
// non-root: every local destination delivered and the root's STOP
// arrived) or the watchdog fires.
func Run(cfg Config) (*Result, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	root := cfg.Tree.Root()
	// An unbounded wire holds the session's m frames, so senders never
	// block on it.
	share, err := live.NewShare(cfg.Local, len(cfg.Packets), live.DefaultQuantum,
		live.Config{BufferPackets: cfg.BufferPackets, Network: cfg.Net})
	if err != nil {
		return nil, fmt.Errorf("mcastd: %w", err)
	}
	e, err := share.Add(live.Session{Tree: cfg.Tree, Packets: cfg.Packets, MsgID: cfg.MsgID}, share.Aborted())
	if err != nil {
		share.Stop()
		return nil, fmt.Errorf("mcastd: %w", err)
	}
	hs := &handshake{
		Config:    cfg,
		share:     share,
		stopped:   make(chan struct{}),
		acked:     map[int]chan struct{}{},
		doneCh:    make(chan int, cfg.Tree.Size()),
		stopAckCh: make(chan int, cfg.Tree.Size()+4),
	}
	for _, v := range cfg.Local {
		hs.acked[v] = make(chan struct{})
	}
	if _, ok := hs.acked[root]; ok {
		share.Inject(e)
	}
	share.Start()
	share.Go(hs.listen)
	got, err := hs.coordinate()
	share.Stop()

	res := &Result{Hosts: map[int]*live.HostRecord{}, Wall: share.Now(), Status: reliable.Failed}
	if err == nil {
		res.Status = reliable.Delivered
	}
	for _, v := range cfg.Local {
		res.Hosts[v] = e.Host(v)
	}
	if _, ok := hs.acked[root]; ok {
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

// listen is the process's ctl listener: a destination watches for STOP
// (acknowledging each one, including repeats) and its own DONE-ACK; the
// root collects DONE reports (acknowledging each) and STOP-ACKs.
func (hs *handshake) listen() {
	root := hs.Tree.Root()
	listenCtl(hs.Config, hs.share.Aborted(), func(to int, f ctlFrame) {
		switch {
		case f.kind == ctlDone && to == root:
			select {
			case hs.doneCh <- f.a:
			default:
			}
			hs.sendCtl(root, f.a, ctlFrame{kind: ctlDoneAck, a: f.a})
		case f.kind == ctlStopAck && to == root:
			select {
			case hs.stopAckCh <- f.a:
			default:
			}
		case f.kind == ctlStop && to != root:
			hs.markStopped()
			hs.ackStop()
		case f.kind == ctlDoneAck && to != root && f.a == to:
			select { // this listener alone closes it
			case <-hs.acked[to]:
			default:
				close(hs.acked[to])
			}
		}
	})
}

// coordinate blocks until this process's exit condition: the root waits
// for every destination then runs the acknowledged STOP exchange; a
// destination-only process waits for its local deliveries, retrying each
// one's DONE at the root, then for the root's STOP. It returns the set of
// destinations whose completion this process saw, even on error.
func (hs *handshake) coordinate() (map[int]bool, error) {
	deadline := time.NewTimer(hs.Timeout)
	defer deadline.Stop()
	root := hs.Tree.Root()
	_, rootLocal := hs.acked[root]
	want := map[int]bool{}
	for _, v := range hs.Tree.Nodes() {
		if _, local := hs.acked[v]; v != root && (local || rootLocal) {
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
		return fmt.Sprintf("%d/%d done, waiting on %v (fabric %+v)", len(got), len(want), missing, hs.Net.Stats())
	}
	for len(got) < len(want) {
		select {
		case d := <-hs.share.Done():
			v := d.Host
			got[v] = true
			rec := d.Entry.Host(v)
			hs.logf("host %d delivered %d bytes at %v", v, len(rec.Data), rec.DoneAt)
			if !rootLocal {
				hs.share.Go(func() { reportDone(hs.Config, v, hs.acked[v], hs.stopped, hs.share.Aborted()) })
			}
		case v := <-hs.doneCh:
			if want[v] && !got[v] {
				got[v] = true
				hs.logf("root heard DONE from remote host %d", v)
			}
		case f := <-hs.share.Failed():
			return got, fmt.Errorf("mcastd: %w", f.Err)
		case <-deadline.C:
			return got, fmt.Errorf("mcastd: watchdog after %v: %s", hs.Timeout, progress())
		}
	}
	if rootLocal {
		// Every destination is accounted for: run the STOP handshake so
		// remote reporters stand down, bounded by the drain deadline so a
		// dead peer cannot stall us.
		stopRemotes(hs.Config, nil, hs.stopAckCh, reliable.Delivered, 0)
		hs.markStopped()
		return got, nil
	}
	// Destination-only process: all local hosts delivered; hold on for
	// the root's STOP so our DONE reports are known to have landed.
	hs.logf("all local hosts delivered; awaiting STOP")
	select {
	case <-hs.stopped:
		return got, nil
	case f := <-hs.share.Failed():
		return got, fmt.Errorf("mcastd: %w", f.Err)
	case <-deadline.C:
		return got, fmt.Errorf("mcastd: delivered everywhere locally but no STOP after %v: %s", hs.Timeout, progress())
	}
}
