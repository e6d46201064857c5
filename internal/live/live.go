// Package live executes multicasts for real: each participating host's
// network interface is a goroutine running the paper's FPFS discipline —
// forward every packet to every child the moment it arrives — over
// channel-based links, with an optional bound on each NI's packet buffer
// enforcing sender-side backpressure (admission reservation). Packets are
// the wire format of internal/message; trees are the Fig.-11 k-binomial
// plans of internal/core; destinations reassemble, verify, and
// acknowledge, and the runtime reports per-host delivery order,
// send/receive counts, and wall-clock latency.
//
// Where the simulators (sim, stepsim, flitsim) price a multicast on a
// virtual clock, this package is a second execution backend on the real
// one. The two are differentially checked: internal/check's
// live-matches-sim invariant asserts that the live runtime's delivery
// order and send/receive counts reproduce the step schedule's structure
// exactly (see DESIGN.md §11 for what that does and does not say about
// timing).
//
// Sessions multiplex over shared NIs: one loop per host serves, by
// deficit round robin, every session registered there and every session
// it is the root of (the P³FA-style unified engine; the paper's root NI
// makes every copy). With bounded buffers, overlapping sessions can form
// store-and-forward credit cycles and deadlock — a root's NI blocked on
// its own injection is one link of such a cycle when it also forwards —
// while single trees cannot (every blocked-send chain ends at a draining
// leaf), so the runtime wraps every run in a watchdog that aborts cleanly
// instead of hanging.
//
// Every engine runs on one data plane, a Share (ni.go): Run, mcastd.Run
// and the session scheduler (internal/sched) join plain sessions to it,
// RunReliable (reliable.go) and mcastd.RunReliable a reliable one
// (AddReliable, share.go), served by the same NI loops and repaired by one
// Supervisor.
package live

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Config tunes one runtime run.
type Config struct {
	// BufferPackets bounds the packets an NI may hold (in its inbox and in
	// service) across all sessions; senders block while a target NI is
	// full. Zero means unbounded. This is the repo's one NI buffer bound:
	// the simulators measure buffer residency but bound nothing.
	BufferPackets int
	// LinkLatency is the one-way delivery delay shaped onto every link
	// (0 = unshaped; the differential bridge runs unshaped).
	LinkLatency time.Duration
	// Record enables trace-event capture (wall-clock microseconds since
	// run start, rendered by internal/trace like simulator traces).
	Record bool
	// Timeout arms the watchdog; on expiry the run aborts and reports the
	// destinations still missing. Zero selects DefaultTimeout.
	Timeout time.Duration
	// Network, when non-nil, provisions every tree edge from a real
	// fabric (e.g. a loopback link.UDPNetwork) instead of in-process
	// channels: each tree node's inbox is Attached before the run and
	// every edge is Dialed. LinkLatency shaping does not apply — real
	// links carry real latency. The runtime Detaches every host at
	// teardown but never closes the network; the caller owns it. Plain
	// Run assumes lossless ordered delivery, which loopback UDP provides
	// in practice; on a wire that can drop, use RunReliable.
	Network link.Network
}

// DefaultTimeout is the watchdog bound when Config.Timeout is zero.
const DefaultTimeout = 30 * time.Second

// Session is one multicast operation: a planned tree over host IDs and
// the message's wire-format packets (message.Packetize output).
type Session struct {
	Tree    *tree.Tree
	Packets [][]byte
	// MsgID keys the session at shared NIs; it must match the packets'
	// headers and be unique within one Run.
	MsgID uint32
}

// Validate rejects a malformed session: a tree too small to multicast
// over, no packets, or packets whose headers disagree with the session.
// Run applies it to every session before any goroutine starts; the
// session scheduler (internal/sched) applies it at submission.
func (s Session) Validate() error {
	if s.Tree == nil || s.Tree.Size() < 2 {
		return fmt.Errorf("tree needs >= 2 nodes")
	}
	if len(s.Packets) == 0 {
		return fmt.Errorf("no packets")
	}
	if len(s.Packets) > 0xFFFF {
		return fmt.Errorf("%d packets exceed sequence space", len(s.Packets))
	}
	for j, pkt := range s.Packets {
		h, err := message.DecodeHeader(pkt)
		if err != nil {
			return fmt.Errorf("packet %d: %w", j, err)
		}
		if h.MsgID != s.MsgID {
			return fmt.Errorf("packet %d: header msgID %d != session msgID %d",
				j, h.MsgID, s.MsgID)
		}
		if int(h.Seq) != j || int(h.Total) != len(s.Packets) {
			return fmt.Errorf("packet %d: header seq %d/%d out of order",
				j, h.Seq, h.Total)
		}
	}
	return nil
}

// validate wraps Validate with the session's index in the run.
func (s Session) validate(i int) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("live: session %d: %w", i, err)
	}
	return nil
}

// Arrival is one packet admission at an NI, in admission order.
type Arrival struct {
	Packet int // 0-based packet index
	From   int // sending host — the tree edge used
}

// HostRecord is one host's view of one session.
type HostRecord struct {
	Host int
	// Arrivals is the packet admission sequence (empty for the root).
	Arrivals []Arrival
	// Sends and Recvs count packet copies injected and admitted by this
	// host for this session.
	Sends, Recvs int
	// Data is the reassembled, checksum-verified message (nil for the
	// root, which owns the original).
	Data []byte
	// DoneAt is the wall-clock completion instant (last packet served and
	// the completion ACK emitted), measured from run start. Zero for the
	// root and for intermediates that are not destinations of the message
	// (every non-root tree node is a destination here).
	DoneAt time.Duration
}

// SessionResult reports one session of a share (Entry.Result): live.Run's
// per-session record, and the one the scheduler's sched.Result embeds.
type SessionResult struct {
	MsgID uint32
	// StartAt is when the root's NI took the session, just ahead of its
	// first injection, and FinishAt the last destination's completion
	// ACK, both measured from the share's start. Under concurrency they
	// bound this session alone, where Result.Wall spans every session.
	StartAt, FinishAt time.Duration
	// Latency is the session's own duration, FinishAt - StartAt.
	Latency time.Duration
	// Hosts holds a record per tree node the share hosts (every node, for
	// live.Run and the scheduler).
	Hosts map[int]*HostRecord
}

// Result is the outcome of one Run.
type Result struct {
	Sessions []SessionResult
	// Wall is run start to the final ACK across all sessions.
	Wall time.Duration
	// Sends is the total packet copies injected.
	Sends int
	// Events is the wall-clock trace when Config.Record is set, sorted by
	// time: inject/deliver/done records shaped like the simulator's so
	// trace.Timeline and trace.ChromeJSON render both.
	Events []sim.TraceEvent
}

// ErrWatchdog is the sentinel every *WatchdogError unwraps to, so callers
// can classify with errors.Is without holding the concrete type.
var ErrWatchdog = errors.New("live: watchdog timeout")

// DestProgress is one stuck destination's delivery progress at the moment
// the watchdog fired: distinct packets held versus the message total.
type DestProgress struct {
	Host, Received, Expected int
}

// WatchdogError reports a run the watchdog had to abort: the sessions
// and destinations still incomplete when the timeout fired, each with its
// packet-level progress so a stuck run is diagnosable (a destination at
// 0/m never heard from its parent; one at m-1/m lost a single packet). A
// single tree cannot deadlock under FPFS backpressure, so on one session
// this means a genuine runtime bug; with overlapping bounded-buffer
// sessions it may be the documented store-and-forward credit cycle.
type WatchdogError struct {
	Timeout time.Duration
	// Progress is, per session index, the destinations that had not
	// acknowledged, ascending, with their packet counts, snapshotted after
	// teardown (so the counts are race-free and final).
	Progress map[int][]DestProgress
}

func (e *WatchdogError) Error() string {
	var sis []int
	for si := range e.Progress {
		sis = append(sis, si)
	}
	sort.Ints(sis)
	var stuck []string
	for _, si := range sis {
		for _, p := range e.Progress[si] {
			stuck = append(stuck, fmt.Sprintf("s%d h%d %d/%d", si, p.Host, p.Received, p.Expected))
		}
	}
	msg := fmt.Sprintf("live: watchdog after %v: %d destination(s) incomplete", e.Timeout, len(stuck))
	if len(stuck) > 0 {
		msg += " (progress: " + strings.Join(stuck, ", ") + ")"
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrWatchdog) match through wrapping.
func (e *WatchdogError) Unwrap() error { return ErrWatchdog }

// ErrDuplicateSession is the sentinel every *DuplicateSessionError
// unwraps to, so callers can classify rejections with errors.Is.
var ErrDuplicateSession = errors.New("live: duplicate session msgID")

// DuplicateSessionError rejects a run whose sessions reuse a MsgID.
// MsgID is the only session key at shared NIs — two sessions carrying
// the same ID collide in every common host's reassembly and arrival
// state, even when their roots differ — so uniqueness is enforced
// across the whole run, not merely per (root, MsgID) pair.
type DuplicateSessionError struct {
	// MsgID is the reused session key.
	MsgID uint32
	// Index is the offending session's position in the run (the second
	// occurrence), or -1 when the collision is against an already
	// in-flight session rather than a slice entry.
	Index int
	// Root is the offending session's tree root.
	Root int
}

func (e *DuplicateSessionError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("live: duplicate session msgID %d (root %d): already in flight", e.MsgID, e.Root)
	}
	return fmt.Sprintf("live: session %d (root %d): duplicate session msgID %d", e.Index, e.Root, e.MsgID)
}

// Unwrap makes errors.Is(err, ErrDuplicateSession) match through wrapping.
func (e *DuplicateSessionError) Unwrap() error { return ErrDuplicateSession }

// Run executes the sessions concurrently over one Share of every
// tree host and blocks until every destination of every session has
// acknowledged its fully reassembled message, or the watchdog fires.
func Run(sessions []Session, cfg Config) (*Result, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	s, entries, err := joinShare(sessions, DefaultQuantum, cfg, nil)
	if err != nil {
		return nil, err
	}
	totalDests := 0
	for _, e := range entries {
		s.Inject(e)
		totalDests += e.Tree.Size() - 1
	}
	s.Start()

	// Count completions under the watchdog; a failure's report carries its
	// error, a completion's none.
	timer := time.NewTimer(cfg.Timeout)
	defer timer.Stop()
	var runErr error
	timedOut := false
	for n := 0; n < totalDests && runErr == nil && !timedOut; n++ {
		select {
		case r := <-s.Reports():
			runErr = r.Err
		case <-timer.C:
			timedOut = true
		}
	}
	wall := s.Now()
	s.Stop()
	if timedOut {
		return nil, watchdogError(cfg.Timeout, entries)
	}
	for runErr == nil && len(s.reports) > 0 { // a failure that raced the final completion
		runErr = (<-s.reports).Err
	}
	if runErr != nil {
		return nil, runErr
	}
	return assemble(entries, wall, cfg.Record), nil
}

// joinShare validates a run's sessions (unique by MsgID) and joins them to
// one share of every tree host, driven by v (nil: the wall), whose wire
// holds the most frames a host receives: an unbounded one never blocks.
func joinShare(sessions []Session, quantum int, cfg Config, v *virtual) (*Share, []*Entry, error) {
	if len(sessions) == 0 {
		return nil, nil, fmt.Errorf("live: no sessions")
	}
	seen := map[uint32]bool{}
	inbound := map[int]int{} // frames each tree host receives, across sessions
	for i, s := range sessions {
		if err := s.validate(i); err != nil {
			return nil, nil, err
		}
		if seen[s.MsgID] {
			return nil, nil, &DuplicateSessionError{MsgID: s.MsgID, Index: i, Root: s.Tree.Root()}
		}
		seen[s.MsgID] = true
		for _, v := range s.Tree.Nodes() {
			inbound[v] += len(s.Packets)
		}
		inbound[s.Tree.Root()] -= len(s.Packets)
	}
	hosts, wire := make([]int, 0, len(inbound)), 0
	for v, k := range inbound {
		hosts = append(hosts, v)
		wire = max(wire, k)
	}
	s, err := NewShare(hosts, wire, quantum, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("live: %w", err)
	}
	v.attach(s, nil)
	entries := make([]*Entry, len(sessions))
	for i, sess := range sessions {
		if entries[i], err = s.Add(sess, s.Aborted()); err != nil {
			s.Stop()
			return nil, nil, fmt.Errorf("live: %w", err)
		}
	}
	return s, entries, nil
}

// watchdogError snapshots the incomplete destinations at timeout, with
// per-destination packet progress. Callers must only invoke it after Stop:
// the NI state is then quiescent, so a destination whose completion raced
// the timeout counts as complete and the counters in the error are exact.
func watchdogError(timeout time.Duration, entries []*Entry) *WatchdogError {
	e := &WatchdogError{Timeout: timeout, Progress: map[int][]DestProgress{}}
	for si, en := range entries {
		for _, v := range en.Tree.Nodes() { // ascending
			ns := en.hosts[v]
			if v == en.Tree.Root() || ns.reasm.Complete() {
				continue
			}
			held, _ := ns.reasm.Progress()
			e.Progress[si] = append(e.Progress[si], DestProgress{
				Host: v, Received: held, Expected: len(en.Packets),
			})
		}
	}
	return e
}

// assemble folds the per-goroutine records into the public result. The
// host records are handed out by reference, not copied.
func assemble(entries []*Entry, wall time.Duration, record bool) *Result {
	res := &Result{
		Sessions: make([]SessionResult, len(entries)),
		Wall:     wall,
	}
	for si, e := range entries {
		res.Sessions[si] = e.Result()
		for _, v := range e.Tree.Nodes() {
			res.Sends += e.hosts[v].Sends
			res.Events = append(res.Events, e.hosts[v].events...)
		}
	}
	if record {
		sort.SliceStable(res.Events, func(i, j int) bool {
			return res.Events[i].Time < res.Events[j].Time
		})
	}
	return res
}
