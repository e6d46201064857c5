// Package sched schedules massive numbers of concurrent multicast
// sessions onto one persistent live fabric. Where live.Run builds a
// fresh set of NI goroutines per call, a Scheduler owns a fixed host set
// and runs one goroutine per host plus two, independent of session count:
//
//   - Admission control: Submit enqueues a session into a bounded
//     queue; a window semaphore caps the sessions in flight. Overflow
//     is a typed rejection (ErrQueueFull), so producers see backpressure
//     instead of unbounded goroutine and buffer growth.
//   - Per-NI fair queueing: the fabric is a live.Share, whose one
//     NI loop per host serves the sessions registered there, and injects
//     those rooted there, by deficit round robin, so one elephant session
//     cannot starve mice sharing the interface. Sessions join it at
//     admission and leave it when they settle.
//   - Congestion-aware planning: PlanBcast penalizes candidate trees
//     for edges already carried by in-flight sessions (the
//     simultaneous-multicast objective of Haeupler/Hershkowitz/Wajc,
//     see tree.OptimalCongested), falling back to the paper's one-tree
//     Theorem-3 optimum when the fabric is idle.
//
// Overlapping bounded-buffer sessions can form store-and-forward credit
// cycles exactly as under live.Run — a root's NI blocked on its own
// injection can be one link of one; the scheduler's recovery is the
// per-session deadline. Expiring a session cancels its blocked sends
// and turns its queued frames into droppable traffic, which frees the
// buffer slots the cycle was starving on, so the surviving sessions
// make progress again — deadlock is degraded to typed per-session
// timeouts instead of a run-wide abort.
package sched

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/tree"
)

// Typed scheduler failures. All are surfaced wrapped in a *SessionError
// (or, for duplicate submissions, a *live.DuplicateSessionError), so
// errors.Is classifies and the session identity rides along.
var (
	// ErrClosed rejects submissions to a closed scheduler.
	ErrClosed = errors.New("sched: scheduler closed")
	// ErrQueueFull rejects a submission when the bounded queue is full —
	// the producer is outrunning the fabric and must back off.
	ErrQueueFull = errors.New("sched: submission queue full")
	// ErrSessionTimeout fails an admitted session that did not complete
	// within Config.SessionTimeout (e.g. one wedged in a credit cycle).
	ErrSessionTimeout = errors.New("sched: session timed out in flight")
	// ErrUnknownHost rejects a session whose tree names a host outside
	// the scheduler's fabric.
	ErrUnknownHost = errors.New("sched: tree node outside the scheduler's host set")
)

// SessionError is a typed per-session failure.
type SessionError struct {
	MsgID uint32
	// Acked and Dests report delivery progress for in-flight failures:
	// destinations that had completed when the session was failed.
	Acked, Dests int
	Err          error
}

func (e *SessionError) Error() string {
	if e.Dests > 0 {
		return fmt.Sprintf("sched: session %d (%d/%d destinations done): %v", e.MsgID, e.Acked, e.Dests, e.Err)
	}
	return fmt.Sprintf("sched: session %d: %v", e.MsgID, e.Err)
}

func (e *SessionError) Unwrap() error { return e.Err }

// Config tunes a Scheduler. The zero value selects sane defaults; a
// negative value is refused.
type Config struct {
	// Window caps the sessions in flight (admitted, not yet completed).
	// Defaults to 64.
	Window int
	// QueueDepth bounds the submission queue behind the window; Submit
	// returns ErrQueueFull beyond it. Defaults to 4*Window.
	QueueDepth int
	// Quantum is the per-NI deficit-round-robin grant in packets, for
	// forwarded frames and a root's injection alike. Defaults to
	// live.DefaultQuantum.
	Quantum int
	// BufferPackets bounds each NI's packet buffer exactly as in
	// live.Config: senders block while a target NI is full; 0 means
	// unbounded.
	BufferPackets int
	// SessionTimeout bounds an admitted session's time in flight; on
	// expiry it is cancelled with ErrSessionTimeout and its resources
	// (window slot, buffer credits, edge load) are reclaimed. Defaults
	// to live.DefaultTimeout.
	SessionTimeout time.Duration
}

func (cfg Config) withDefaults() (Config, error) {
	if min(cfg.Window, cfg.QueueDepth, cfg.Quantum) < 0 || cfg.SessionTimeout < 0 {
		return cfg, fmt.Errorf("sched: negative setting in %+v", cfg)
	}
	if cfg.Window == 0 {
		cfg.Window = 64
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 4 * cfg.Window
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = live.DefaultQuantum
	}
	if cfg.SessionTimeout == 0 {
		cfg.SessionTimeout = live.DefaultTimeout
	}
	return cfg, nil
}

// Stats is a point-in-time census of a Scheduler.
type Stats struct {
	// Submitted counts sessions accepted into the queue; Completed those
	// that delivered to every destination.
	Submitted, Completed int
	// RejectedFull and RejectedDuplicate count Submit-time rejections.
	RejectedFull, RejectedDuplicate int
	// TimedOutQueue is always zero: a queued session waits for its window
	// slot however long that takes. TimedOutInflight counts sessions
	// cancelled by the session deadline; Failed those aborted by a
	// transport or protocol error.
	TimedOutQueue, TimedOutInflight, Failed int
	// Inflight is the current admitted-session gauge and MaxInflight its
	// high-water mark.
	Inflight, MaxInflight int
	// DroppedFrames counts frames discarded at NIs for unknown or
	// cancelled sessions (late traffic of expired sessions).
	DroppedFrames int64
}

// Result reports one completed session: the share's own record, as
// live.Run reports it (so differential checks compare them directly),
// and the queue it waited in. Every time is an offset from scheduler
// start.
type Result struct {
	live.SessionResult
	// SubmitAt is queue entry; QueueWait = StartAt - SubmitAt runs to the
	// root NI's take, so it includes the hand-off to that NI.
	SubmitAt, QueueWait time.Duration
}

// Handle tracks one submitted session.
type Handle struct {
	sess  live.Session
	dests int

	submitAt time.Duration

	// Admission-time state, written by the admitter before the handle
	// reaches the collector.
	deadline time.Time
	entry    *live.Entry
	edges    []tree.Edge

	// abort cancels the session's blocked sends and makes its frames
	// droppable; the collector closes it when it expires the session.
	abort chan struct{}

	// Collector-owned completion bookkeeping. The share reports each
	// destination's completion once, so a count suffices.
	acked int

	done chan struct{}
	res  *Result
	err  error
}

// Done is closed when the session completes or fails.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks for the session's outcome.
func (h *Handle) Wait() (*Result, error) {
	<-h.done
	return h.res, h.err
}

// Scheduler drives many concurrent multicast sessions over one
// persistent fabric. Methods are safe for concurrent use.
type Scheduler struct {
	cfg   Config
	hosts map[int]bool
	share *live.Share     // runs every goroutine of the scheduler
	abort <-chan struct{} // the share's

	queue    chan *Handle
	admitted chan *Handle
	window   chan struct{}

	mu       sync.Mutex
	idle     sync.Cond // broadcast whenever ids shrinks; Close drains on it
	closed   bool
	queued   int             // submitted, not yet placed/failed — includes one the admitter holds in hand
	ids      map[uint32]bool // queued + in-flight session keys
	edgeLoad map[tree.Edge]int
	stats    Stats
}

// unboundedWire sizes each NI's wire channel when no buffer bound is
// configured: senders may briefly block on a full wire (the NI drains it
// eagerly), which bounds memory without changing delivery semantics.
const unboundedWire = 1024

// New builds a scheduler over the given host set and starts its
// goroutines on one live.Share: the share's NI loop per host, an
// admitter and a collector. The caller must Close it.
func New(hosts []int, cfg Config) (*Scheduler, error) { return newOn(hosts, cfg, nil) }

// newOn is New with every edge dialed from net (nil: in-process links).
func newOn(hosts []int, cfg Config, net link.Network) (*Scheduler, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("sched: empty host set")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:      cfg,
		hosts:    map[int]bool{},
		queue:    make(chan *Handle, cfg.QueueDepth),
		admitted: make(chan *Handle, cfg.Window),
		window:   make(chan struct{}, cfg.Window),
		ids:      map[uint32]bool{},
		edgeLoad: map[tree.Edge]int{},
	}
	s.idle.L = &s.mu
	for _, v := range hosts {
		if v < 0 {
			return nil, fmt.Errorf("sched: negative host ID %d", v)
		}
		if s.hosts[v] {
			return nil, fmt.Errorf("sched: duplicate host %d", v)
		}
		s.hosts[v] = true
	}
	share, err := live.NewShare(hosts, unboundedWire, cfg.Quantum,
		live.Config{BufferPackets: cfg.BufferPackets, Network: net})
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	s.share, s.abort = share, share.Aborted()
	share.Start()
	share.Go(s.admit)
	share.Go(s.collect)
	return s, nil
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.DroppedFrames = s.share.Dropped()
	return st
}

// Submit validates the session and enqueues it for admission. It never
// blocks: a full queue is the typed rejection ErrQueueFull, a reused
// in-flight MsgID a *live.DuplicateSessionError. The returned handle
// reports the outcome.
func (s *Scheduler) Submit(sess live.Session) (*Handle, error) {
	if err := sess.Validate(); err != nil {
		return nil, fmt.Errorf("sched: session %d: %w", sess.MsgID, err)
	}
	for _, v := range sess.Tree.Nodes() {
		if !s.hosts[v] {
			return nil, &SessionError{MsgID: sess.MsgID, Err: fmt.Errorf("%w: host %d", ErrUnknownHost, v)}
		}
	}
	h := &Handle{
		sess:  sess,
		dests: sess.Tree.Size() - 1,
		abort: make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.ids[sess.MsgID] {
		s.stats.RejectedDuplicate++
		s.mu.Unlock()
		return nil, &live.DuplicateSessionError{MsgID: sess.MsgID, Index: -1, Root: sess.Tree.Root()}
	}
	// The occupancy counter, not the channel, is the queue bound: the
	// admitter pulls a handle off the channel before it has a window
	// slot, and that in-hand session still occupies the queue.
	if s.queued >= cap(s.queue) {
		s.stats.RejectedFull++
		s.mu.Unlock()
		return nil, &SessionError{MsgID: sess.MsgID, Err: ErrQueueFull}
	}
	s.ids[sess.MsgID] = true
	s.queued++
	s.stats.Submitted++
	s.mu.Unlock()
	h.submitAt = s.share.Now()
	// Never blocks: channel occupancy <= s.queued <= cap.
	s.queue <- h
	return h, nil
}

// Close stops the scheduler: new submissions are rejected, every queued
// and in-flight session is allowed to finish (wedged ones fail via
// their SessionTimeout deadline), then the fabric's goroutines are torn
// down. Safe to call more than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	for len(s.ids) > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
	if already {
		return
	}
	s.share.Stop()
}

// admit is the admission loop: it pulls queued sessions in FIFO order,
// waits for a window slot and places them onto the fabric.
func (s *Scheduler) admit() {
	for {
		var h *Handle
		select {
		case h = <-s.queue:
		case <-s.abort:
			s.drainQueue()
			return
		}
		select {
		case s.window <- struct{}{}:
		case <-s.abort:
			s.fail(h, ErrClosed)
			s.drainQueue()
			return
		}
		s.place(h)
	}
}

// drainQueue fails every still-queued session at teardown.
func (s *Scheduler) drainQueue() {
	for {
		select {
		case h := <-s.queue:
			s.fail(h, ErrClosed)
		default:
			return
		}
	}
}

// fail rejects a never-admitted session: no fabric state to unwind.
func (s *Scheduler) fail(h *Handle, cause error) {
	s.mu.Lock()
	s.queued--
	delete(s.ids, h.sess.MsgID)
	s.stats.Failed++
	s.idle.Broadcast()
	s.mu.Unlock()
	h.err = &SessionError{MsgID: h.sess.MsgID, Err: cause}
	close(h.done)
}

// place admits one session: join it to the share (which registers it
// at every non-root NI before any packet can arrive), bump the edge
// census, hand it to the collector, then to its root's NI to inject.
func (s *Scheduler) place(h *Handle) {
	e, err := s.share.Add(h.sess, h.abort)
	if err != nil {
		<-s.window
		s.fail(h, err)
		return
	}
	h.entry, h.edges = e, h.sess.Tree.Edges()
	s.mu.Lock()
	s.queued--
	for _, e := range h.edges {
		s.edgeLoad[e]++
	}
	s.stats.Inflight++
	if s.stats.Inflight > s.stats.MaxInflight {
		s.stats.MaxInflight = s.stats.Inflight
	}
	s.mu.Unlock()
	h.deadline = time.Now().Add(s.cfg.SessionTimeout)
	s.admitted <- h // the collector must know the session before any completion
	s.share.Inject(e)
}

// collect is the completion loop: it tracks admitted sessions, reads the
// share's reports — counting destination completions, expiring a session
// on its failure — enforces per-session deadlines and settles every
// handle exactly once. The timer holds the earliest deadline (next);
// every session waits the same SessionTimeout, so only an admission to an
// idle timer moves it, and the pending deadlines are scanned only when it
// fires — no event costs O(Window).
func (s *Scheduler) collect() {
	pending := map[*live.Entry]*Handle{}
	const forever = time.Hour
	timer := time.NewTimer(forever)
	defer timer.Stop()
	next := time.Now().Add(forever)

	arm := func(at time.Time) {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		next = at
		timer.Reset(time.Until(at))
	}
	track := func(h *Handle) {
		pending[h.entry] = h
		if h.deadline.Before(next) {
			arm(h.deadline)
		}
	}
	drainAdmitted := func() {
		for {
			select {
			case h := <-s.admitted:
				track(h)
			default:
				return
			}
		}
	}

	for {
		select {
		case <-s.abort:
			// Reachable with sessions still pending only if teardown was
			// forced around Close's drain; settle them as closed.
			drainAdmitted()
			for id, h := range pending {
				delete(pending, id)
				s.expire(h, ErrClosed)
			}
			return
		case h := <-s.admitted:
			track(h)
		case r := <-s.share.Reports():
			// A report can beat its session through the select: the
			// admitted send strictly precedes the first injection, but
			// sits buffered until read. Drain first.
			drainAdmitted()
			h := pending[r.Entry]
			if h == nil {
				break // late report of an expired session
			}
			if r.Kind == live.ReportFailed {
				delete(pending, r.Entry)
				s.expire(h, r.Err)
			} else if h.acked++; h.acked == h.dests {
				delete(pending, r.Entry)
				s.complete(h)
			}
		case <-timer.C:
			drainAdmitted()
			now := time.Now()
			earliest := now.Add(forever)
			for id, h := range pending {
				switch {
				case !h.deadline.After(now):
					delete(pending, id)
					s.expire(h, ErrSessionTimeout)
				case h.deadline.Before(earliest):
					earliest = h.deadline
				}
			}
			arm(earliest)
		}
	}
}

// retire unwinds an admitted session's shared state: share entry, edge
// census, id table, window slot.
func (s *Scheduler) retire(h *Handle, bump func(st *Stats)) {
	s.share.Remove(h.entry)
	s.mu.Lock()
	for _, e := range h.edges {
		if s.edgeLoad[e]--; s.edgeLoad[e] <= 0 {
			delete(s.edgeLoad, e)
		}
	}
	delete(s.ids, h.sess.MsgID)
	s.stats.Inflight--
	bump(&s.stats)
	s.idle.Broadcast()
	s.mu.Unlock()
	<-s.window
}

// complete settles a fully delivered session. Reading the entry's record
// is safe: every write to it happens-before the completions the
// collector has already received (the channel chain from the root NI's
// take and each host's final send to its subtree's last completion).
func (s *Scheduler) complete(h *Handle) {
	s.retire(h, func(st *Stats) { st.Completed++ })
	sr := h.entry.Result()
	h.res = &Result{SessionResult: sr, SubmitAt: h.submitAt, QueueWait: sr.StartAt - h.submitAt}
	close(h.done)
}

// expire cancels and settles a failed in-flight session. Cancellation
// unblocks its stalled sends and makes its queued frames droppable, so
// the NIs reclaim the buffer slots a credit cycle was starving on. The
// host records are NOT read — the NIs may still be touching them.
func (s *Scheduler) expire(h *Handle, cause error) {
	close(h.abort)
	s.retire(h, func(st *Stats) {
		switch {
		case errors.Is(cause, ErrSessionTimeout):
			st.TimedOutInflight++
		default:
			st.Failed++
		}
	})
	h.err = &SessionError{
		MsgID: h.sess.MsgID,
		Acked: h.acked,
		Dests: h.dests,
		Err:   cause,
	}
	close(h.done)
}
