// Package sched schedules massive numbers of concurrent multicast
// sessions onto one persistent live fabric. Where live.Run builds a
// fresh set of NI goroutines per call and dedicates an injector
// goroutine to every session — fine for a handful of sessions, ruinous
// for ten thousand — a Scheduler owns a fixed host set and runs
// O(hosts + shards) goroutines total, independent of session count:
//
//   - Admission control: Submit enqueues a session into a bounded
//     queue; a window semaphore caps the sessions in flight. Overflow
//     and expiry are typed rejections (ErrQueueFull, ErrSubmitTimeout),
//     so producers see backpressure instead of unbounded goroutine and
//     buffer growth.
//   - Sharded dispatch: a small pool of worker shards round-robins
//     packet injection across its admitted sessions through the
//     ordinary link.Transport seam — the root-side replacement for
//     goroutine-per-injector.
//   - Per-NI fair queueing: each host's NI loop drains its inbox into
//     per-session staging queues and serves them by deficit round
//     robin, so one elephant session cannot starve mice sharing the
//     interface (buffer-slot accounting is unchanged: a sender's
//     reservation is held from wire admission to post-serve release).
//   - Congestion-aware planning: PlanBcast penalizes candidate trees
//     for edges already carried by in-flight sessions (the
//     simultaneous-multicast objective of Haeupler/Hershkowitz/Wajc,
//     see tree.OptimalCongested), falling back to the paper's one-tree
//     Theorem-3 optimum when the fabric is idle.
//
// Overlapping bounded-buffer sessions can form store-and-forward credit
// cycles exactly as under live.Run; the scheduler's recovery is the
// per-session deadline. Expiring a session cancels its blocked sends
// and turns its queued frames into droppable traffic, which frees the
// buffer slots the cycle was starving on, so the surviving sessions
// make progress again — deadlock is degraded to typed per-session
// timeouts instead of a run-wide abort.
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/message"
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
	// ErrSubmitTimeout fails a queued session that could not be admitted
	// within Config.SubmitTimeout.
	ErrSubmitTimeout = errors.New("sched: queued past submit timeout")
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

// Config tunes a Scheduler. The zero value selects sane defaults.
type Config struct {
	// Window caps the sessions in flight (admitted, not yet completed).
	// Defaults to 64.
	Window int
	// QueueDepth bounds the submission queue behind the window; Submit
	// returns ErrQueueFull beyond it. Defaults to 4*Window.
	QueueDepth int
	// Shards is the injector worker count. Each shard drives the root
	// injection of many sessions round-robin. Defaults to
	// min(8, GOMAXPROCS).
	Shards int
	// Quantum is the deficit-round-robin grant in packets, used both by
	// the injector shards and the per-NI fair queues. Defaults to 4.
	Quantum int
	// BufferPackets bounds each NI's packet buffer exactly as in
	// live.Config: senders block while a target NI is full; 0 means
	// unbounded.
	BufferPackets int
	// LinkLatency shapes a one-way delivery delay onto every link, as in
	// live.Config (0 = unshaped). Mostly for tests that need sessions to
	// stay in flight deterministically long.
	LinkLatency time.Duration
	// SubmitTimeout bounds how long a submission may wait in the queue
	// for a window slot; 0 waits indefinitely.
	SubmitTimeout time.Duration
	// SessionTimeout bounds an admitted session's time in flight; on
	// expiry it is cancelled with ErrSessionTimeout and its resources
	// (window slot, buffer credits, edge load) are reclaimed. Defaults
	// to live.DefaultTimeout.
	SessionTimeout time.Duration
	// CongestionPenalty is the steps charged per in-flight tree already
	// resident on an edge a candidate plan would reuse (PlanBcast).
	// Defaults to 1.
	CongestionPenalty int
}

func (cfg Config) withDefaults() Config {
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Window
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
		if cfg.Shards > 8 {
			cfg.Shards = 8
		}
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 4
	}
	if cfg.SessionTimeout <= 0 {
		cfg.SessionTimeout = live.DefaultTimeout
	}
	if cfg.CongestionPenalty <= 0 {
		cfg.CongestionPenalty = 1
	}
	return cfg
}

// Stats is a point-in-time census of a Scheduler.
type Stats struct {
	// Submitted counts sessions accepted into the queue; Completed those
	// that delivered to every destination.
	Submitted, Completed int
	// RejectedFull and RejectedDuplicate count Submit-time rejections.
	RejectedFull, RejectedDuplicate int
	// TimedOutQueue counts sessions failed awaiting admission;
	// TimedOutInflight those cancelled by the session deadline; Failed
	// those aborted by a transport or protocol error.
	TimedOutQueue, TimedOutInflight, Failed int
	// Inflight is the current admitted-session gauge and MaxInflight its
	// high-water mark.
	Inflight, MaxInflight int
	// DroppedFrames counts frames discarded at NIs for unknown or
	// cancelled sessions (late traffic of expired sessions).
	DroppedFrames int64
}

// Result reports one completed session. Host records are the same shape
// live.Run produces, so differential checks compare them directly.
type Result struct {
	MsgID uint32
	// SubmitAt, StartAt and FinishAt are offsets from scheduler start:
	// queue entry, first admission to the fabric, and the last
	// destination's completion ACK.
	SubmitAt, StartAt, FinishAt time.Duration
	// QueueWait = StartAt - SubmitAt; Latency = FinishAt - StartAt.
	QueueWait, Latency time.Duration
	// Hosts holds a record per tree node.
	Hosts map[int]*live.HostRecord
}

// Handle tracks one submitted session.
type Handle struct {
	sess  live.Session
	dests int

	submitAt       time.Duration
	submitDeadline time.Time

	// Admission-time state, written by the admitter before the handle
	// reaches any shard or NI.
	startAt  time.Duration
	deadline time.Time
	hosts    map[int]*hostState
	edges    []tree.Edge

	// abort cancels the session's blocked sends and marks its frames
	// droppable; closed at most once (deadline expiry, failure, or
	// scheduler teardown).
	aborted   atomic.Bool
	abortOnce sync.Once
	abort     chan struct{}

	// Collector-owned completion bookkeeping. Each destination ACKs this
	// handle once — ni.serve, the only sender on Scheduler.acks, reports
	// the one Serve that completes the message — so a count suffices.
	acked    int
	finishAt time.Duration

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

func (h *Handle) cancel() {
	h.abortOnce.Do(func() {
		h.aborted.Store(true)
		close(h.abort)
	})
}

// hostState is one host's protocol state for one session: the FPFS step
// every plain engine shares (live.HostSession, whose embedded HostRecord
// is the host's result) plus this scheduler's fair-queue position. The
// HostSession's ownership rule holds — at the root only the owning shard
// writes it, everywhere else only the host's NI goroutine — and the
// collector reads it only after every destination has acknowledged, which
// happens-after the final write through the ack channel chain.
type hostState struct {
	live.HostSession
	h *Handle

	// Deficit-round-robin state, owned by the host's NI goroutine.
	pending []staged
	deficit int
	queued  bool
}

// staged is one admitted frame parked in a session's fair queue; its
// buffer-slot reservation stays held until the frame is served.
type staged struct {
	payload []byte
	from    int
	h       message.Header // decoded once, at staging
}

// ack is one destination's completion report to the collector, naming
// the handle so that a late report of an expired session is never counted
// for a new one reusing its MsgID.
type ack struct {
	h  *Handle
	at time.Duration
}

// failure is an NI- or shard-level error that must fail one session.
type failure struct {
	msgID uint32
	err   error
}

// Scheduler drives many concurrent multicast sessions over one
// persistent fabric. Methods are safe for concurrent use.
type Scheduler struct {
	cfg   Config
	start time.Time
	nis   map[int]*ni

	shards    []*shard
	nextShard int // admitter-owned

	queue    chan *Handle
	admitted chan *Handle
	window   chan struct{}
	acks     chan ack
	fails    chan failure
	abort    chan struct{}
	wg       sync.WaitGroup

	dropped atomic.Int64

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
// goroutines: one NI loop per host, Config.Shards injector workers, an
// admitter and a collector. The caller must Close it.
func New(hosts []int, cfg Config) (*Scheduler, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("sched: empty host set")
	}
	if cfg.BufferPackets < 0 {
		return nil, fmt.Errorf("sched: negative buffer bound %d", cfg.BufferPackets)
	}
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:      cfg,
		start:    time.Now(),
		nis:      map[int]*ni{},
		queue:    make(chan *Handle, cfg.QueueDepth),
		admitted: make(chan *Handle, cfg.Window),
		window:   make(chan struct{}, cfg.Window),
		acks:     make(chan ack, cfg.Window),
		fails:    make(chan failure, cfg.Window),
		abort:    make(chan struct{}),
		ids:      map[uint32]bool{},
		edgeLoad: map[tree.Edge]int{},
	}
	s.idle.L = &s.mu
	for _, v := range hosts {
		if v < 0 {
			return nil, fmt.Errorf("sched: negative host ID %d", v)
		}
		if _, dup := s.nis[v]; dup {
			return nil, fmt.Errorf("sched: duplicate host %d", v)
		}
		capacity := cfg.BufferPackets
		if capacity == 0 {
			capacity = unboundedWire
		}
		s.nis[v] = &ni{
			inbox:    link.NewInbox(v, capacity, cfg.BufferPackets),
			sessions: map[uint32]*hostState{},
		}
	}
	for _, n := range s.nis {
		s.wg.Add(1)
		go n.run(s)
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{add: make(chan *job, cfg.Window)}
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go sh.run(s)
	}
	s.wg.Add(1)
	go s.admit()
	s.wg.Add(1)
	go s.collect()
	return s, nil
}

func (s *Scheduler) since() time.Duration { return time.Since(s.start) }

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.DroppedFrames = s.dropped.Load()
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
		if _, ok := s.nis[v]; !ok {
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
	h.submitAt = s.since()
	if s.cfg.SubmitTimeout > 0 {
		h.submitDeadline = time.Now().Add(s.cfg.SubmitTimeout)
	}
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
	close(s.abort)
	s.wg.Wait()
}

// admit is the admission loop: it pulls queued sessions in FIFO order,
// waits for a window slot (bounded by each session's submit deadline)
// and places them onto the fabric.
func (s *Scheduler) admit() {
	defer s.wg.Done()
	for {
		var h *Handle
		select {
		case h = <-s.queue:
		case <-s.abort:
			s.drainQueue()
			return
		}
		if h.submitDeadline.IsZero() {
			select {
			case s.window <- struct{}{}:
			case <-s.abort:
				s.fail(h, ErrClosed)
				s.drainQueue()
				return
			}
		} else {
			timer := time.NewTimer(time.Until(h.submitDeadline))
			select {
			case s.window <- struct{}{}:
				timer.Stop()
			case <-timer.C:
				s.fail(h, ErrSubmitTimeout)
				continue
			case <-s.abort:
				timer.Stop()
				s.fail(h, ErrClosed)
				s.drainQueue()
				return
			}
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
	switch {
	case errors.Is(cause, ErrSubmitTimeout):
		s.stats.TimedOutQueue++
	default:
		s.stats.Failed++
	}
	s.idle.Broadcast()
	s.mu.Unlock()
	h.err = &SessionError{MsgID: h.sess.MsgID, Err: cause}
	close(h.done)
}

// place admits one session: build its per-host protocol state, bump the
// edge census, register at every non-root NI (before any packet can
// arrive), hand it to the collector, then to a shard for injection.
func (s *Scheduler) place(h *Handle) {
	tr := h.sess.Tree
	root := tr.Root()
	h.hosts = map[int]*hostState{}
	for _, v := range tr.Nodes() {
		var links []link.Transport
		for _, c := range tr.Children(v) {
			links = append(links, link.New(v, s.nis[c].inbox, s.cfg.LinkLatency))
		}
		h.hosts[v] = &hostState{HostSession: live.NewHostSession(v, links), h: h}
	}
	h.edges = tr.Edges()
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
	// The root's state is shard-owned and never registered: frames
	// addressed to the root's own session would race the injector, and a
	// valid tree never produces one.
	for v, hs := range h.hosts {
		if v != root {
			s.nis[v].register(hs)
		}
	}
	h.startAt = s.since()
	h.deadline = time.Now().Add(s.cfg.SessionTimeout)
	s.admitted <- h // the collector must know the session before any ack
	sh := s.shards[s.nextShard%len(s.shards)]
	s.nextShard++
	sh.add <- &job{h: h, root: h.hosts[root]}
}

// failSession asks the collector to fail an in-flight session over a
// forwarding error. An abort is not one: the session was already
// cancelled and the collector owns the verdict. A full channel drops the
// report: some other failure is already tearing sessions down, and the
// deadline backstops this one.
func (s *Scheduler) failSession(h *Handle, err error) {
	if errors.Is(err, link.ErrAborted) {
		return
	}
	select {
	case s.fails <- failure{msgID: h.sess.MsgID, err: err}:
	default:
	}
}

// collect is the completion loop: it tracks admitted sessions, counts
// destination ACKs, enforces per-session deadlines and settles every
// handle exactly once.
func (s *Scheduler) collect() {
	defer s.wg.Done()
	pending := map[uint32]*Handle{}
	const forever = time.Hour
	timer := time.NewTimer(forever)
	defer timer.Stop()

	drainAdmitted := func() {
		for {
			select {
			case h := <-s.admitted:
				pending[h.sess.MsgID] = h
			default:
				return
			}
		}
	}
	rearm := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		d := forever
		now := time.Now()
		for _, h := range pending {
			if w := h.deadline.Sub(now); w < d {
				d = w
			}
		}
		if d < 0 {
			d = 0
		}
		timer.Reset(d)
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
			pending[h.sess.MsgID] = h
			rearm()
		case a := <-s.acks:
			// An ack can beat its session through the select: the
			// admitted send strictly precedes the first injection, but
			// sits buffered until read. Drain first.
			drainAdmitted()
			h := a.h
			if pending[h.sess.MsgID] != h {
				break // late ack of an expired session
			}
			h.acked++
			if a.at > h.finishAt {
				h.finishAt = a.at
			}
			if h.acked == h.dests {
				delete(pending, h.sess.MsgID)
				s.complete(h)
				rearm()
			}
		case f := <-s.fails:
			drainAdmitted()
			h, ok := pending[f.msgID]
			if !ok {
				break
			}
			delete(pending, f.msgID)
			s.expire(h, f.err)
			rearm()
		case <-timer.C:
			drainAdmitted()
			now := time.Now()
			for id, h := range pending {
				if !h.deadline.After(now) {
					delete(pending, id)
					s.expire(h, ErrSessionTimeout)
				}
			}
			rearm()
		}
	}
}

// retire unwinds an admitted session's shared state: NI registrations,
// edge census, id table, window slot.
func (s *Scheduler) retire(h *Handle, bump func(st *Stats)) {
	root := h.sess.Tree.Root()
	for v := range h.hosts {
		if v != root {
			s.nis[v].unregister(h.sess.MsgID)
		}
	}
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

// complete settles a fully delivered session. Reading the host states
// is safe: every write to them happens-before the destination ACKs the
// collector has already received (the channel chain from each host's
// final send to its subtree's last ACK).
func (s *Scheduler) complete(h *Handle) {
	s.retire(h, func(st *Stats) { st.Completed++ })
	hosts := make(map[int]*live.HostRecord, len(h.hosts))
	for v, hs := range h.hosts {
		hosts[v] = &hs.HostRecord
	}
	h.res = &Result{
		MsgID:     h.sess.MsgID,
		SubmitAt:  h.submitAt,
		StartAt:   h.startAt,
		FinishAt:  h.finishAt,
		QueueWait: h.startAt - h.submitAt,
		Latency:   h.finishAt - h.startAt,
		Hosts:     hosts,
	}
	close(h.done)
}

// expire cancels and settles a failed in-flight session. Cancellation
// unblocks its stalled sends and marks its staged frames droppable, so
// the NIs reclaim the buffer slots a credit cycle was starving on. The
// host states are NOT read — shards and NIs may still be touching them.
func (s *Scheduler) expire(h *Handle, cause error) {
	h.cancel()
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
