package live

import (
	"math"
	"slices"
	"time"

	"repro/internal/live/link"
	"repro/internal/membership"
	"repro/internal/reliable"
)

// This file is the reliable protocol's one supervisor: the loop that turns
// its session's reports and the failure detector's judgments into repair
// decisions (reliable.Brain), for live.RunReliable and for the root process
// of mcastd.RunReliable alike (DESIGN.md §12).

// HeartbeatParams sets the failure detector's wall-clock timing; the
// detector itself is the pure state machine of internal/membership.
type HeartbeatParams struct {
	SuspectAfter time.Duration // silence before suspicion
	ConfirmAfter time.Duration // further silence before crash confirmation
}

// detectorJitter widens each member's timeouts by a uniform seeded draw in
// [0, 0.25), so simultaneous failures are not all confirmed at one instant.
const detectorJitter = 0.25

// NewDetector builds the detector over the given hosts, all alive at
// offset zero, with per-member timeout jitter drawn from a stream
// decorrelated from the fault plane that shares faultSeed.
func (hb HeartbeatParams) NewDetector(faultSeed uint64, hosts []int) (*membership.Detector, error) {
	return membership.New(membership.Config{
		SuspectAfter: link.US(hb.SuspectAfter),
		ConfirmAfter: link.US(hb.ConfirmAfter),
		JitterFrac:   detectorJitter,
		Seed:         faultSeed ^ 0xD1B5_4A32_D192_ED03,
	}, hosts, 0)
}

// stallClock is the clock silence is measured on: the share's clock, less
// every interval the supervisor itself ran behind the deadline it was
// waiting for. A supervisor that was not running — its process starved by
// a loaded box, or busy in a handler — observed nothing, and the other
// processes' beats it would have heard queued up unread; counting that
// interval as their silence confirms every remote host at once. Stopping
// the clock instead only ever delays a judgment, by as long as the
// observer was away.
type stallClock struct {
	late  time.Duration // overdue time taken off the clock so far
	floor time.Duration // the deadline last run past: no stamp maps below it
}

// at maps a share-clock reading to the clock. Stamps taken before the latest
// overdue interval was taken off land on the deadline it ran past —
// later than their due, which is the lenient side.
func (c *stallClock) at(wall time.Duration) time.Duration {
	return max(wall-c.late, c.floor)
}

// catchUp takes whatever wall has run past deadline off the clock, which
// then reads exactly deadline: what was due by then is judged, nothing
// after it.
func (c *stallClock) catchUp(wall, deadline time.Duration) {
	if over := c.at(wall) - deadline; over > 0 {
		c.late += over
		c.floor = deadline
	}
}

// ReportKind names what a Report tells the session's driver.
type ReportKind int

const (
	// ReportBeat: Host, run by another process, was alive at At (the
	// daemon's root hears it over ctl).
	ReportBeat ReportKind = iota
	// ReportDone: Host holds the whole message, since At.
	ReportDone
	// ReportExhausted: an incarnation of edge Host->To died.
	ReportExhausted
	// ReportRejoin: Host's NI wiped its state after a crash window. Its old
	// parent edge holds ACKs for packets the crash erased, so it needs a
	// fresh edge and a full replay.
	ReportRejoin
	// ReportFailed: Err stopped Entry at Host (a forwarding or protocol
	// error; an abort is none).
	ReportFailed
)

// Report is one piece of a session's evidence, queued on its share
// (Share.Report) for the driver's loop.
type Report struct {
	Kind     ReportKind
	Host, To int           // To: the receiving end of an exhausted edge
	At       time.Duration // beat, done, rejoin: offset from the run's start
	// Entry is the plain session a local completion or failure belongs to;
	// nil for a reliable session's report and for a DONE heard over ctl.
	Entry *Entry
	Err   error // failed: the cause
}

// OrderKind names what an Order carries.
type OrderKind int

const (
	OrderGraft OrderKind = iota // install edge A->B, replaying what A holds
	OrderKill                   // retire edge A->B
	OrderEpoch                  // raise the fence register to Epoch
	OrderAck                    // child A acknowledges frame B from To at Epoch
)

// Order is what a share sends to the process that runs host To — a repair
// order, or a child's ACK — stamped with the epoch it was issued under.
type Order struct {
	Kind            OrderKind
	To, A, B, Epoch int
}

// SupervisorConfig holds what differs between one run's supervision and
// another's.
type SupervisorConfig struct {
	Det         *membership.Detector // nil: unarmed, nobody beats
	MaxRegrafts int                  // adoptions per destination before abandonment
	// Refresh paces re-sent orders and the stranded sweep; 0: never.
	Refresh time.Duration
	Timeout time.Duration                    // the watchdog
	Logf    func(format string, args ...any) // nil: silent
}

// Supervisor is the control plane of one reliable run and the brain's
// reliable.Runtime: it owns the brain, the detector, the done set, the dead
// transport pairs, the view log and the pending GRAFTs, all of which belong
// to Run's goroutine, and to its caller once Run returns. Run reads the
// share's report queue.
//
// When the share runs every host, the crash schedule of its fault plane is
// liveness: Alive reads it, a down host is not witnessed and a crash-
// stopped one, once down, not awaited. Otherwise Alive reads the detector
// and a host confirmed crashed is not awaited. The share's own hosts are
// witnessed — credited alive before every judgment — and only the other
// processes' hosts are timed, on the beats they send. A stalled
// observer manufactures silence, so Run re-arms its timer at the
// detector's own next deadline, lands queued reports before silence is
// judged, and does not count time it spent overdue as silence
// (stallClock).
type Supervisor struct {
	cfg   SupervisorConfig
	share *ReliableShare
	root  int
	brain *reliable.Brain
	clock stallClock
	geo   *reliable.Geometry // the run's switch geometry; nil: none

	done      map[int]bool
	dead      map[[2]int]bool // exhausted pairs; the brain routes around them
	views     []membership.View
	rootDown  bool
	pendGraft map[[2]int]bool // remote GRAFTs, re-sent every refresh
}

// NewSupervisor builds the supervisor of the run share carries. With a
// detector it logs the initial view and fences the share at its epoch.
func NewSupervisor(share *ReliableShare, cfg SupervisorConfig) *Supervisor {
	s := &Supervisor{
		cfg:       cfg,
		share:     share,
		root:      share.cfg.Tree.Root(),
		done:      map[int]bool{},
		dead:      map[[2]int]bool{},
		pendGraft: map[[2]int]bool{},
	}
	if s.cfg.Logf == nil {
		s.cfg.Logf = func(string, ...any) {}
	}
	s.brain = reliable.NewBrain(share.cfg.Tree, cfg.MaxRegrafts, s)
	s.brain.Logf = s.cfg.Logf
	if cfg.Det != nil {
		s.views = append(s.views, cfg.Det.View())
		share.SetEpoch(cfg.Det.Epoch())
	}
	return s
}

// Run supervises the share's run until every awaited destination is done
// or abandoned, the root is confirmed down, or the watchdog fires, which it
// reports: it waits for a report, the detector's next deadline or the
// refresh tick, then steps.
func (s *Supervisor) Run() (timedOut bool) {
	watchdog := time.NewTimer(s.cfg.Timeout)
	defer watchdog.Stop()
	detTimer := time.NewTimer(time.Hour)
	defer detTimer.Stop()
	var tick <-chan time.Time
	if s.cfg.Refresh > 0 {
		t := time.NewTicker(s.cfg.Refresh)
		defer t.Stop()
		tick = t.C
	}
	for !s.settled() {
		deadline, dl := s.deadline()
		rearm(detTimer, max(0, deadline-s.clock.at(s.share.Now())))
		select {
		case r := <-s.share.reports:
			s.clock.catchUp(s.share.Now(), deadline)
			s.handle(r)
		case <-detTimer.C:
			s.judge(deadline, dl)
		case <-tick:
			s.refresh()
		case <-watchdog.C:
			return true
		}
	}
	return false
}

// deadline returns the detector's next deadline on the stall clock, and in
// the detector's microseconds; with none, an hour ahead.
func (s *Supervisor) deadline() (time.Duration, float64) {
	if s.cfg.Det != nil {
		if dl, ok := s.cfg.Det.NextDeadline(); ok {
			return time.Duration(dl * float64(time.Microsecond)), dl
		}
	}
	return s.clock.at(s.share.Now()) + time.Hour, 0
}

// judge is the step at the detector's deadline: time overdue comes off the
// clock, queued reports land (a scheduling burst can expire the timer with
// fresh beats still queued), the share's hosts are witnessed, and then the
// detector judges silence.
func (s *Supervisor) judge(deadline time.Duration, dl float64) {
	if s.cfg.Det == nil {
		return
	}
	s.clock.catchUp(s.share.Now(), deadline)
	for len(s.share.reports) > 0 { // the supervisor is the queue's one reader
		s.handle(<-s.share.reports)
	}
	s.witness()
	// At least to dl itself: a clock caught up to the deadline reads it to
	// the nanosecond, a hair short of the detector's float.
	s.fold(s.cfg.Det.Advance(max(dl, link.US(s.clock.at(s.share.Now())))))
}

// handle folds one report into the supervisor's state.
func (s *Supervisor) handle(r Report) {
	switch r.Kind {
	case ReportBeat:
		s.witness()
		if s.share.NI(r.Host) == nil { // a share host is credited already, at a fresher instant
			s.fold(s.cfg.Det.Heartbeat(r.Host, link.US(s.clock.at(r.At))))
		}
	case ReportDone:
		if s.share.NI(r.Host) != nil {
			s.cfg.Logf("host %d delivered at %v", r.Host, r.At)
		}
		s.done[r.Host] = true
	case ReportExhausted:
		s.cfg.Logf("edge %d->%d exhausted; repairing", r.Host, r.To)
		s.dead[[2]int{r.Host, r.To}] = true
		if s.geo != nil {
			s.geo.Fold(link.US(s.share.Now()))
		}
		s.brain.Exhausted(r.Host, r.To)
	case ReportRejoin:
		// If the detector already confirmed the crash, its Rejoined event
		// (on a beat, or a witness) re-admits the host with a fresh
		// subtree; grafting here too would just double the churn.
		if s.Member(r.Host) {
			s.brain.Graft(s.brain.LiveAncestor(r.Host), []int{r.Host})
		}
	}
}

// witness credits every share host that is not down as alive now,
// without the silence judgment a heartbeat applies first: the
// supervisor's process runs it, so its liveness is the schedule's.
func (s *Supervisor) witness() {
	at := s.share.Now()
	for _, h := range s.share.nodes {
		if s.share.NI(h) != nil && !s.share.down(h, at) {
			s.fold(s.cfg.Det.Witness(h, link.US(s.clock.at(at))))
		}
	}
}

// fold is the one handler of detector events. Every event raises the
// epoch register (only Confirmed and Rejoined can); a new epoch is logged
// as a view and announced at once. A confirmed root ends the run.
func (s *Supervisor) fold(evs []membership.Event) {
	before := s.share.Epoch()
	for _, ev := range evs {
		s.share.SetEpoch(ev.Epoch)
		switch h := ev.Host; ev.Kind {
		case membership.Confirmed:
			s.cfg.Logf("host %d confirmed dead (epoch %d)", h, ev.Epoch)
			if h == s.root {
				s.rootDown = true
				continue
			}
			// Hosts of the same dead process are at least Suspect by now: left
			// out of the adoption, they meet their own confirmation or the
			// stranded sweep.
			s.brain.Confirmed(h)
		case membership.Rejoined:
			s.cfg.Logf("host %d rejoined (epoch %d)", h, ev.Epoch)
			s.brain.Rejoined(h)
		}
	}
	if s.share.Epoch() > before {
		s.views = append(s.views, s.cfg.Det.View())
		s.announceEpoch()
	}
}

// refresh re-sends the pending GRAFTs and, past the initial epoch, the
// epoch, and grafts stranded hosts under the root: awaited, alive and
// parentless (a suspect left out of an adoption that was alive after all).
func (s *Supervisor) refresh() {
	for key := range s.pendGraft {
		s.order(OrderGraft, key[0], key[0], key[1])
	}
	if s.share.Epoch() > 1 {
		s.announceEpoch()
	}
	var lost []int
	for _, v := range s.share.nodes {
		if s.awaited(v) && s.brain.Parent(v) == -1 && s.Alive(v) {
			lost = append(lost, v)
		}
	}
	if len(lost) > 0 {
		s.cfg.Logf("sweep: re-grafting stranded hosts %v under the root", lost)
		s.brain.Graft(s.root, lost)
	}
}

// announceEpoch tells every other process's hosts believed alive the epoch.
func (s *Supervisor) announceEpoch() {
	for _, v := range s.share.nodes {
		if s.share.NI(v) == nil && s.Alive(v) {
			s.order(OrderEpoch, v, 0, 0)
		}
	}
}

// order sends one repair order to host to's process, through Remote.
func (s *Supervisor) order(kind OrderKind, to, a, b int) {
	s.share.cfg.Remote(Order{Kind: kind, To: to, A: a, B: b, Epoch: s.share.Epoch()})
}

// forever is an offset past every crash window (down(v, forever) holds for
// a crash-stop only), and the wake of a timer with nothing due.
const forever = time.Duration(math.MaxInt64)

// awaited reports whether destination v still holds the run open: not
// done, not abandoned, and not crash-stopped and down by now (every host
// local) or confirmed crashed (else; a rejoin makes it awaited again).
func (s *Supervisor) awaited(v int) bool {
	if v == s.root || s.done[v] || s.brain.Abandoned(v) {
		return false
	}
	if s.share.cfg.Remote == nil {
		return !s.share.down(v, forever) || !s.share.down(v, s.share.Now())
	}
	return s.Member(v)
}

// settled reports whether the run is over: nothing awaited, or the root
// confirmed down.
func (s *Supervisor) settled() bool {
	for _, v := range s.share.nodes {
		if s.awaited(v) {
			return s.rootDown
		}
	}
	return true
}

// Install, Retire, Alive, Member, Done, Chain and Reachable make the
// supervisor the brain's reliable.Runtime. An edge whose parent the share
// runs is the share's to install; any other is a GRAFT order, re-sent
// until a Retire supersedes it.
func (s *Supervisor) Install(a, b int) {
	s.cfg.Logf("graft: edge %d->%d", a, b)
	if s.share.NI(a) != nil {
		s.share.Install(a, b)
		return
	}
	s.pendGraft[[2]int{a, b}] = true
	s.order(OrderGraft, a, a, b)
}

// Retire has the share cancel a local incarnation; a remote one gets a
// best-effort KILL (if lost, the stale edge's frames are deduplicated).
func (s *Supervisor) Retire(a, b int) {
	delete(s.pendGraft, [2]int{a, b})
	if s.share.NI(a) != nil {
		s.share.Retire(a, b)
		return
	}
	s.order(OrderKill, a, a, b)
}

// Alive reads the crash schedule when the share runs every host, and
// otherwise the detector alone: a Suspect host is left out of repairs.
func (s *Supervisor) Alive(v int) bool {
	if s.share.cfg.Remote == nil {
		return !s.share.down(v, s.share.Now())
	}
	return s.cfg.Det.Phase(v) == membership.Alive
}

// Member reports whether v is in the current view: not confirmed crashed.
func (s *Supervisor) Member(v int) bool {
	return s.cfg.Det == nil || s.cfg.Det.Phase(v) != membership.Crashed
}

// Done reports whether v was reported holding the whole message.
func (s *Supervisor) Done(v int) bool { return s.done[v] }

// Chain cuts a repair's chain from the run's switch geometry, or without
// one orders it ascending.
func (s *Supervisor) Chain(adopter int, orphans []int) []int {
	if s.geo != nil {
		return s.geo.Chain(adopter, orphans)
	}
	chain := append([]int{adopter}, orphans...)
	slices.Sort(chain[1:])
	return chain
}

// Reachable asks the run's switch geometry, or without one reports whether
// pair a->v has not exhausted.
func (s *Supervisor) Reachable(a, v int) bool {
	if s.geo != nil {
		return s.geo.Reachable(a, v)
	}
	return !s.dead[[2]int{a, v}]
}

// Views returns the installed epoch-numbered views, oldest first.
func (s *Supervisor) Views() []membership.View { return s.views }

// RootDown reports whether the detector confirmed the root crashed.
func (s *Supervisor) RootDown() bool { return s.rootDown }

// Adoptions counts the brain's grafts.
func (s *Supervisor) Adoptions() int { return s.brain.Adoptions() }
