package live

import (
	"time"

	"repro/internal/membership"
)

// HeartbeatParams sets the failure detector's wall-clock timing; the
// detector itself is the pure state machine of internal/membership.
type HeartbeatParams struct {
	Every        time.Duration // heartbeat period per host
	SuspectAfter time.Duration // silence before suspicion
	ConfirmAfter time.Duration // further silence before crash confirmation
	JitterFrac   float64       // per-member timeout widening
}

// NewDetector builds the detector over the given hosts, all alive at
// offset zero, with per-member timeout jitter drawn from a stream
// decorrelated from the fault plane that shares faultSeed.
func (hb HeartbeatParams) NewDetector(faultSeed uint64, hosts []int) (*membership.Detector, error) {
	return membership.New(membership.Config{
		HeartbeatEvery: us(hb.Every),
		SuspectAfter:   us(hb.SuspectAfter),
		ConfirmAfter:   us(hb.ConfirmAfter),
		JitterFrac:     hb.JitterFrac,
		Seed:           faultSeed ^ 0xD1B5_4A32_D192_ED03,
	}, hosts, 0)
}

// us converts a wall offset to the detector's float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// stallClock is the clock silence is measured on: the wall offset from the
// pump's Start, less every interval the pump itself ran behind the
// deadline it was waiting for. A pump that was not running — its process
// starved by a loaded box, or busy in a handler — observed nothing, and in
// the in-process engine the hosts it would have heard from were starved
// with it; counting that interval as their silence confirms a whole
// healthy tree at once. Stopping the clock instead only ever delays a
// judgment, by as long as the observer was away.
type stallClock struct {
	late  time.Duration // overdue time taken off the clock so far
	floor time.Duration // the deadline last run past: no stamp maps below it
}

// at maps a wall offset to the clock. Stamps taken before the latest
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

// Pump is a supervisor's event loop: it feeds the supervisor's event
// channel to Handle, drives the failure detector on the wall clock, and
// enforces the watchdog. Porting a detector from virtual to real time
// changes its failure mode — a stalled observer manufactures silence —
// and the pump is where the four countermeasures live: the timer is
// re-armed at the detector's own next deadline, queued events land before
// silence is judged, hosts colocated with the supervisor are witnessed
// rather than timed, and time the pump spent overdue is not silence
// (stallClock).
type Pump[E any] struct {
	Det    *membership.Detector // nil: membership plane unarmed
	Start  time.Time            // offset zero of every detector timestamp
	Events <-chan E
	Handle func(E)
	// Local returns the hosts whose liveness the supervisor's own
	// execution proves at offset at (it IS their protocol engine).
	Local func(at time.Duration) []int
	// OnEvents receives every batch of detector transitions.
	OnEvents func([]membership.Event)
	// Tick and OnTick, when set, run a periodic chore inside the loop.
	Tick    <-chan time.Time
	OnTick  func()
	Timeout time.Duration // the watchdog

	clock stallClock
}

// now reads the clock silence is measured on.
func (p *Pump[E]) now() time.Duration { return p.clock.at(time.Since(p.Start)) }

// Beat records a heartbeat from host received at wall offset at.
func (p *Pump[E]) Beat(host int, at time.Duration) {
	p.OnEvents(p.Det.Heartbeat(host, us(p.clock.at(at))))
}

// Witness marks the local hosts alive right now. Witness skips the
// silence judgment Heartbeat applies first — on a loaded box a scheduling
// burst must not confirm a host the supervisor itself embodies.
func (p *Pump[E]) Witness() {
	at := time.Since(p.Start)
	for _, h := range p.Local(at) {
		p.OnEvents(p.Det.Witness(h, us(p.clock.at(at))))
	}
}

// Run pumps until settled reports true (checked before every wait) or
// the watchdog fires, which it reports.
func (p *Pump[E]) Run(settled func() bool) (timedOut bool) {
	watchdog := time.NewTimer(p.Timeout)
	defer watchdog.Stop()
	detTimer := time.NewTimer(time.Hour)
	defer detTimer.Stop()
	for !settled() {
		// (Re)arm the detector timer at its next deadline.
		now := p.now()
		deadline, dl := now+time.Hour, 0.0
		if p.Det != nil {
			var ok bool
			if dl, ok = p.Det.NextDeadline(); ok {
				deadline = time.Duration(dl * float64(time.Microsecond))
			}
		}
		rearm(detTimer, max(0, deadline-now))

		select {
		case e := <-p.Events:
			p.clock.catchUp(time.Since(p.Start), deadline)
			p.Handle(e)
		case <-detTimer.C:
			if p.Det == nil {
				continue
			}
			p.clock.catchUp(time.Since(p.Start), deadline)
			// Queued heartbeats must land before silence is judged: a
			// scheduling burst (GC, single-CPU contention) can expire the
			// timer with fresh beats still in the channel, and advancing
			// first would confirm hosts that are provably alive.
			for drained := false; !drained; {
				select {
				case e := <-p.Events:
					p.Handle(e)
				default:
					drained = true
				}
			}
			p.Witness()
			// At least to dl itself: a clock caught up to the deadline reads
			// it to the nanosecond, a hair short of the detector's float.
			p.OnEvents(p.Det.Advance(max(dl, us(p.now()))))
		case <-p.Tick:
			p.OnTick()
		case <-watchdog.C:
			return true
		}
	}
	return false
}
