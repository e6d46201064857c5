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

// Pump is a supervisor's event loop: it feeds the supervisor's event
// channel to Handle, drives the failure detector on the wall clock, and
// enforces the watchdog. Porting a detector from virtual to real time
// changes its failure mode — a stalled observer manufactures silence —
// and the pump is where the three countermeasures live: the timer is
// re-armed at the detector's own next deadline, queued events land before
// silence is judged, and hosts colocated with the supervisor are
// witnessed rather than timed.
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
}

// Beat records a heartbeat from host received at offset at.
func (p *Pump[E]) Beat(host int, at time.Duration) {
	p.OnEvents(p.Det.Heartbeat(host, us(at)))
}

// Witness marks the local hosts alive right now. Witness skips the
// silence judgment Heartbeat applies first — on a loaded box a scheduling
// burst must not confirm a host the supervisor itself embodies.
func (p *Pump[E]) Witness() {
	at := time.Since(p.Start)
	for _, h := range p.Local(at) {
		p.OnEvents(p.Det.Witness(h, us(at)))
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
		wake := time.Hour
		if p.Det != nil {
			if dl, ok := p.Det.NextDeadline(); ok {
				wake = time.Duration(dl*float64(time.Microsecond)) - time.Since(p.Start)
				if wake < 0 {
					wake = 0
				}
			}
		}
		rearm(detTimer, wake)

		select {
		case e := <-p.Events:
			p.Handle(e)
		case <-detTimer.C:
			if p.Det == nil {
				continue
			}
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
			p.OnEvents(p.Det.Advance(us(time.Since(p.Start))))
		case <-p.Tick:
			p.OnTick()
		case <-watchdog.C:
			return true
		}
	}
	return false
}
