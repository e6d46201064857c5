// Package membership is a deterministic heartbeat failure detector with
// epoch-numbered group views, the control plane of crash-tolerant
// multicast (see internal/reliable).
//
// One observer (in the multicast protocol, the tree root) tracks a fixed
// universe of members. Every member is expected to heartbeat periodically;
// a member silent past its suspicion timeout becomes Suspect, and one
// silent past the additional confirmation timeout is declared Crashed and
// removed from the view. A heartbeat from a Suspect member reinstates it
// without a view change; a heartbeat from a Crashed member re-admits it
// (crash-recovery) in a fresh view. Every view carries an epoch number
// that increases by exactly one per membership change, so protocol traffic
// stamped with an epoch can be fenced: anything from an older view is
// provably stale.
//
// The detector is a pure state machine over timestamped inputs — no wall
// clock, no goroutines. Per-member timeouts are widened by a seeded
// splitmix64 jitter so simultaneous silences confirm in a deterministic
// but non-degenerate order; the same (config, members, input sequence)
// replays the same views, which is what makes crash replays byte-exact.
package membership

import (
	"fmt"
	"sort"

	"repro/internal/workload"
)

// Config tunes the failure detector. All times are microseconds.
type Config struct {
	// SuspectAfter is the silence after the last heartbeat before a member
	// becomes Suspect.
	SuspectAfter float64
	// ConfirmAfter is the additional silence after suspicion before the
	// member is declared Crashed and the view changes.
	ConfirmAfter float64
	// JitterFrac widens each member's timeouts by a uniform seeded draw in
	// [0, frac), desynchronizing confirmations of simultaneous failures.
	JitterFrac float64
	// Seed drives the timeout jitter stream.
	Seed uint64
}

// DefaultConfig returns detector defaults sized for the simulator's
// microsecond scale: suspicion after 16 us of silence, confirmation 12 us
// later, 25% timeout jitter.
func DefaultConfig() Config {
	return Config{
		SuspectAfter: 16.0,
		ConfirmAfter: 12.0,
		JitterFrac:   0.25,
		Seed:         1,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.SuspectAfter <= 0:
		return fmt.Errorf("membership: suspicion timeout %f", c.SuspectAfter)
	case c.ConfirmAfter <= 0:
		return fmt.Errorf("membership: confirmation timeout %f", c.ConfirmAfter)
	case c.JitterFrac < 0:
		return fmt.Errorf("membership: negative jitter %f", c.JitterFrac)
	}
	return nil
}

// Phase is a member's detector state.
type Phase int

const (
	// Alive members heartbeat within their suspicion timeout.
	Alive Phase = iota
	// Suspect members are silent past suspicion but not yet confirmed.
	Suspect
	// Crashed members were confirmed silent and removed from the view.
	Crashed
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Crashed:
		return "crashed"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// EventKind classifies a detector transition.
type EventKind int

const (
	// Suspected: a member crossed its suspicion timeout (no view change).
	Suspected EventKind = iota
	// Confirmed: a suspect crossed its confirmation timeout; it left the
	// view and the epoch advanced.
	Confirmed
	// Rejoined: a heartbeat arrived from a Crashed member; it re-entered
	// the view and the epoch advanced.
	Rejoined
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case Suspected:
		return "suspected"
	case Confirmed:
		return "confirmed"
	case Rejoined:
		return "rejoined"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one detector transition.
type Event struct {
	At   float64
	Host int
	Kind EventKind
	// Epoch is the epoch in force after the event (unchanged for
	// Suspected, advanced for Confirmed and Rejoined).
	Epoch int
}

// View is one epoch's membership.
type View struct {
	Epoch   int
	At      float64 // installation time
	Members []int   // ascending
}

type memberState struct {
	phase       Phase
	lastHeard   float64
	suspectedAt float64
	// slack widens this member's timeouts: deadline = base * slack.
	slack float64
}

// Detector is the failure-detector state machine. Not safe for concurrent
// use; drive it from a single (simulated) timeline with non-decreasing
// timestamps.
type Detector struct {
	cfg     Config
	members map[int]*memberState
	order   []int // ascending member ids, the deterministic scan order
	epoch   int
	viewAt  float64
}

// New builds a detector over the member universe, all Alive and heard at
// start. The initial view has epoch 1.
func New(cfg Config, members []int, start float64) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("membership: empty member set")
	}
	d := &Detector{
		cfg:     cfg,
		members: map[int]*memberState{},
		epoch:   1,
		viewAt:  start,
	}
	d.order = append(d.order, members...)
	sort.Ints(d.order)
	rng := workload.NewRNG(cfg.Seed)
	for _, h := range d.order {
		if _, dup := d.members[h]; dup {
			return nil, fmt.Errorf("membership: duplicate member %d", h)
		}
		d.members[h] = &memberState{
			phase:     Alive,
			lastHeard: start,
			slack:     1 + cfg.JitterFrac*rng.Float64(),
		}
	}
	return d, nil
}

// Epoch returns the current epoch.
func (d *Detector) Epoch() int { return d.epoch }

// Phase returns a member's phase (Crashed for unknown hosts).
func (d *Detector) Phase(h int) Phase {
	m, ok := d.members[h]
	if !ok {
		return Crashed
	}
	return m.phase
}

// View returns the current view: the members not Crashed.
func (d *Detector) View() View {
	v := View{Epoch: d.epoch, At: d.viewAt}
	for _, h := range d.order {
		if d.members[h].phase != Crashed {
			v.Members = append(v.Members, h)
		}
	}
	return v
}

// deadline returns a member's next timeout, or false if it has none
// (Crashed members only leave by heartbeat).
func (d *Detector) deadline(m *memberState) (float64, bool) {
	switch m.phase {
	case Alive:
		return m.lastHeard + d.cfg.SuspectAfter*m.slack, true
	case Suspect:
		return m.suspectedAt + d.cfg.ConfirmAfter*m.slack, true
	default:
		return 0, false
	}
}

// NextDeadline returns the earliest pending timeout, if any — the time the
// driver should call Advance next when no heartbeat arrives first.
func (d *Detector) NextDeadline() (float64, bool) {
	best, ok := 0.0, false
	for _, h := range d.order {
		if t, has := d.deadline(d.members[h]); has && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// Advance processes every timeout due at or before now, in (time, host)
// order, and returns the transitions. Confirmed events advance the epoch.
func (d *Detector) Advance(now float64) []Event {
	var out []Event
	for {
		at, host := 0.0, -1
		for _, h := range d.order {
			m := d.members[h]
			if t, has := d.deadline(m); has && t <= now && (host < 0 || t < at) {
				at, host = t, h
			}
		}
		if host < 0 {
			return out
		}
		m := d.members[host]
		switch m.phase {
		case Alive:
			m.phase = Suspect
			m.suspectedAt = at
			out = append(out, Event{At: at, Host: host, Kind: Suspected, Epoch: d.epoch})
		case Suspect:
			m.phase = Crashed
			d.epoch++
			d.viewAt = at
			out = append(out, Event{At: at, Host: host, Kind: Confirmed, Epoch: d.epoch})
		}
	}
}

// Witness records first-hand knowledge that a member is alive at the
// given time, WITHOUT judging pending timeouts first: unlike Heartbeat,
// it can save a member whose confirmation deadline already passed. It is
// for drivers colocated with a member (a supervisor that IS the member's
// protocol engine): their own liveness proves the member's, so a late
// observation must not be outweighed by the silence that scheduling
// delays manufactured. A Suspect member is reinstated silently; a Crashed
// member re-admitted in a new epoch; unknown hosts are ignored.
func (d *Detector) Witness(host int, at float64) []Event {
	m, ok := d.members[host]
	if !ok {
		return nil
	}
	if at > m.lastHeard {
		m.lastHeard = at
	}
	switch m.phase {
	case Suspect:
		m.phase = Alive
	case Crashed:
		m.phase = Alive
		d.epoch++
		d.viewAt = at
		return []Event{{At: at, Host: host, Kind: Rejoined, Epoch: d.epoch}}
	}
	return nil
}

// Heartbeat records a heartbeat from a member at the given time, first
// advancing pending timeouts up to that time (so a beat cannot save a
// member whose confirmation deadline already passed). A beat from a
// Suspect member reinstates it silently; a beat from a Crashed member
// re-admits it in a new epoch. Beats from unknown hosts are ignored.
func (d *Detector) Heartbeat(from int, at float64) []Event {
	events := d.Advance(at)
	m, ok := d.members[from]
	if !ok {
		return events
	}
	m.lastHeard = at
	switch m.phase {
	case Suspect:
		m.phase = Alive
	case Crashed:
		m.phase = Alive
		d.epoch++
		d.viewAt = at
		events = append(events, Event{At: at, Host: from, Kind: Rejoined, Epoch: d.epoch})
	}
	return events
}
