// Package fault is the reliable runtime's fault plane, for both of its
// transports: the switched network and package live/link. A Plan says
// what goes wrong in a run; Arm turns it into the State the run consults.
// Plan times are microseconds on the run's clock: virtual time under
// live.RunVirtual, the offset from the run's start on a live fabric, whose
// adapter (package live/link) converts at send time.
//
// Loss is a property of each edge incarnation: Edge hands out one
// splitmix64 stream per (from, to, generation), generations numbered per
// host pair from 0, and Acks one per acknowledging host. Every engine
// draws the n-th transmission of an incarnation from its stream with
// Transmit, so one seed drops the same copies in virtual time and on the
// wire, and a crash changes only the draws it touches.
package fault

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/workload"
)

// Plan describes the faults of one run. The zero value injects nothing.
type Plan struct {
	Seed        uint64        // seed of every loss stream
	DropRate    float64       // per-transmission loss probability
	CorruptRate float64       // per-transmission single-byte corruption probability
	AckDropRate float64       // per-acknowledgment loss probability
	ReorderRate float64       // probability a frame is held back and swapped with the next
	MaxJitter   time.Duration // per-frame extra wire delay, uniform in [0, MaxJitter)
	Stalls      []Stall
	Kills       []Kill
	Crashes     []Crash
}

// Stall freezes one host's NI send engine during [From, Until): an
// injection attempted inside the window waits it out; receives continue.
type Stall struct {
	Host        int
	From, Until float64
}

// Kill schedules the death of one link at At: from then on every copy
// injected across it is lost. A switched network kills its link Link; a
// live fabric has no switches, so its kills set Link to Pair and name the
// directed host pair From->To.
type Kill struct {
	Link, From, To int
	At             float64
}

// Pair is the Link of a kill that names a directed host pair.
const Pair = -1

// Crash schedules a crash of one host at At: it neither sends, receives,
// acknowledges nor forwards, and loses its NI state. With RecoverAt > At
// it rejoins then, empty; with RecoverAt 0 it never comes back. At most
// one crash per host.
type Crash struct {
	Host          int
	At, RecoverAt float64
}

// Validate reports the first invalid field.
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"drop", p.DropRate}, {"corrupt", p.CorruptRate}, {"ack-drop", p.AckDropRate}, {"reorder", p.ReorderRate}} {
		if !(r.v >= 0 && r.v < 1) {
			return fmt.Errorf("fault: %s rate %f outside [0, 1)", r.name, r.v)
		}
	}
	if p.MaxJitter < 0 {
		return fmt.Errorf("fault: negative jitter %v", p.MaxJitter)
	}
	for _, s := range p.Stalls {
		if s.Host < 0 || !(s.From >= 0) || !(s.Until > s.From) {
			return fmt.Errorf("fault: invalid stall window %+v", s)
		}
	}
	for _, k := range p.Kills {
		pair := k.Link == Pair && k.From >= 0 && k.To >= 0 && k.From != k.To
		if !(k.At >= 0) || !pair && !(k.Link >= 0 && k.From == 0 && k.To == 0) {
			return fmt.Errorf("fault: invalid kill %+v", k)
		}
	}
	crashed := map[int]bool{}
	for _, c := range p.Crashes {
		switch {
		case c.Host < 0 || !(c.At >= 0):
			return fmt.Errorf("fault: invalid crash %+v", c)
		case c.RecoverAt != 0 && !(c.RecoverAt > c.At):
			return fmt.Errorf("fault: host %d recovery at %f not after crash at %f", c.Host, c.RecoverAt, c.At)
		case crashed[c.Host]:
			return fmt.Errorf("fault: host %d crashed more than once", c.Host)
		}
		crashed[c.Host] = true
	}
	return nil
}

// Honours is a set of plan fields an engine carries out.
type Honours uint16

// The plan fields, as an engine names what it honours.
const (
	Drop Honours = 1 << iota
	Corrupt
	AckDrop
	Reorder
	Jitter
	Stalls
	LinkKills
	PairKills
	Crashes
)

// RefusedError is the typed refusal of a plan field an engine cannot
// carry out, where ignoring it would report a run that did not happen.
type RefusedError struct{ Engine, Field string }

func (e *RefusedError) Error() string {
	return fmt.Sprintf("%s: fault plan field %s is not supported", e.Engine, e.Field)
}

// Admit refuses what engine cannot run: first, as a *RefusedError, a
// field the plan sets that the engine does not honour; then a fault
// naming what the run does not have — a link outside the network's
// 0..links-1, or a host member says is not in the tree (a crash, or an
// end of a killed pair).
func (p Plan) Admit(engine string, h Honours, links int, member func(host int) bool) error {
	linkKills, pairKills := false, false
	for _, k := range p.Kills {
		linkKills, pairKills = linkKills || k.Link != Pair, pairKills || k.Link == Pair
	}
	for _, f := range []struct {
		h    Honours
		set  bool
		name string
	}{
		{Drop, p.DropRate != 0, "DropRate"}, {Corrupt, p.CorruptRate != 0, "CorruptRate"},
		{AckDrop, p.AckDropRate != 0, "AckDropRate"}, {Reorder, p.ReorderRate != 0, "ReorderRate"},
		{Jitter, p.MaxJitter != 0, "MaxJitter"}, {Stalls, len(p.Stalls) > 0, "Stalls"},
		{LinkKills, linkKills, "Kills (link)"}, {PairKills, pairKills, "Kills (host pair)"},
		{Crashes, len(p.Crashes) > 0, "Crashes"},
	} {
		if f.set && h&f.h == 0 {
			return &RefusedError{engine, f.name}
		}
	}
	for _, k := range p.Kills {
		if k.Link >= links {
			return fmt.Errorf("fault: kill link %d out of range (network has links 0..%d)", k.Link, links-1)
		}
		if k.Link == Pair && !(member(k.From) && member(k.To)) {
			return fmt.Errorf("fault: kill of host pair %d->%d outside the tree", k.From, k.To)
		}
	}
	for _, c := range p.Crashes {
		if !member(c.Host) {
			return fmt.Errorf("fault: crash of host %d outside the tree", c.Host)
		}
	}
	return nil
}

// Stats counts the faults one run actually injected.
type Stats struct {
	Dropped     int     // copies lost in transit
	Corrupted   int     // copies delivered with a damaged byte
	Reordered   int     // frames held back and swapped with their successor
	AcksDropped int     // acknowledgments lost
	DeadSends   int     // injections across an already-killed link
	CrashDrops  int     // copies lost because a host was down
	Crashes     int     // host crashes applied
	Recoveries  int     // host recoveries applied
	StallWait   float64 // total injection delay caused by stalls
}

// State is one run's armed plan: normalized stall windows, kills by link
// and by directed pair, the crash schedule, and the counters. It is safe
// for concurrent use, and a nil *State is the lossless plane.
type State struct {
	p       Plan
	stalls  map[int][]Stall  // per host, ascending and merged
	kills   map[Kill]float64 // a kill (At zeroed) -> its earliest At
	crashes []Crash          // ascending by (At, Host)

	dropped, corrupted, reordered, acksDropped   atomic.Int64
	deadSends, crashDrops, crashCount, recovered atomic.Int64
	stallWait                                    atomic.Uint64 // float64 bits
}

// Arm validates the plan and builds its per-run state.
func (p Plan) Arm() (*State, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &State{p: p, stalls: map[int][]Stall{}, kills: map[Kill]float64{}, crashes: append([]Crash(nil), p.Crashes...)}
	for _, w := range p.Stalls {
		s.stalls[w.Host] = append(s.stalls[w.Host], w)
	}
	for h, ws := range s.stalls {
		sort.Slice(ws, func(i, j int) bool { return ws[i].From < ws[j].From })
		merged := ws[:1]
		for _, w := range ws[1:] {
			if last := &merged[len(merged)-1]; w.From <= last.Until {
				last.Until = math.Max(last.Until, w.Until)
			} else {
				merged = append(merged, w)
			}
		}
		s.stalls[h] = merged
	}
	for _, k := range p.Kills {
		at := k.At
		if k.At = 0; at < s.killedAt(k) {
			s.kills[k] = at
		}
	}
	sort.Slice(s.crashes, func(i, j int) bool {
		a, b := s.crashes[i], s.crashes[j]
		return a.At < b.At || a.At == b.At && a.Host < b.Host
	})
	return s, nil
}

// killedAt is when kill k (At zeroed) first strikes: +Inf if never.
func (s *State) killedAt(k Kill) float64 {
	if at, ok := s.kills[k]; ok {
		return at
	}
	return math.Inf(1)
}

// Stats snapshots the counters.
func (s *State) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	n := func(c *atomic.Int64) int { return int(c.Load()) }
	return Stats{Dropped: n(&s.dropped), Corrupted: n(&s.corrupted), Reordered: n(&s.reordered),
		AcksDropped: n(&s.acksDropped), DeadSends: n(&s.deadSends), CrashDrops: n(&s.crashDrops),
		Crashes: n(&s.crashCount), Recoveries: n(&s.recovered), StallWait: math.Float64frombits(s.stallWait.Load())}
}

// Quiet reports whether the plan leaves every transmission alone: no
// loss, corruption, reordering, jitter, stall or kill (or no plan).
func (s *State) Quiet() bool {
	return s == nil || s.p.DropRate == 0 && s.p.CorruptRate == 0 && s.p.ReorderRate == 0 &&
		s.p.MaxJitter == 0 && len(s.p.Stalls) == 0 && len(s.p.Kills) == 0
}

// StallDelay returns how long host h's send engine, attempted at t, must
// wait, adding the wait to the stats.
func (s *State) StallDelay(h int, t float64) float64 {
	if s == nil {
		return 0
	}
	for _, w := range s.stalls[h] {
		if t < w.From {
			return 0
		}
		if d := w.Until - t; d > 0 {
			for old := s.stallWait.Load(); !s.stallWait.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)); {
				old = s.stallWait.Load()
			}
			return d
		}
	}
	return 0
}

// RouteDead reports whether any channel of a route crosses a link killed
// at or before t, counting the lost injection when so. Channel c belongs
// to link c/2 (topology.Link.Channel).
func (s *State) RouteDead(chans []int, t float64) bool {
	if s == nil || len(s.kills) == 0 {
		return false
	}
	for _, c := range chans {
		if t >= s.killedAt(Kill{Link: c / 2}) {
			s.deadSends.Add(1)
			return true
		}
	}
	return false
}

// PairDead reports whether the directed pair from->to is killed at or
// before t, counting frames lost injections when so.
func (s *State) PairDead(from, to int, t float64, frames int) bool {
	dead := t >= s.killedAt(Kill{Link: Pair, From: from, To: to})
	if dead {
		s.deadSends.Add(int64(frames))
	}
	return dead
}

// KilledLinks returns the links killed at or before t, ascending: the set
// a repair must route around.
func (s *State) KilledLinks(t float64) []int {
	var out []int
	for k, at := range s.kills {
		if k.Link != Pair && t >= at {
			out = append(out, k.Link)
		}
	}
	sort.Ints(out)
	return out
}

// Crashes returns the crash schedule, ascending by (At, Host). The slice
// is shared; callers must not modify it.
func (s *State) Crashes() []Crash {
	if s == nil {
		return nil
	}
	return s.crashes
}

// HostDown reports whether host h is crashed, and not yet recovered, at t.
func (s *State) HostDown(h int, t float64) bool {
	for _, c := range s.Crashes() {
		if c.Host == h {
			return t >= c.At && (c.RecoverAt == 0 || t < c.RecoverAt)
		}
	}
	return false
}

// DownHosts returns the hosts down at t, ascending.
func (s *State) DownHosts(t float64) []int {
	var out []int
	for _, c := range s.Crashes() {
		if s.HostDown(c.Host, t) {
			out = append(out, c.Host)
		}
	}
	sort.Ints(out)
	return out
}

// NoteCrash, NoteRecovery and NoteCrashDrop count a crash applied, a
// recovery applied, and a copy lost because its host was down.
func (s *State) NoteCrash()     { s.crashCount.Add(1) }
func (s *State) NoteRecovery()  { s.recovered.Add(1) }
func (s *State) NoteCrashDrop() { s.crashDrops.Add(1) }

// Stream is one loss stream, an edge incarnation's or an acknowledging
// host's, held by value by the one goroutine that draws from it. The zero
// Stream never loses anything.
type Stream struct {
	s   *State
	rng workload.RNG
	pat Pattern
}

// Pattern is what an edge incarnation's stream decided: how many
// transmissions drew a loss decision, and which of the first 64 it lost.
type Pattern struct {
	From, To, Gen, Sent int
	Lost                uint64 // bit i: transmission i was dropped
}

// Edge returns the loss stream of generation gen of edge from->to.
func (s *State) Edge(from, to, gen int) Stream {
	if s == nil {
		return Stream{}
	}
	// splitmix64-style odd constants decorrelate the endpoints and the
	// generation.
	seed := s.p.Seed ^ uint64(from+1)*0x9e37_79b9_7f4a_7c15 ^ uint64(to+1)*0xbf58_476d_1ce4_e5b9 ^ uint64(gen)*0x2545_f491_4f6c_dd1d
	return Stream{s: s, rng: *workload.NewRNG(seed), pat: Pattern{From: from, To: to, Gen: gen}}
}

// Acks returns host's acknowledgment-loss stream.
func (s *State) Acks(host int) Stream {
	if s == nil {
		return Stream{}
	}
	return Stream{s: s, rng: *workload.NewRNG(s.p.Seed ^ uint64(host+1)*0x94d0_49bb_1331_11eb)}
}

// Transmit draws the fate of one transmission of size bytes: drop first,
// then, for a survivor, corruption and the byte it damages. corrupt is
// that byte's offset, or -1 when the copy arrives intact (an empty copy
// has no byte to damage). A rate of zero draws nothing.
func (st *Stream) Transmit(size int) (drop bool, corrupt int) {
	s := st.s
	if s == nil {
		return false, -1
	}
	if drop = st.draw(s.p.DropRate, &s.dropped); s.p.DropRate > 0 {
		if drop {
			st.pat.Lost |= 1 << min(st.pat.Sent, 64) // a shift of 64 records nothing
		}
		st.pat.Sent++
	}
	if corrupt = -1; !drop && st.draw(s.p.CorruptRate, &s.corrupted) && size > 0 {
		corrupt = st.rng.Intn(size)
	}
	return drop, corrupt
}

// Delay draws one frame's extra wire delay, uniform in [0, MaxJitter).
func (st *Stream) Delay() time.Duration {
	if st.s == nil || st.s.p.MaxJitter == 0 {
		return 0
	}
	return time.Duration(st.rng.Float64() * float64(st.s.p.MaxJitter))
}

// Hold draws whether a frame is held back to swap places with the next
// one, counting it when so.
func (st *Stream) Hold() bool {
	return st.s != nil && st.draw(st.s.p.ReorderRate, &st.s.reordered)
}

// AckLost draws one acknowledgment's loss, counting it when so.
func (st *Stream) AckLost() bool {
	return st.s != nil && st.draw(st.s.p.AckDropRate, &st.s.acksDropped)
}

// draw is one Bernoulli draw at rate, counted into c when it fires; rate
// zero draws nothing.
func (st *Stream) draw(rate float64, c *atomic.Int64) bool {
	if rate == 0 || st.rng.Float64() >= rate {
		return false
	}
	c.Add(1)
	return true
}

// Pattern returns what the stream has decided so far.
func (st *Stream) Pattern() Pattern { return st.pat }
