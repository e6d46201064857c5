package link

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workload"
)

// StallWindow freezes one host's outbound transports during a wall-clock
// window relative to the chaos plane's start: a Send attempted inside
// [From, Until) waits the window out first. The live analogue of the
// simulator's NI stall (netiface.Stall).
type StallWindow struct {
	Host        int
	From, Until time.Duration
}

// LinkKill schedules the death of one directed transport at a wall-clock
// offset from the chaos plane's start: from At on, every Send between the
// pair silently eats its frame. (The simulator kills physical links; the
// live fabric has no switches, so the kill is per directed host pair.)
type LinkKill struct {
	From, To int
	At       time.Duration
}

// Faults configures the live chaos plane — the wall-clock port of the
// simulator's FaultPlan (sim.FaultPlan). Probabilistic faults are sampled
// from private splitmix64 streams derived from Seed, one stream per
// directed edge, so decisions are deterministic per edge regardless of
// goroutine interleaving. The zero value injects nothing.
type Faults struct {
	Seed        uint64
	DropRate    float64       // per-transmission frame loss probability
	CorruptRate float64       // per-transmission byte-corruption probability
	ReorderRate float64       // probability a frame is held and swapped with the next
	AckDropRate float64       // control-packet (ACK) loss probability
	MaxJitter   time.Duration // per-frame extra delay, uniform in [0, MaxJitter)
	Stalls      []StallWindow
	Kills       []LinkKill
}

// Validate reports the first invalid field.
func (f Faults) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"drop", f.DropRate}, {"corrupt", f.CorruptRate}, {"reorder", f.ReorderRate}, {"ack-drop", f.AckDropRate}} {
		if r.v < 0 || r.v >= 1 {
			return fmt.Errorf("link: %s rate %f outside [0, 1)", r.name, r.v)
		}
	}
	if f.MaxJitter < 0 {
		return fmt.Errorf("link: negative jitter %v", f.MaxJitter)
	}
	for _, s := range f.Stalls {
		if s.Host < 0 || s.From < 0 || s.Until <= s.From {
			return fmt.Errorf("link: invalid stall window %+v", s)
		}
	}
	for _, k := range f.Kills {
		if k.From < 0 || k.To < 0 || k.From == k.To || k.At < 0 {
			return fmt.Errorf("link: invalid link kill %+v", k)
		}
	}
	return nil
}

// Zero reports whether the plane injects no faults at all, so Wrap can
// take the lossless fast path (the bare reference transport).
func (f Faults) Zero() bool {
	return f.DropRate == 0 && f.CorruptRate == 0 && f.ReorderRate == 0 &&
		f.AckDropRate == 0 && f.MaxJitter == 0 && len(f.Stalls) == 0 && len(f.Kills) == 0
}

// ChaosStats is a snapshot of the faults a chaos plane actually injected.
type ChaosStats struct {
	Dropped     int64         // frames lost in transit
	Corrupted   int64         // frames delivered with a damaged byte
	Reordered   int64         // frames held back and swapped with a successor
	DeadSends   int64         // sends across an already-killed transport
	AcksDropped int64         // control packets (ACKs) lost
	StallWait   time.Duration // total send delay caused by stall windows
}

// Total returns the number of discrete fault events (StallWait excluded).
func (s ChaosStats) Total() int64 {
	return s.Dropped + s.Corrupted + s.Reordered + s.DeadSends + s.AcksDropped
}

// Chaos is one run's armed fault plane, shared by every transport of a
// fabric. Sampling state is per directed edge (each edge sender owns its
// transport, so per-edge streams need no locking); the counters are
// atomic so any goroutine may fault concurrently. A nil *Chaos is the
// lossless plane: Wrap returns transports unchanged and AckDrop never
// fires.
type Chaos struct {
	f      Faults
	start  time.Time
	stalls map[int][]StallWindow
	kills  map[[2]int]time.Duration

	mu  sync.Mutex
	gen map[[2]int]uint64 // per-pair dial count, salts redial streams

	dropped, corrupted, reordered atomic.Int64
	deadSends, acksDropped        atomic.Int64
	stallWait                     atomic.Int64 // nanoseconds
}

// NewChaos validates and arms a fault plane. The wall clock starts at
// time-of-call; Start rebases it (the runtime calls Start at t0 so stall
// and kill offsets align with its own timeline).
func NewChaos(f Faults) (*Chaos, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	c := &Chaos{
		f:      f,
		start:  time.Now(),
		stalls: map[int][]StallWindow{},
		kills:  map[[2]int]time.Duration{},
		gen:    map[[2]int]uint64{},
	}
	for _, s := range f.Stalls {
		c.stalls[s.Host] = append(c.stalls[s.Host], s)
	}
	for _, k := range f.Kills {
		key := [2]int{k.From, k.To}
		if at, ok := c.kills[key]; !ok || k.At < at {
			c.kills[key] = k.At
		}
	}
	return c, nil
}

// Start rebases the plane's wall clock. Call before any traffic flows;
// the field is read without synchronization afterwards.
func (c *Chaos) Start(t time.Time) {
	if c != nil {
		c.start = t
	}
}

// Stats snapshots the running fault counters.
func (c *Chaos) Stats() ChaosStats {
	if c == nil {
		return ChaosStats{}
	}
	return ChaosStats{
		Dropped:     c.dropped.Load(),
		Corrupted:   c.corrupted.Load(),
		Reordered:   c.reordered.Load(),
		DeadSends:   c.deadSends.Load(),
		AcksDropped: c.acksDropped.Load(),
		StallWait:   time.Duration(c.stallWait.Load()),
	}
}

// Mixing constants decorrelating the per-edge, per-host and redial
// streams (splitmix64-style odd constants, like sim's jitterMix).
const (
	edgeFromMix = 0x9e37_79b9_7f4a_7c15
	edgeToMix   = 0xbf58_476d_1ce4_e5b9
	ackMix      = 0x94d0_49bb_1331_11eb
	genMix      = 0x2545_f491_4f6c_dd1d
)

// edgeSeed derives the deterministic sampling stream of one directed edge
// incarnation.
func (c *Chaos) edgeSeed(from, to int, gen uint64) uint64 {
	return c.f.Seed ^ uint64(from+1)*edgeFromMix ^ uint64(to+1)*edgeToMix ^ gen*genMix
}

// AckRNG returns host's private stream for ACK-loss sampling — owned by
// the receiving NI goroutine, so no locking.
func (c *Chaos) AckRNG(host int) *workload.RNG {
	if c == nil {
		return workload.NewRNG(uint64(host+1) * ackMix)
	}
	return workload.NewRNG(c.f.Seed ^ uint64(host+1)*ackMix)
}

// AckDrop draws one control-packet-loss decision from the caller-owned
// stream, counting the loss.
func (c *Chaos) AckDrop(rng *workload.RNG) bool {
	if c == nil || c.f.AckDropRate == 0 {
		return false
	}
	if rng.Float64() < c.f.AckDropRate {
		c.acksDropped.Add(1)
		return true
	}
	return false
}

// Wrap decorates a transport with this fault plane. A nil or zero plane
// returns t unchanged — the lossless fast path stays byte-identical to
// the reference fabric. Each (from, to) redial gets a fresh, decorrelated
// sampling stream so a repaired edge does not replay its predecessor's
// loss pattern.
func (c *Chaos) Wrap(t Transport) Transport {
	if c == nil || c.f.Zero() {
		return t
	}
	key := [2]int{t.From(), t.To()}
	c.mu.Lock()
	gen := c.gen[key]
	c.gen[key]++
	c.mu.Unlock()
	return &FaultyTransport{
		c:     c,
		inner: t,
		rng:   workload.NewRNG(c.edgeSeed(t.From(), t.To(), gen)),
	}
}

// FaultyTransport decorates a Transport with the armed chaos plane:
// frame drop, single-byte corruption, hold-one reordering, bounded delay
// jitter, sender stall windows and scheduled kills. Like every Transport
// it is owned by one sending goroutine.
type FaultyTransport struct {
	c     *Chaos
	inner Transport
	rng   *workload.RNG
	held  []byte // reorder: frame held back to swap with the next send
}

var _ Transport = (*FaultyTransport)(nil)

// From returns the sending host; To the receiving host.
func (ft *FaultyTransport) From() int { return ft.inner.From() }

// To returns the receiving host.
func (ft *FaultyTransport) To() int { return ft.inner.To() }

// Send pushes one frame through the fault plane. Injected faults are
// silent: a dropped, eaten or held frame still returns nil, because a
// real NI cannot tell either. Only an abort surfaces as an error.
func (ft *FaultyTransport) Send(payload []byte, abort <-chan struct{}) error {
	c := ft.c
	now := time.Since(c.start)
	if d := c.stallDelay(ft.From(), now); d > 0 {
		c.stallWait.Add(int64(d))
		if err := sleepAbort(d, abort); err != nil {
			return err
		}
		now += d
	}
	if at, ok := c.kills[[2]int{ft.From(), ft.To()}]; ok && now >= at {
		// The edge is dead: this frame and any held one are eaten.
		if ft.held != nil {
			ft.held = nil
			c.deadSends.Add(1)
		}
		c.deadSends.Add(1)
		return nil
	}
	if c.f.DropRate > 0 && ft.rng.Float64() < c.f.DropRate {
		c.dropped.Add(1)
		return nil
	}
	if c.f.CorruptRate > 0 && ft.rng.Float64() < c.f.CorruptRate {
		bad := append([]byte(nil), payload...)
		if len(bad) > 0 {
			bad[ft.rng.Intn(len(bad))] ^= 0xA5
		}
		payload = bad
		c.corrupted.Add(1)
	}
	if c.f.MaxJitter > 0 {
		d := time.Duration(ft.rng.Float64() * float64(c.f.MaxJitter))
		if err := sleepAbort(d, abort); err != nil {
			return err
		}
	}
	if ft.held != nil {
		// A frame is being held back: deliver the new one first, then
		// flush the held one — the two swap places on the wire.
		if err := ft.inner.Send(payload, abort); err != nil {
			return err
		}
		h := ft.held
		ft.held = nil
		return ft.inner.Send(h, abort)
	}
	if c.f.ReorderRate > 0 && ft.rng.Float64() < c.f.ReorderRate {
		ft.held = payload
		c.reordered.Add(1)
		return nil
	}
	return ft.inner.Send(payload, abort)
}

// stallDelay returns how long a send by host h at offset now must wait.
func (c *Chaos) stallDelay(h int, now time.Duration) time.Duration {
	var d time.Duration
	for _, w := range c.stalls[h] {
		if now >= w.From && now < w.Until && w.Until-now > d {
			d = w.Until - now
		}
	}
	return d
}

// sleepAbort sleeps d, returning ErrAborted early if abort closes.
func sleepAbort(d time.Duration, abort <-chan struct{}) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-abort:
		return ErrAborted
	}
}
