package sim

import (
	"fmt"
	"sort"

	"repro/internal/netiface"
	"repro/internal/workload"
)

// LinkKill schedules the death of one bidirectional link at an absolute
// simulation time: from At on, both directed channels silently eat every
// packet injected across them.
type LinkKill struct {
	Link int     // link ID in the network the router was built for
	At   float64 // microseconds
}

// HostStall freezes one host's NI send engine during a time window (see
// netiface.Stall); receives continue, injections wait the window out.
type HostStall struct {
	Host  int
	Stall netiface.Stall
}

// HostCrash schedules a crash-stop of one host at an absolute simulation
// time: from At on, the host neither sends, receives, acknowledges, nor
// forwards, and every packet addressed to it is lost on arrival. A crash
// drops the host's entire NI state — send queue, receive buffers,
// reassembly progress. If RecoverAt > At the host rejoins at RecoverAt
// with empty buffers (crash-recovery); RecoverAt == 0 means the host
// never comes back (crash-stop). At most one crash may be scheduled per
// host.
type HostCrash struct {
	Host      int
	At        float64 // microseconds
	RecoverAt float64 // 0 = never; otherwise must be > At
}

// FaultPlan describes the dynamic faults of one simulated run. The plan is
// fully deterministic: probabilistic faults are sampled from a private
// splitmix64 stream seeded by Seed, in event order, so a (plan, workload)
// pair replays identically. The zero value is the lossless plan.
type FaultPlan struct {
	Seed        uint64  // seed of the fault-sampling RNG
	DropRate    float64 // per-transmission data-packet loss probability
	CorruptRate float64 // per-transmission byte-corruption probability
	AckDropRate float64 // control-packet (ACK/NACK) loss probability
	Stalls      []HostStall
	Kills       []LinkKill
	Crashes     []HostCrash
}

// Validate reports the first invalid field.
func (p FaultPlan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"drop", p.DropRate}, {"corrupt", p.CorruptRate}, {"ack-drop", p.AckDropRate}} {
		if r.v < 0 || r.v >= 1 {
			return fmt.Errorf("sim: %s rate %f outside [0, 1)", r.name, r.v)
		}
	}
	for _, s := range p.Stalls {
		if s.Host < 0 {
			return fmt.Errorf("sim: stall on negative host %d", s.Host)
		}
		if _, err := netiface.NormalizeStalls([]netiface.Stall{s.Stall}); err != nil {
			return err
		}
	}
	for _, k := range p.Kills {
		if k.Link < 0 || k.At < 0 {
			return fmt.Errorf("sim: invalid link kill %+v", k)
		}
	}
	crashed := map[int]bool{}
	for _, c := range p.Crashes {
		if c.Host < 0 || c.At < 0 {
			return fmt.Errorf("sim: invalid host crash %+v", c)
		}
		if c.RecoverAt != 0 && c.RecoverAt <= c.At {
			return fmt.Errorf("sim: host %d recovery at %f not after crash at %f", c.Host, c.RecoverAt, c.At)
		}
		if crashed[c.Host] {
			return fmt.Errorf("sim: host %d crashed more than once", c.Host)
		}
		crashed[c.Host] = true
	}
	return nil
}

// FaultStats counts the faults one run actually injected.
type FaultStats struct {
	Dropped    int     // data packets lost in transit
	Corrupted  int     // data packets delivered with damaged bytes
	AcksLost   int     // control packets (ACK/NACK) lost
	DeadSends  int     // injections across an already-killed link (lost)
	CrashDrops int     // packets lost because a host was down (crashed)
	Crashes    int     // host-crash events applied during the run
	Recoveries int     // host-recovery events applied during the run
	StallWait  float64 // total injection delay caused by NI stalls (us)
}

// FaultState is one run's armed fault plan: a private RNG, normalized
// per-host stall windows, and the kill schedule, plus the running
// counters. Arm a fresh state per run; it is not safe for concurrent use.
// All sampling methods are nil-receiver-safe and fault-free on nil, so the
// simulator can consult an unarmed state unconditionally.
type FaultState struct {
	rng *workload.RNG
	// jrng is a dedicated stream for retransmission-backoff jitter,
	// decorrelated from the drop/corrupt/ack sampling stream. Keeping the
	// two apart means crash- or repair-induced extra backoff draws cannot
	// shift the loss decisions of the rest of the run, so a crash replay
	// differs from its crash-free counterpart only where the crash itself
	// intervened.
	jrng                   *workload.RNG
	drop, corrupt, ackDrop float64
	stalls                 map[int][]netiface.Stall
	killAt                 map[int]float64
	crashes                []HostCrash
	crashAt                map[int]float64
	recoverAt              map[int]float64
	Stats                  FaultStats
}

// jitterMix decorrelates the backoff-jitter stream from the loss stream.
const jitterMix = 0x9e6c_a61b_60ca_77d5

// Arm validates the plan and builds its per-run state.
func (p FaultPlan) Arm() (*FaultState, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := &FaultState{
		rng:       workload.NewRNG(p.Seed),
		jrng:      workload.NewRNG(p.Seed ^ jitterMix),
		stalls:    map[int][]netiface.Stall{},
		killAt:    map[int]float64{},
		crashAt:   map[int]float64{},
		recoverAt: map[int]float64{},
	}
	f.drop, f.corrupt, f.ackDrop = p.DropRate, p.CorruptRate, p.AckDropRate
	f.crashes = append([]HostCrash(nil), p.Crashes...)
	sort.Slice(f.crashes, func(i, j int) bool {
		if f.crashes[i].At != f.crashes[j].At {
			return f.crashes[i].At < f.crashes[j].At
		}
		return f.crashes[i].Host < f.crashes[j].Host
	})
	for _, c := range f.crashes {
		f.crashAt[c.Host] = c.At
		if c.RecoverAt > 0 {
			f.recoverAt[c.Host] = c.RecoverAt
		}
	}
	byHost := map[int][]netiface.Stall{}
	for _, s := range p.Stalls {
		byHost[s.Host] = append(byHost[s.Host], s.Stall)
	}
	for h, ws := range byHost {
		norm, err := netiface.NormalizeStalls(ws)
		if err != nil {
			return nil, err
		}
		f.stalls[h] = norm
	}
	for _, k := range p.Kills {
		if t, ok := f.killAt[k.Link]; !ok || k.At < t {
			f.killAt[k.Link] = k.At
		}
	}
	return f, nil
}

// SampleDrop draws one data-loss decision.
func (f *FaultState) SampleDrop() bool {
	if f == nil || f.drop == 0 {
		return false
	}
	if f.rng.Float64() < f.drop {
		f.Stats.Dropped++
		return true
	}
	return false
}

// SampleCorrupt draws one corruption decision.
func (f *FaultState) SampleCorrupt() bool {
	if f == nil || f.corrupt == 0 {
		return false
	}
	if f.rng.Float64() < f.corrupt {
		f.Stats.Corrupted++
		return true
	}
	return false
}

// SampleAckDrop draws one control-packet-loss decision.
func (f *FaultState) SampleAckDrop() bool {
	if f == nil || f.ackDrop == 0 {
		return false
	}
	if f.rng.Float64() < f.ackDrop {
		f.Stats.AcksLost++
		return true
	}
	return false
}

// CorruptByte picks the byte offset to damage in a packet of the given
// length, from the same deterministic stream as the fault decisions.
func (f *FaultState) CorruptByte(packetLen int) int {
	if f == nil || packetLen <= 0 {
		return 0
	}
	return f.rng.Intn(packetLen)
}

// Jitter returns a uniform draw in [0, frac) used to de-synchronize
// retransmission backoff; 0 on a nil state or non-positive frac. Jitter
// draws come from their own splitmix64 stream (seeded from the plan seed),
// so extra backoff during crash recovery never perturbs the loss stream.
func (f *FaultState) Jitter(frac float64) float64 {
	if f == nil || frac <= 0 {
		return 0
	}
	return f.jrng.Float64() * frac
}

// StallDelay returns how long host h's send engine attempted at time t must
// wait, accumulating the delay into the stats.
func (f *FaultState) StallDelay(h int, t float64) float64 {
	if f == nil {
		return 0
	}
	d := netiface.StallDelay(f.stalls[h], t)
	f.Stats.StallWait += d
	return d
}

// LinkDead reports whether the link is killed at or before time t.
func (f *FaultState) LinkDead(link int, t float64) bool {
	if f == nil {
		return false
	}
	at, ok := f.killAt[link]
	return ok && t >= at
}

// RouteDead reports whether any of a route's channels crosses a link that
// is dead when the packet enters the network at time t, counting the lost
// injection when so. Channel c belongs to link c/2 (topology.Link.Channel).
func (f *FaultState) RouteDead(chans []int, t float64) bool {
	if f == nil || len(f.killAt) == 0 {
		return false
	}
	for _, c := range chans {
		if f.LinkDead(c/2, t) {
			f.Stats.DeadSends++
			return true
		}
	}
	return false
}

// Crashes returns the armed host-crash schedule, ascending by (At, Host).
// The slice is shared; callers must not mutate it.
func (f *FaultState) Crashes() []HostCrash {
	if f == nil {
		return nil
	}
	return f.crashes
}

// HostDown reports whether host h is crashed (and not yet recovered) at
// time t.
func (f *FaultState) HostDown(h int, t float64) bool {
	if f == nil || len(f.crashAt) == 0 {
		return false
	}
	at, ok := f.crashAt[h]
	if !ok || t < at {
		return false
	}
	rec, ok := f.recoverAt[h]
	return !ok || t < rec
}

// DownHosts returns the hosts down at time t, ascending.
func (f *FaultState) DownHosts(t float64) []int {
	if f == nil {
		return nil
	}
	var out []int
	for h := range f.crashAt {
		if f.HostDown(h, t) {
			out = append(out, h)
		}
	}
	sort.Ints(out)
	return out
}

// NoteCrashDrop counts one packet lost because its endpoint was down.
func (f *FaultState) NoteCrashDrop() {
	if f != nil {
		f.Stats.CrashDrops++
	}
}

// KilledLinks returns the link IDs with a scheduled kill at or before t,
// ascending — the set a repair pass must route around.
func (f *FaultState) KilledLinks(t float64) []int {
	if f == nil {
		return nil
	}
	var out []int
	for l, at := range f.killAt {
		if t >= at {
			out = append(out, l)
		}
	}
	sort.Ints(out)
	return out
}
