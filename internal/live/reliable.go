package live

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/live/link"
	"repro/internal/membership"
	"repro/internal/reliable"
)

// This file is the in-process driver of the reliable protocol, whose parts
// (Share, ReliableShare, Supervisor) the multi-process daemon shares. What
// lives here is what only this engine has: config validation, the run's
// assembly (RunVirtual's too), and the verdict read from the quiescent NIs.
//
// Concurrency layout (strict ownership, like the lossless engine): one NI
// goroutine per host (the Share's), one sender goroutine per live tree
// edge, and the supervisor on RunReliable's goroutine. The only
// cross-goroutine mutable cells are atomics — the share's epoch register,
// each host's ACK route, and per edge the ACK bitmap, fenced count and
// cancel flag; all other coordination is by channel, or by the NI loop's
// hand-off.

// ReliableConfig tunes one RunReliable execution.
type ReliableConfig struct {
	// Live carries the base runtime knobs: BufferPackets and the watchdog
	// Timeout (the liveness backstop of the whole protocol).
	Live Config
	// Faults is the fault plane (zero = lossless edges), its times
	// microseconds from run start. Its Crashes crash NIs: from At on the NI
	// silently eats every frame addressed to it (releasing buffer slots so
	// senders never wedge), stops acknowledging, is no longer witnessed
	// alive, and its outgoing sends vanish; a host that recovers rejoins
	// amnesiac — reassembly and dedup state lost — and is re-adopted with a
	// full replay. A non-empty crash schedule arms the membership plane
	// (failure detector, epochs, fencing, adoption). Kills name directed
	// host pairs (fault.Pair).
	Faults fault.Plan
	// RTO is the base retransmission timeout; it doubles per attempt up to
	// RTOMax, widened by seeded jitter.
	RTO, RTOMax time.Duration
	// RetryBudget is the maximum retransmissions per (edge incarnation,
	// packet) before the edge is declared dead and its subtree repaired or
	// orphaned.
	RetryBudget int
	// MaxRegrafts bounds adoptions per destination before abandonment.
	MaxRegrafts int
	// Quorum is the minimum completing destinations for a crash-shortened
	// run to count as DeliveredPartial (0: all destinations required).
	Quorum int
	// Heartbeat parameterizes the failure detector; consulted only when
	// Faults.Crashes is non-empty.
	Heartbeat HeartbeatParams
}

// DefaultReliableConfig returns wall-clock defaults: RTO comfortably
// above scheduler noise, a detector that confirms in tens of
// milliseconds.
func DefaultReliableConfig() ReliableConfig {
	return ReliableConfig{
		RTO:         25 * time.Millisecond,
		RTOMax:      200 * time.Millisecond,
		RetryBudget: 8,
		MaxRegrafts: 4,
		Heartbeat: HeartbeatParams{
			SuspectAfter: 16 * time.Millisecond,
			ConfirmAfter: 12 * time.Millisecond,
		},
	}
}

// validate rejects a malformed configuration, and a fault plan naming
// links or hosts the session does not have.
func (cfg ReliableConfig) validate(s Session, virt *virtual) error {
	engine, honours, links := "live", fault.Drop|fault.Corrupt|fault.AckDrop|fault.Reorder|
		fault.Jitter|fault.Stalls|fault.PairKills|fault.Crashes, 0
	if virt != nil && virt.sys != nil {
		// A switched network kills links, not host pairs, and its frames
		// neither jitter nor overtake each other.
		engine, honours, links = "reliable", fault.Drop|fault.Corrupt|fault.AckDrop|fault.Stalls|
			fault.LinkKills|fault.Crashes, len(virt.sys.Net.Links())
	}
	if err := cfg.Faults.Admit(engine, honours, links, s.Tree.Contains); err != nil {
		return err
	}
	if cfg.RTO <= 0 || cfg.RTOMax < cfg.RTO {
		return fmt.Errorf("live: invalid RTO %v / cap %v", cfg.RTO, cfg.RTOMax)
	}
	if cfg.RetryBudget < 1 || cfg.MaxRegrafts < 1 {
		return fmt.Errorf("live: retry budget %d / regraft bound %d must be >= 1",
			cfg.RetryBudget, cfg.MaxRegrafts)
	}
	if cfg.Quorum < 0 {
		return fmt.Errorf("live: negative quorum %d", cfg.Quorum)
	}
	if len(cfg.Faults.Crashes) > 0 {
		hb := cfg.Heartbeat
		if hb.SuspectAfter <= 0 || hb.ConfirmAfter <= 0 {
			return fmt.Errorf("live: invalid heartbeat params %+v", hb)
		}
	}
	return nil
}

// EpochAccept is one novel packet acceptance while the membership plane
// was armed: which epoch the packet traveled under, per receiving host.
type EpochAccept struct {
	Host, Packet, Epoch int
	At                  time.Duration
}

// ReliableResult reports one reliable run: RunReliable's, RunVirtual's,
// Deliver's, or one daemon process's share of a deployed run
// (mcastd.Run and mcastd.RunReliable). It is returned alongside a
// *reliable.CrashError or *reliable.DeliveryError, so callers can inspect
// partial outcomes.
type ReliableResult struct {
	// Status is the delivery verdict (reliable.Verdict); a daemon that does
	// not run the root learns it from the root's STOP.
	Status reliable.Status
	// Hosts holds a record per tree node, a daemon's per local host (Data
	// nil for the root and for destinations that never completed;
	// Deliver's DoneAt includes the host's receive copy, t_r).
	Hosts map[int]*HostRecord
	// Latency is run start to the last completing destination in Hosts, so
	// a daemon's covers only its own; Wall is run start to teardown, or to
	// Deliver's last receive copy if later.
	Latency, Wall time.Duration
	Packets       int
	// Sends counts data-frame injections; Retransmits of those were repeat
	// attempts. Duplicates were suppressed by receivers, Fenced discarded
	// for stale epochs (data and ACKs).
	Sends, Retransmits, Duplicates, Fenced int
	// Adoptions counts subtree re-grafts (crash adoption, recovery
	// re-admission, and loss/kill repair).
	Adoptions int
	// Epoch is the final membership epoch (0 when never armed); Views the
	// installed epoch-numbered views.
	Epoch int
	Views []membership.View
	// Crashed lists hosts down at Wall; Orphaned destinations left without
	// the full payload, ascending. A daemon fills both only in the root's
	// process: what its supervisor confirmed dead, and every destination,
	// local or remote, whose completion it never heard.
	Crashed, Orphaned []int
	// Accepts is the epoch-stamp trace of novel acceptances (armed runs).
	Accepts []EpochAccept
	// Faults snapshots the fault plane's counters, frames eaten by a down
	// NI included; Losses is what each edge incarnation's loss stream
	// decided, in creation order (runs that draw no loss decision have
	// none). A daemon's are its own process's: its edges, its ACKs.
	Faults fault.Stats
	Losses []fault.Pattern
}

// rrt is the driver state of one reliable run: the reliable session of a
// share of every tree host, its supervisor and the armed fault plane.
type rrt struct {
	*ReliableShare
	sup    *Supervisor
	cfg    ReliableConfig
	s      Session
	faults *fault.State
}

// RunReliable executes one session under the reliable protocol and the
// configured fault plane, blocking until every awaited destination has
// the full payload, the quorum verdict is settled, or the watchdog fires.
// Like Deliver it returns the result alongside a typed error
// (*reliable.CrashError, *reliable.DeliveryError) on shortfalls; a
// *WatchdogError (nil result) means the protocol itself stalled.
func RunReliable(s Session, cfg ReliableConfig) (*ReliableResult, error) {
	rt, err := newRun(s, cfg, nil)
	if err != nil {
		return nil, err
	}
	rt.Start()
	timedOut := rt.sup.Run()
	wall := rt.Now()
	rt.Stop()
	return rt.result(timedOut, wall)
}

// newRun validates and arms one run of s: the reliable session of a share
// of every tree host, which virt drives when non-nil, and its supervisor.
func newRun(s Session, cfg ReliableConfig, virt *virtual) (*rrt, error) {
	if err := s.validate(0); err != nil {
		return nil, err
	}
	faults, err := cfg.Faults.Arm()
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(s, virt); err != nil {
		return nil, err
	}
	cfg.Live.Timeout = cmp.Or(cfg.Live.Timeout, DefaultTimeout) // a negative one NewShare refuses
	rt := &rrt{cfg: cfg, s: s, faults: faults}
	hosts := s.Tree.Nodes()
	// A non-empty crash schedule arms the membership plane.
	var det *membership.Detector
	if len(cfg.Faults.Crashes) > 0 {
		if det, err = cfg.Heartbeat.NewDetector(cfg.Faults.Seed, hosts); err != nil {
			return nil, err
		}
	}
	// Unbounded, the wire gets headroom for the message, its
	// retransmissions and a graft's replay; a sender that still finds it
	// full merely waits for the NI's next turn.
	share, err := NewShare(hosts, 4*len(s.Packets)+16, DefaultQuantum, cfg.Live)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	virt.attach(share, faults)
	// Every host is the supervisor's own, so the crash schedule, empty or
	// not, is their liveness.
	rt.ReliableShare, err = share.AddReliable(ReliableShareConfig{
		Tree:   s.Tree,
		MsgID:  s.MsgID,
		Faults: faults,
		Edge: EdgeSenderConfig{
			Packets:     s.Packets,
			RTO:         cfg.RTO,
			RTOMax:      cfg.RTOMax,
			RetryBudget: cfg.RetryBudget,
			JitterSeed:  cfg.Faults.Seed ^ 0x9e6c_a61b_60ca_77d5,
		},
		Trace: true,
	})
	if err != nil {
		share.Stop()
		return nil, fmt.Errorf("live: %w", err)
	}
	// In-process orders are never lost, so nothing is refreshed.
	rt.sup = NewSupervisor(rt.ReliableShare, SupervisorConfig{
		Det:         det,
		MaxRegrafts: cfg.MaxRegrafts,
		Timeout:     cfg.Live.Timeout,
	})
	if virt != nil && virt.sw != nil {
		rt.sup.geo = virt.sw.geo
	}
	return rt, nil
}

// watchdog names every destination the stalled run left incomplete.
func (rt *rrt) watchdog() *WatchdogError {
	e := &WatchdogError{Timeout: rt.cfg.Live.Timeout, Progress: map[int][]DestProgress{}}
	for _, v := range rt.nodes { // ascending
		if n := rt.NI(v); v != rt.s.Tree.Root() && n.Data == nil {
			e.Progress[0] = append(e.Progress[0], DestProgress{Host: v, Received: n.Held(), Expected: len(rt.s.Packets)})
		}
	}
	return e
}

// result adds the verdict to the session's record from the quiescent
// share, or names what a run that timed out left incomplete: every
// goroutine has returned, so reads are race-free, and a completion that
// raced the verdict counts.
func (rt *rrt) result(timedOut bool, wall time.Duration) (*ReliableResult, error) {
	if timedOut {
		return nil, rt.watchdog()
	}
	res := rt.Result(wall)
	res.Views, res.Adoptions = rt.sup.Views(), rt.sup.Adoptions()
	for _, v := range rt.nodes { // ascending
		if v != rt.s.Tree.Root() && rt.NI(v).Data == nil {
			res.Orphaned = append(res.Orphaned, v)
		}
	}
	res.Crashed = rt.faults.DownHosts(link.US(wall))

	var err error
	res.Status, err = reliable.Verdict(len(rt.nodes)-1, res.Orphaned, res.Crashed,
		rt.cfg.Quorum, res.Epoch, len(rt.faults.Crashes()) > 0, rt.sup.RootDown())
	if de, ok := err.(*reliable.DeliveryError); ok && rt.sup.geo != nil {
		de.Partitioned = rt.sup.geo.Partitioned()
	}
	return res, err
}
