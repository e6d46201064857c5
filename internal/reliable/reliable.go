// Package reliable delivers packetized multicast messages byte-exactly
// over faulty networks: per-packet ACK/NACK with timeout-driven
// retransmission, exponential backoff with seeded jitter, duplicate
// suppression at the reassemblers, and mid-flight tree repair when a
// scheduled link kill severs a subtree.
//
// The data plane reproduces the sim package's contention model
// event-for-event: packet injections pay t_ns on a serial NI, reserve the
// route's wormhole channels, and deliver after t_nr, exactly as
// sim.Concurrent does under FPFS. Control traffic (ACK/NACK) instead rides
// a contention-free plane — small control packets neither occupy the NI
// send engine nor reserve channels — so under a zero-fault plan the
// reliable protocol reproduces the lossless engine's latencies exactly,
// with zero retransmissions. Retransmission timers are deterministic: the
// sending NI knows its channel reservation, so the timeout is the
// reserved arrival plus the ACK round trip plus slack, and backoff only
// stretches it after a real loss.
//
// When retries across one tree edge exhaust their budget, the repair
// brain all three reliable engines share (Brain) re-parents the
// incomplete hosts of the child's subtree onto a fresh k-binomial subtree
// under the detecting parent — the paper's tree construction, reused
// verbatim, in the system's chain order — and each new parent replays the
// packets it already holds; receivers drop the duplicates. The machine first rebuilds
// routing around every link killed so far (core.System
// .WithoutLinkChecked) and answers the brain's reachability question from
// the degraded switch graph: an edge it cannot carry falls back to a root
// edge, and a destination the root cannot reach either — a genuine
// partition — is abandoned and reported in a typed *DeliveryError. An
// exhaustion no kill explains re-grafts the same way until the regraft
// cap abandons.
//
// # Crash tolerance
//
// When the fault plan schedules host crashes, a membership plane comes up
// alongside the data plane: every participant heartbeats the root on the
// control plane, and a deterministic failure detector
// (internal/membership) turns silence into suspicion, confirmation, and
// epoch-numbered group views. Data packets and ACKs carry the epoch they
// were sent in; a view change fences everything from older epochs —
// receivers and senders discard stale traffic, and the retransmission
// timers re-issue it under the new epoch. When a crash is confirmed the
// brain cuts the dead host out of the tree and has its orphaned subtree
// adopted by the nearest live ancestor through the same Fig.-11
// contention-free k-binomial construction used at planning time, and the
// host's NI state (queues, in-flight copies) is dropped. A
// crashed host that
// recovers rejoins with empty buffers in a fresh epoch and has the whole
// message replayed to it.
//
// Crash runs finish with an explicit verdict: Delivered (everyone got the
// message, possibly via adoption), DeliveredPartial (crashes cut some
// destinations but at least Quorum completed), or a typed *CrashError.
// With no crash faults in the plan none of this machinery is armed and
// the protocol replays its pre-crash behavior event-for-event.
package reliable

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/membership"
	"repro/internal/message"
	"repro/internal/sim"
)

// Config tunes the reliable-delivery protocol.
type Config struct {
	// Params are the timing constants of the underlying simulator.
	Params sim.Params
	// RetryBudget is the maximum retransmissions per (tree edge, packet)
	// before the edge is declared dead and its subtree orphaned.
	RetryBudget int
	// MsgID identifies the message in its packet headers.
	MsgID uint32
	// Quorum is the minimum number of destinations that must receive the
	// full payload for a crash-shortened delivery to count as
	// DeliveredPartial. Zero (or any value >= the destination count)
	// requires every destination, so any shortfall is a *CrashError. Only
	// consulted when the fault plan schedules host crashes.
	Quorum int
}

// The protocol's fixed parameters; times are in microseconds.
const (
	// rtoSlack is the grace added beyond the deterministic data+ACK round
	// trip before a retransmission timer fires: it is why a lossless run's
	// ACK always beats its timer, so a zero-fault plan never retransmits.
	rtoSlack = 1.0
	// backoffBase is the extra wait before the first retransmission's
	// timer; it doubles per attempt up to backoffMax.
	backoffBase = 2.0
	backoffMax  = 64.0
	// jitterFrac widens each backoff by a uniform draw in [0, frac) from
	// the fault plan's seeded RNG, de-synchronizing competing retries.
	jitterFrac = 0.25
	// ackBytes is the control-packet size on the wire.
	ackBytes = 8
)

// DefaultConfig returns the protocol defaults used by the chaos
// experiment: 8 retransmissions per edge-packet and message ID 1. The
// membership plane, armed only when the fault plan schedules crashes,
// runs membership.DefaultConfig.
func DefaultConfig() Config {
	return Config{
		Params:      sim.DefaultParams(),
		RetryBudget: 8,
		MsgID:       1,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	switch {
	case c.RetryBudget < 1:
		return fmt.Errorf("reliable: retry budget %d < 1", c.RetryBudget)
	case c.Quorum < 0:
		return fmt.Errorf("reliable: negative quorum %d", c.Quorum)
	}
	return nil
}

// Status is the overall verdict of one reliable multicast.
type Status int

const (
	// Delivered: every destination received the full payload (possibly via
	// adoption or post-recovery replay).
	Delivered Status = iota
	// DeliveredPartial: crashes left some destinations without the payload,
	// but at least Config.Quorum destinations completed.
	DeliveredPartial
	// Failed: the quorum was missed, the root crashed, or (on a crash-free
	// plan) any destination was left undelivered.
	Failed
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Delivered:
		return "delivered"
	case DeliveredPartial:
		return "delivered-partial"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// EpochStamp records the epoch a packet was accepted under, for auditing
// epoch monotonicity of the data plane.
type EpochStamp struct {
	At    float64
	Epoch int
}

// Result reports one reliable multicast delivery.
type Result struct {
	// Latency is from initiation to the last completing destination host
	// (abandoned destinations excluded).
	Latency float64
	// HostDone is the completion time per destination that finished.
	HostDone map[int]float64
	// Packets is the message's packet count.
	Packets int
	// Sends counts data-packet injections; Retransmits of those were
	// repeat attempts. ChannelWait aggregates contention stalls.
	Sends       int
	Retransmits int
	ChannelWait float64
	// Acks and Nacks count control packets received by senders;
	// Duplicates counts redundant data packets suppressed by receivers.
	Acks       int
	Nacks      int
	Duplicates int
	// Repairs counts subtree re-grafts performed mid-flight.
	Repairs int
	// Orphaned lists destinations (ascending) the protocol gave up on;
	// Partitioned reports whether a link kill cut hosts off entirely.
	Orphaned    []int
	Partitioned bool
	// Faults are the injected-fault counters of the run; Losses what each
	// edge incarnation's loss stream decided, in creation order (runs
	// that draw no loss decision have none).
	Faults fault.Stats
	Losses []fault.Pattern
	// Delivered holds each completing destination's reassembled message.
	Delivered map[int][]byte
	// Status is the delivery verdict (always Delivered/Failed on crash-free
	// plans; DeliveredPartial only when crashes cut destinations but the
	// quorum held).
	Status Status
	// Epoch is the final membership epoch (0 when no crashes were planned
	// and the membership plane never armed; the initial armed view is 1).
	Epoch int
	// Views lists the epoch-numbered group views installed during the run,
	// starting with the initial view, when the membership plane was armed.
	Views []membership.View
	// Crashed lists the hosts down when the run ended, ascending.
	Crashed []int
	// Fenced counts data/control packets discarded for carrying a stale
	// epoch after a view change.
	Fenced int
	// Adoptions counts crash-driven re-grafts: orphaned subtrees adopted by
	// a live ancestor after a confirmation, and recovered hosts re-admitted.
	Adoptions int
	// Accepts is the epoch-stamp trace of novel packet acceptances, in
	// event order, recorded only while the membership plane is armed.
	Accepts []EpochStamp
}

// ErrDelivery and ErrCrash are the sentinel identities of the two typed
// failures below: errors.Is(err, reliable.ErrDelivery) matches any
// *DeliveryError through arbitrary %w wrapping (and likewise ErrCrash for
// *CrashError), so callers can classify a failure without destructuring
// it. Use errors.As to reach the fields.
var (
	ErrDelivery = errors.New("reliable: delivery incomplete")
	ErrCrash    = errors.New("reliable: quorum missed after crash")
)

// DeliveryError is the typed failure of a reliable multicast: the
// destinations that never completed, and whether a network partition (as
// opposed to an exhausted retry budget) caused it. The Result returned
// alongside still describes everything that did complete.
type DeliveryError struct {
	Orphaned    []int
	Partitioned bool
}

// Unwrap ties every *DeliveryError to the ErrDelivery sentinel.
func (e *DeliveryError) Unwrap() error { return ErrDelivery }

// Error formats the failure.
func (e *DeliveryError) Error() string {
	cause := "retry budget exhausted"
	if e.Partitioned {
		cause = "network partitioned"
	}
	return fmt.Sprintf("reliable: %d destination(s) undelivered (%s): %v",
		len(e.Orphaned), cause, e.Orphaned)
}

// CrashError is the typed failure of a crash-afflicted multicast: the run
// missed its quorum (or the root itself crashed). The Result returned
// alongside still describes everything that did complete.
type CrashError struct {
	// Crashed lists the hosts down when the run ended; Undelivered the
	// destinations (crashed or not) left without the full payload.
	Crashed     []int
	Undelivered []int
	// Delivered is the number of destinations that completed, judged
	// against Quorum (the effective threshold, after defaulting).
	Delivered int
	Quorum    int
	// Epoch is the membership epoch in force at the end of the run.
	Epoch int
	// RootCrashed reports that the multicast source itself went down, which
	// fails the operation regardless of quorum.
	RootCrashed bool
}

// Unwrap ties every *CrashError to the ErrCrash sentinel.
func (e *CrashError) Unwrap() error { return ErrCrash }

// Error formats the failure.
func (e *CrashError) Error() string {
	if e.RootCrashed {
		return fmt.Sprintf("reliable: multicast root crashed (epoch %d, %d/%d destinations delivered)",
			e.Epoch, e.Delivered, e.Delivered+len(e.Undelivered))
	}
	return fmt.Sprintf("reliable: quorum missed after crash(es) %v: %d delivered < quorum %d (epoch %d, undelivered %v)",
		e.Crashed, e.Delivered, e.Quorum, e.Epoch, e.Undelivered)
}

// Deliver multicasts payload from the plan's tree root to every other tree
// node under the fault plan, retransmitting and repairing as needed. It
// always returns a Result; the error is a *DeliveryError when a crash-free
// plan left any destination without the complete message, and a
// *CrashError when a crash-afflicted run missed its quorum (the fault-plan
// or config validation errors are ordinary; a plan that reorders or
// jitters, which virtual time cannot, is a *fault.RefusedError). The run
// is fully deterministic for a fixed (system, plan, payload, config,
// fault plan).
func Deliver(sys *core.System, plan *core.Plan, payload []byte, cfg Config, fp fault.Plan) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	faults, err := fp.Arm()
	if err != nil {
		return nil, err
	}
	err = fp.Admit("reliable", fault.Drop|fault.Corrupt|fault.AckDrop|fault.Stalls|fault.LinkKills|fault.Crashes,
		len(sys.Net.Links()), plan.Tree.Contains)
	if err != nil {
		return nil, err
	}
	pkts, err := message.Packetize(cfg.MsgID, plan.Tree.Root(), payload, cfg.Params.PacketBytes)
	if err != nil {
		return nil, err
	}
	mc := newMachine(sys, plan, pkts, cfg, faults, fp.Seed)
	mc.run()
	return mc.finish()
}

// finish assembles the Result and the typed error after the event loop
// drains.
func (mc *machine) finish() (*Result, error) {
	res := mc.res
	res.Faults = mc.faults.Stats()
	for _, es := range mc.all {
		if p := es.loss.Pattern(); p.Sent > 0 {
			res.Losses = append(res.Losses, p)
		}
	}
	res.Epoch = mc.epoch
	res.Crashed = mc.faults.DownHosts(mc.eng.Now())
	root := mc.root
	for v, n := range mc.nodes {
		if v == root {
			continue
		}
		if n.haveCount == mc.m {
			res.Delivered[v] = n.reasm.Bytes()
		} else {
			res.Orphaned = append(res.Orphaned, v)
		}
	}
	sort.Ints(res.Orphaned)
	for _, t := range res.HostDone {
		if t > res.Latency {
			res.Latency = t
		}
	}
	var err error
	res.Status, err = Verdict(len(mc.nodes)-1, res.Orphaned, res.Crashed,
		mc.cfg.Quorum, res.Epoch, mc.det != nil, mc.rootCrashed)
	var de *DeliveryError
	if errors.As(err, &de) {
		de.Partitioned = res.Partitioned
	}
	return res, err
}

// Verdict settles a reliable multicast's outcome from what its engine
// observed; the virtual-time machine, live.RunReliable and
// mcastd.RunReliable all end here. dests counts the destinations,
// orphaned lists those left without the full payload and crashed the
// hosts down at the end; quorum <= 0 (or above dests) requires every
// destination; armed says whether the membership plane ever ran.
//
// Every destination delivered is Delivered whatever else happened. An
// unarmed run has no crash to blame: any orphan is a *DeliveryError, the
// crash-free contract. An armed run that kept its root and reached the
// quorum is DeliveredPartial; anything else is Failed with a *CrashError.
func Verdict(dests int, orphaned, crashed []int, quorum, epoch int, armed, rootCrashed bool) (Status, error) {
	if len(orphaned) == 0 {
		return Delivered, nil
	}
	if !armed {
		return Failed, &DeliveryError{Orphaned: orphaned}
	}
	delivered := dests - len(orphaned)
	if quorum <= 0 || quorum > dests {
		quorum = dests
	}
	if !rootCrashed && delivered >= quorum {
		return DeliveredPartial, nil
	}
	return Failed, &CrashError{
		Crashed:     crashed,
		Undelivered: orphaned,
		Delivered:   delivered,
		Quorum:      quorum,
		Epoch:       epoch,
		RootCrashed: rootCrashed,
	}
}
