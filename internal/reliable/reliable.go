// Package reliable holds what every driver of the reliable multicast
// runtime (internal/live) shares: the repair brain (Brain), which
// re-grafts orphaned subtrees with the paper's k-binomial construction;
// the verdict (Verdict: Delivered, DeliveredPartial when crashes cut
// destinations but the quorum held, or a typed *DeliveryError or
// *CrashError); the switch geometry a run over a simulated network
// repairs on (Geometry); and the config of that run (live.Deliver, the
// facade's DeliverReliable), which returns the runtime's own
// live.ReliableResult and under a zero-fault plan reproduces the lossless
// engine's FPFS schedule to the nanosecond.
package reliable

import (
	"errors"
	"fmt"

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

// DefaultConfig returns the protocol defaults used by the chaos
// experiment: 8 retransmissions per edge-packet and message ID 1.
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
// opposed to an exhausted retry budget) caused it. The result returned
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
// missed its quorum (or the root itself crashed). The result returned
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

// Verdict settles a reliable multicast's outcome from what its driver
// observed; live.RunReliable, live.Deliver and mcastd.RunReliable all end
// here. dests counts the destinations,
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
