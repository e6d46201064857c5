package sim

import (
	"math"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/stepsim"
	"repro/internal/tree"
)

// Session is one multicast operation in a concurrent workload: a tree, a
// message length, and the time the source host initiates the send.
type Session struct {
	Tree    *tree.Tree
	Packets int
	Start   float64
}

// SessionResult reports one session of a concurrent run.
type SessionResult struct {
	// Latency is from the session's Start to the last destination host
	// having received the complete message.
	Latency float64
	// NIDone / HostDone are per destination host (see Result).
	NIDone   map[int]float64
	HostDone map[int]float64
}

// ConcurrentResult is the outcome of a multi-session simulation. Network
// interfaces and channels are shared: sessions contend for both.
type ConcurrentResult struct {
	Sessions []SessionResult
	// MaxBuffered is the peak packets resident per forwarding node,
	// summed across sessions (the NI memory is one pool).
	MaxBuffered map[int]int
	// ChannelWait and Sends aggregate over all sessions.
	ChannelWait float64
	Sends       int
	// Makespan is when the last session's last destination completed.
	Makespan float64
	// Faults counts the faults injected during the run (zero value when
	// the run was lossless).
	Faults fault.Stats
	// Incomplete is, per session, the nodes starved by lost packets and
	// how many packets each is missing. Always nil for lossless runs; this
	// engine does not retransmit (package reliable does).
	Incomplete []map[int]int
}

// MaxLatency returns the largest per-session latency.
func (r *ConcurrentResult) MaxLatency() float64 {
	max := 0.0
	for _, s := range r.Sessions {
		max = math.Max(max, s.Latency)
	}
	return max
}

// TraceEvent records one simulator action for offline inspection
// (package trace renders timelines from these).
type TraceEvent struct {
	// Kind is "inject" (a packet copy enters the network), "deliver" (a
	// packet is fully received by an NI), or "done" (a destination host
	// has the complete message).
	Kind    string
	Time    float64 // when the action happened (wire entry / NI receipt / host completion)
	Host    int     // acting host (sender for inject, receiver otherwise)
	Peer    int     // the other endpoint (inject/deliver); -1 for done
	Session int
	Packet  int     // -1 for done
	Wait    float64 // inject only: time spent waiting for busy channels
}

// Concurrent simulates several multicast sessions sharing one network and
// one NI per host. Trees may overlap arbitrarily; a host can be source in
// one session and destination or intermediate in others.
func Concurrent(router routing.Router, sessions []Session, p Params, disc stepsim.Discipline) *ConcurrentResult {
	res, _ := run(router, sessions, p, disc, false, nil, nil)
	return res
}

// ConcurrentFaulty is Concurrent under a fault plan: dropped, corrupted,
// stalled and dead-link transmissions are injected per plan as the run
// unfolds, and the fault counters land in the result. This engine has no
// retransmission — lost packets starve their subtree, reported via
// Incomplete — which is precisely the gap package reliable closes.
func ConcurrentFaulty(router routing.Router, sessions []Session, p Params, disc stepsim.Discipline, plan fault.Plan) (*ConcurrentResult, error) {
	fs, err := Arm(plan, router)
	if err != nil {
		return nil, err
	}
	res, _ := run(router, sessions, p, disc, false, fs, nil)
	return res, nil
}

// Arm arms a plan for the packet simulators, refusing what a run without
// acknowledgments, host crashes or a wall clock cannot carry out (ACK
// loss, crashes, reordering, jitter, host-pair kills) and any kill of a
// link the router's network does not have.
func Arm(plan fault.Plan, router routing.Router) (*fault.State, error) {
	if err := plan.Admit("sim", fault.Drop|fault.Corrupt|fault.Stalls|fault.LinkKills, len(router.Network().Links()), nil); err != nil {
		return nil, err
	}
	return plan.Arm()
}

// ConcurrentTraced is Concurrent with optional event recording. With
// traced=false it returns a nil event slice at zero cost.
func ConcurrentTraced(router routing.Router, sessions []Session, p Params, disc stepsim.Discipline, traced bool) (*ConcurrentResult, []TraceEvent) {
	return run(router, sessions, p, disc, traced, nil, nil)
}

// runSerial is the reference scheduler: one queue ordered by (time, seq),
// and a window of exactly one event — pop it, process it, resolve its
// actions at once in creation order.
func (e *model) runSerial() {
	e.owner = e.owner[:0]
	e.resetWorkers(1)
	w := &e.workers[0]
	for !w.q.empty() {
		ev := w.q.pop()
		e.process(w, &ev)
		for i := range w.actions {
			e.resolve(&w.actions[i])
		}
		w.actions = w.actions[:0]
	}
}
