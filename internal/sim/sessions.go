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
	// Faults and Incomplete are always zero: the packet simulator prices
	// the paper's lossless model, and faults run on the reliable runtime
	// (live.Deliver). They stay only because the benchmark module compares
	// them.
	Faults     fault.Stats
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
	res, _ := run(router, sessions, p, disc, false, nil)
	return res
}

// ConcurrentTraced is Concurrent with optional event recording. With
// traced=false it returns a nil event slice at zero cost.
func ConcurrentTraced(router routing.Router, sessions []Session, p Params, disc stepsim.Discipline, traced bool) (*ConcurrentResult, []TraceEvent) {
	return run(router, sessions, p, disc, traced, nil)
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
