package sim

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/stepsim"
	"repro/internal/topology"
)

// This file is the windowed scheduler behind package psim: hosts are
// partitioned across a fixed worker pool, each worker processes its
// partition's events through conservative time windows, and the actions
// they record are resolved serially at window barriers in the exact order
// the serial scheduler resolves them. What makes that possible:
//
//   - Lookahead. Every consequence of an injection intended at time τ
//     materializes at or after τ + t_ns + wire (the NI must spend t_ns
//     before the packet can even enter a channel, and the wire holds it
//     for wire time). So a window [T0, T0+δ) with δ = t_ns + wire can be
//     processed without seeing any event another partition creates inside
//     the same window: everything created by window events lands at or
//     beyond the window's end and is exchanged at the barrier.
//   - Order. Events are ordered by (time, seq) with seq assigned in
//     creation order. The barrier merges all workers' action streams by
//     creator order (creator event key, then action index) — which is
//     processing order — and assigns seq from the one counter as it
//     resolves each intent. Only host-local state is touched in parallel;
//     it depends only on the host's own event subsequence, which every
//     schedule preserves.
//   - Conventional forwards. The one event kind that can undercut δ
//     (host-level store-and-forward copies at τ + t_r + i·t_s) ends the
//     window instead: under Conventional a window stops at the first
//     time a deliver in it could forward. So no window creates an event
//     inside itself and every event enters a queue under its real seq.
//     The one exception is harmless: a window the float grid (or zero
//     host overheads) degrades to the single timestamp T0 may create
//     events at T0, but they hold later seqs than every event in it, so
//     the next window — at T0 again — runs them in serial order.
//
// Partitioning affects only which worker executes a host's events and how
// much cross-partition mail the barrier routes — never the results.

// WindowConfig controls the windowed scheduler; psim.Config is this type.
type WindowConfig struct {
	// Workers is the worker-pool size; values < 1 mean 1. Results are
	// identical at every worker count.
	Workers int
	// Parts optionally assigns each host to a worker (len = NumHosts,
	// values in [0, Workers)). Nil means topology.Partition: contiguous
	// slabs on grids, hashing on irregular networks. Empty partitions are
	// allowed.
	Parts []int
	// Routes optionally supplies precomputed routes keyed by {parent,
	// child}; missing entries fall back to the router. Precomputing lets
	// benchmarks price the event engine rather than route construction.
	Routes map[[2]int]routing.Route
	// Stats, when non-nil, receives window/synchronization counters.
	Stats *WindowStats
}

// WindowStats reports how a windowed run synchronized.
type WindowStats struct {
	Workers   int           // effective worker count
	Lookahead float64       // δ = t_ns + wire (us); Conventional windows may end earlier
	Windows   int           // conservative windows executed
	Events    int           // events processed across all workers
	Mailed    int           // deliveries that crossed a partition boundary
	PerWindow stats.Summary // events per window
}

// ConcurrentWindowed is ConcurrentTraced under the windowed scheduler, with
// an optional armed fault state. Package psim is its public face.
func ConcurrentWindowed(router routing.Router, sessions []Session, p Params, disc stepsim.Discipline, traced bool, faults *fault.State, cfg WindowConfig) (*ConcurrentResult, []TraceEvent) {
	return run(router, sessions, p, disc, traced, faults, &cfg)
}

// actionLess orders actions by (creator event order, creation index) —
// the order the serial scheduler resolves them in.
func actionLess(a, b *action) bool {
	if a.cAt != b.cAt {
		return a.cAt < b.cAt
	}
	if a.cOrd != b.cOrd {
		return a.cOrd < b.cOrd
	}
	return a.idx < b.idx
}

// partition fills owner from parts, or topology.Partition when nil.
func (e *model) partition(parts []int, nw int) {
	if parts == nil {
		parts = topology.Partition(e.router.Network(), nw)
	} else if len(parts) != e.numHosts {
		panic(fmt.Sprintf("sim: %d partition entries for %d hosts", len(parts), e.numHosts))
	}
	e.owner = resize(e.owner, e.numHosts)
	for h, part := range parts {
		if part < 0 || part >= nw {
			panic(fmt.Sprintf("sim: host %d assigned to worker %d of %d", h, part, nw))
		}
		e.owner[h] = int32(part)
	}
}

// runWindowed drives conservative windows until no events remain.
func (e *model) runWindowed(cfg *WindowConfig) {
	nw := max(cfg.Workers, 1)
	e.partition(cfg.Parts, nw)
	e.crossed = 0
	e.resetWorkers(nw)
	e.heads = resize(e.heads, nw)

	// Lookahead: min over everything an intent at τ can cause. The
	// earliest is the sender-side completion at start+wire with start >=
	// τ + t_ns (plus any stall), so δ = t_ns + wire. Params.Validate
	// guarantees t_ns > 0 and wire > 0, hence δ > 0.
	window := e.p.TNISend + e.wire

	var pool *workerPool
	if nw > 1 {
		pool = startPool(e)
		defer pool.stop()
	}
	windows, totalEvents := 0, 0
	var perWindow stats.Summary
	for {
		t0 := math.Inf(1)
		for i := range e.workers {
			if q := &e.workers[i].q; !q.empty() {
				t0 = min(t0, q.min())
			}
		}
		if math.IsInf(t0, 1) {
			break
		}
		wEnd := t0 + window
		if e.disc == stepsim.Conventional {
			// A deliver at τ >= t0 forwards no earlier than this, written
			// in processDeliver's evaluation order so that monotone
			// rounding alone keeps every forward at or beyond wEnd.
			wEnd = min(wEnd, t0+e.p.THostRecv+e.p.THostSend)
		}
		if !(wEnd > t0) {
			// One-timestamp degradation (zero host overheads, or t0 so
			// large the window underflows the float grid): process exactly
			// the events at t0. What they create at t0 holds a later seq
			// than any of them, so the next window runs it in serial order.
			wEnd = math.Nextafter(t0, math.Inf(1))
		}
		e.wEnd = wEnd
		// Parallel: each worker runs its partition's window.
		if pool != nil {
			pool.broadcast()
		} else {
			e.runWindow(&e.workers[0])
		}
		// Barrier (serial): merge action streams in processing order,
		// resolve them, distribute the created events.
		e.barrier()
		windows++
		n := 0
		for i := range e.workers {
			n += e.workers[i].processed
		}
		totalEvents += n
		perWindow.Add(float64(n))
	}
	if cfg.Stats != nil {
		*cfg.Stats = WindowStats{
			Workers:   nw,
			Lookahead: window,
			Windows:   windows,
			Events:    totalEvents,
			Mailed:    e.crossed,
			PerWindow: perWindow,
		}
	}
}

// runWindow processes every event of this partition that fires before
// wEnd.
func (e *model) runWindow(w *worker) {
	n := 0
	for !w.q.empty() && w.q.min() < e.wEnd {
		ev := w.q.pop()
		e.process(w, &ev)
		n++
	}
	w.processed = n
}

// barrier ends a window: it merges the workers' action streams into
// processing order, resolves each, and so pushes the created events into
// their owners' queues for the next window.
//
// Each worker's stream is already sorted (events were processed in queue
// order; actions within an event in creation order), so a W-way min scan
// over the stream heads yields the global order.
func (e *model) barrier() {
	ws := e.workers
	heads := e.heads
	for i := range heads {
		heads[i] = 0
	}
	for {
		best := -1
		for i := range ws {
			if heads[i] >= len(ws[i].actions) {
				continue
			}
			if best < 0 || actionLess(&ws[i].actions[heads[i]], &ws[best].actions[heads[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		act := &ws[best].actions[heads[best]]
		heads[best]++
		e.resolve(act)
	}
	for i := range ws {
		ws[i].actions = ws[i].actions[:0]
	}
}

// workerPool runs the windows of workers 1..W-1 on persistent
// goroutines, and worker 0's on the caller's, which would otherwise only
// wait. Command send / completion receive pairs give the barrier's writes
// (pushed events, wEnd) a happens-before edge into the workers and the
// workers' writes (queues, actions) one back into the barrier.
type workerPool struct {
	e    *model
	cmds []chan struct{}
	done chan struct{}
}

func startPool(e *model) *workerPool {
	p := &workerPool{
		e:    e,
		cmds: make([]chan struct{}, len(e.workers)-1),
		done: make(chan struct{}, len(e.workers)-1),
	}
	for i := range p.cmds {
		cmd := make(chan struct{}, 1)
		p.cmds[i] = cmd
		go func(w *worker) {
			for range cmd {
				e.runWindow(w)
				p.done <- struct{}{}
			}
		}(&e.workers[i+1])
	}
	return p
}

func (p *workerPool) broadcast() {
	for _, c := range p.cmds {
		c <- struct{}{}
	}
	p.e.runWindow(&p.e.workers[0])
	for range p.cmds {
		<-p.done
	}
}

func (p *workerPool) stop() {
	for _, c := range p.cmds {
		close(c)
	}
}
