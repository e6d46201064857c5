package main

import (
	"errors"
	"sort"
	"time"

	"repro/internal/sim"
)

// round is what one timed round of one workload produced: a latency sample
// per verified op, failure counts, and the counters the program returned.
type round struct {
	lat       []float64 // microseconds, one per verified op
	attempted int
	failed    int
	bytes     int64 // verified payload bytes x destinations
	wrong     error // first wrong output (errMismatch), if any
	firstErr  error // first failed op of any kind, for the report

	sums   map[string]float64   // counters reported per op: summed over the round's ops
	totals map[string]float64   // counters reported as the round's total
	last   map[string]float64   // values that repeat per op or are gauges
	obs    map[string][]float64 // per-op observations reported as percentiles

	events [][]sim.TraceEvent // wall-clock events of each recorded live.Run

	wall           time.Duration
	proc           procStats
	peakGoroutines int
}

func newRound() *round {
	return &round{sums: map[string]float64{}, totals: map[string]float64{}, last: map[string]float64{}, obs: map[string][]float64{}}
}

// done records an op that was timed by the benchmark from start to now.
func (r *round) done(start time.Time, bytes int, err error) {
	lat := time.Since(start)
	if err != nil {
		r.fail(err)
		return
	}
	r.doneIn(lat, bytes)
}

// doneIn records a verified op with a latency measured elsewhere.
func (r *round) doneIn(lat time.Duration, bytes int) {
	r.attempted++
	r.lat = append(r.lat, float64(lat)/1e3)
	r.bytes += int64(bytes)
}

func (r *round) fail(err error) {
	r.attempted++
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
	if r.wrong == nil && errors.Is(err, errMismatch) {
		r.wrong = err
	}
}

// add folds another round of the same workload into r.
func (r *round) add(o *round) {
	r.lat = append(r.lat, o.lat...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.bytes += o.bytes
	if r.wrong == nil {
		r.wrong = o.wrong
	}
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	for k, v := range o.sums {
		r.sums[k] += v
	}
	for k, v := range o.totals {
		r.totals[k] += v
	}
	for k, v := range o.last {
		r.last[k] = v
	}
	for k, v := range o.obs {
		r.obs[k] = append(r.obs[k], v...)
	}
	r.events = append(r.events, o.events...)
	r.wall += o.wall
	r.peakGoroutines = max(r.peakGoroutines, o.peakGoroutines)
}

func (r *round) opsPerS() float64 { return float64(len(r.lat)) / r.wall.Seconds() }

func (r *round) count(name string, v float64)   { r.sums[name] += v }
func (r *round) total(name string, v float64)   { r.totals[name] += v }
func (r *round) set(name string, v float64)     { r.last[name] = v }
func (r *round) observe(name string, v float64) { r.obs[name] = append(r.obs[name], v) }

// perOp is a summed counter divided by the verified ops of the round.
func (r *round) perOp(name string) float64 { return ratio(r.sums[name], float64(len(r.lat))) }

// quantile is the q-quantile of a per-op observation; 0 when refused.
func (r *round) quantile(name string, q float64) float64 {
	s := append([]float64(nil), r.obs[name]...)
	sort.Float64s(s)
	v, _ := percentile(s, q)
	return v
}

// observeHops turns the wall-clock events of one recorded live.Run into
// per-hop latencies (a packet's inject at the sender to its deliver at the
// receiver) and the skew between the first and last destination to finish.
// live records inject after Send returns, so on an unbounded in-process link
// the receiver can stamp deliver first; such hops count as 0.
func (r *round) observeHops(events []sim.TraceEvent) {
	injected := make(map[[3]int]float64, len(events)/2)
	firstDone, lastDone := -1.0, -1.0
	for _, e := range events {
		switch e.Kind {
		case "inject":
			injected[[3]int{e.Host, e.Peer, e.Packet}] = e.Time
		case "done":
			if firstDone < 0 || e.Time < firstDone {
				firstDone = e.Time
			}
			if e.Time > lastDone {
				lastDone = e.Time
			}
		}
	}
	for _, e := range events {
		if e.Kind != "deliver" {
			continue
		}
		if at, ok := injected[[3]int{e.Peer, e.Host, e.Packet}]; ok {
			hop := e.Time - at
			if hop < 0 {
				hop = 0
			}
			r.observe("live.hop_us", hop)
		}
	}
	if firstDone >= 0 {
		r.observe("live.dest_skew_us", lastDone-firstDone)
	}
}

// runRound drives w for d from the calling goroutine — the one generator —
// and prices the round. tr is nil for an untraced round.
func runRound(w loop, d time.Duration, tr *tracer) *round {
	r := newRound()
	var stopPeak func() int
	if tr != nil {
		stopPeak = goroutinePeak()
	}
	before := readProc()
	start := time.Now()
	for time.Since(start) < d {
		w.step(r, tr)
	}
	w.flush(r, tr)
	r.wall = time.Since(start)
	r.proc = readProc().sub(before)
	if stopPeak != nil {
		r.peakGoroutines = stopPeak()
	}
	return r
}

// endToEnd computes the round's own value of every end-to-end metric that
// applies; a refused percentile is absent.
func (r *round) endToEnd() map[string]float64 {
	m := map[string]float64{}
	sorted := append([]float64(nil), r.lat...)
	sort.Float64s(sorted)
	for name, q := range map[string]float64{"op_p50_us": 0.5, "op_p90_us": 0.9, "op_p99_us": 0.99} {
		if v, ok := percentile(sorted, q); ok {
			m[name] = v
		}
	}
	ops := float64(len(r.lat))
	m["ops_per_s"] = r.opsPerS()
	m["goodput_MBps"] = float64(r.bytes) / 1e6 / r.wall.Seconds()
	m["allocs_per_op"] = ratio(float64(r.proc.mallocs), ops)
	m["fail_frac"] = ratio(float64(r.failed), float64(r.attempted))
	return m
}
