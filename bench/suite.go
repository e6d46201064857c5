package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	defs     []workloadDef
	seed     uint64
	rounds   int
	roundDur time.Duration
	traced   bool      // run the traced round and the probes
	log      io.Writer // progress lines
}

// Warm-up, per set-up: engine pools and lazy tables fill outside the rounds.
const (
	warmOps = 3
	warmDur = 300 * time.Millisecond
	// setups is how many times each workload is set up; setup_s is the
	// median, and the last set-up is the one the rounds use.
	setups = 3
)

// metricValue is one end-to-end metric of one workload: the median over
// rounds of the per-round value, with the raw values it came from.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Rounds []float64 `json:"rounds"`
	// Samples is the smallest per-round sample count behind the value (ops
	// for latencies and rates, set-ups for setup_s).
	Samples int `json:"samples"`
}

func newMetricValue(unit string, value float64, perRound []float64, samples int) metricValue {
	lo, hi := minMax(perRound)
	return metricValue{Value: value, Unit: unit, Min: lo, Max: hi, Rounds: perRound, Samples: samples}
}

// ledgerRow attributes part of an op's CPU time to one layer: how often the
// op performs the layer's operation times what one operation costs alone.
type ledgerRow struct {
	Layer  string  `json:"layer"`
	Count  float64 `json:"count_per_op"`
	UnitUS float64 `json:"unit_us"`
	Source string  `json:"source"` // "span" or "probe"
}

func (r ledgerRow) us() float64 { return r.Count * r.UnitUS }

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name      string                 `json:"name"`
	Skipped   string                 `json:"skipped,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FirstErr  string                 `json:"first_error,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]float64     `json:"per_layer,omitempty"`
	Ledger    []ledgerRow            `json:"ledger,omitempty"`
}

// results is the -json document.
type results struct {
	Schema     string           `json:"schema"`
	Seed       uint64           `json:"seed"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	GoVersion  string           `json:"go_version"`
	Rounds     int              `json:"rounds"`
	RoundS     float64          `json:"round_s"`
	Workloads  []workloadResult `json:"workloads"`
}

// running is one workload's state while the suite runs.
type running struct {
	def    workloadDef
	w      loop
	res    workloadResult
	setupS []float64
	rounds []*round
}

// setUp builds the workload setups times and warms the last build up; the
// earlier builds are closed again.
func (run *running) setUp(seed uint64) error {
	for i := 0; i < setups; i++ {
		if run.w != nil {
			run.w.close()
		}
		start := time.Now()
		run.w = run.def.New(run.def.Shape)
		if err := run.w.setup(newGen(seed, run.def.Name)); err != nil {
			run.w.close()
			run.w = nil
			return err
		}
		warm, warmStart := newRound(), time.Now()
		for time.Since(warmStart) < warmDur || warm.attempted < warmOps {
			run.w.step(warm, nil)
		}
		run.w.flush(warm, nil)
		run.absorb(warm)
		run.setupS = append(run.setupS, time.Since(start).Seconds())
	}
	return nil
}

// absorb adds a round's op counts and failures to the workload's totals.
func (run *running) absorb(r *round) {
	run.res.Attempted += r.attempted
	run.res.Failed += r.failed
	if r.firstErr != nil && run.res.FirstErr == "" {
		run.res.FirstErr = r.firstErr.Error()
	}
	if r.wrong != nil {
		run.res.Correct = false
		run.res.FirstErr = r.wrong.Error()
	}
}

// runSuite measures every configured workload: set-up, the untraced rounds
// interleaved round-robin so a noisy burst hits all workloads alike, then
// per workload one traced round and its layer probes. Spans are returned for
// -trace-out. The error reports wrong outputs; typed protocol failures only
// count into the results.
func runSuite(cfg config) (*results, map[string][]span, error) {
	out := &results{
		Schema: "mcast-perf/v1", Seed: cfg.seed, GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Rounds: cfg.rounds, RoundS: cfg.roundDur.Seconds(),
	}
	runs := make([]*running, len(cfg.defs))
	for i, def := range cfg.defs {
		run := &running{def: def, res: workloadResult{Name: def.Name, Correct: true}}
		runs[i] = run
		if err := run.setUp(cfg.seed); errors.Is(err, errSkipped) {
			run.res.Skipped = err.Error()
			fmt.Fprintf(cfg.log, "%s: %v\n", def.Name, err)
		} else if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
	}
	defer func() {
		for _, run := range runs {
			if run.w != nil {
				run.w.close()
			}
		}
	}()

	for i := 0; i < cfg.rounds; i++ {
		for _, run := range runs {
			if run.w == nil {
				continue
			}
			r := runRound(run.w, cfg.roundDur, nil)
			run.rounds = append(run.rounds, r)
			run.absorb(r)
			fmt.Fprintf(cfg.log, "%s: round %d/%d: %d ops in %.2fs\n", run.def.Name, i+1, cfg.rounds, len(r.lat), r.wall.Seconds())
		}
	}

	spans := map[string][]span{}
	var wrong error
	for _, run := range runs {
		if run.w != nil {
			run.res.EndToEnd = run.endToEnd()
			if cfg.traced {
				recorded, err := run.perLayer(cfg)
				if err != nil {
					return nil, nil, fmt.Errorf("%s: probes: %w", run.def.Name, err)
				}
				spans[run.def.Name] = recorded
			}
		}
		if !run.res.Correct && wrong == nil {
			wrong = fmt.Errorf("%s: %s", run.def.Name, run.res.FirstErr)
		}
		out.Workloads = append(out.Workloads, run.res)
	}
	return out, spans, wrong
}

// perLayer runs the traced round and the layer probes and fills in the
// workload's per-layer metrics and ledger; it returns the spans recorded.
func (run *running) perLayer(cfg config) ([]span, error) {
	tr := newTracer()
	traced, overhead := run.tracedRound(min(tracedDur, 2*cfg.roundDur), tr)
	recorded := tr.spans()
	fmt.Fprintf(cfg.log, "%s: traced round: %d ops, %d spans; probing layers\n", run.def.Name, len(traced.lat), len(recorded))
	// The 100,489-host pass takes seconds: runs too short to measure
	// anything else (the smoke test) leave it out.
	probes, err := runProbes(run.w, cfg.roundDur >= time.Second)
	if err != nil {
		return nil, err
	}
	run.res.PerLayer, run.res.Ledger = run.ledger(traced, recorded, probes)
	run.res.PerLayer["trace.overhead_frac"] = overhead
	return recorded, nil
}

// tracedDur is the length of a workload's traced round; tracedSlices is how
// many untraced/traced pairs it is cut into.
const (
	tracedDur    = 2 * time.Second
	tracedSlices = 4
)

// tracedRound spends d with spans on, cut into slices
// that alternate with untraced slices of the same length, so that tracing
// overhead — one minus traced over untraced ops per second, median over the
// pairs — compares neighbours in time instead of a traced round with rounds
// run a minute earlier. The traced slices are returned as one round.
func (run *running) tracedRound(d time.Duration, tr *tracer) (traced *round, overhead float64) {
	traced = newRound()
	var overheads []float64
	for i := 0; i < tracedSlices; i++ {
		var off, on *round
		if i%2 == 0 { // alternate which side goes first
			off = runRound(run.w, d/tracedSlices, nil)
			on = runRound(run.w, d/tracedSlices, tr)
		} else {
			on = runRound(run.w, d/tracedSlices, tr)
			off = runRound(run.w, d/tracedSlices, nil)
		}
		run.absorb(off)
		run.absorb(on)
		traced.add(on)
		overheads = append(overheads, 1-ratio(on.opsPerS(), off.opsPerS()))
	}
	return traced, median(overheads)
}

// endToEnd folds the untraced rounds into the end-to-end metrics defined on
// this workload: per metric the median of the rounds' values.
// A percentile refused in any round is left out.
func (run *running) endToEnd() map[string]metricValue {
	perRound := map[string][]float64{}
	samples, failed, attempted := 0, 0, 0
	for i, r := range run.rounds {
		failed += r.failed
		attempted += r.attempted
		for name, v := range r.endToEnd() {
			perRound[name] = append(perRound[name], v)
		}
		if i == 0 || len(r.lat) < samples {
			samples = len(r.lat)
		}
		if v, ok := r.last["sim_makespan_us"]; ok {
			perRound["sim_makespan_us"] = append(perRound["sim_makespan_us"], v)
		}
	}
	m := map[string]metricValue{}
	for _, d := range endToEnd {
		if vs := perRound[d.Name]; d.on(run.def.Name) && len(vs) == len(run.rounds) && len(vs) > 0 {
			m[d.Name] = newMetricValue(d.Unit, median(vs), vs, samples)
		}
	}
	// Failures are never voted away: the share is over all rounds' ops.
	fail := m["fail_frac"]
	fail.Value = ratio(float64(failed), float64(attempted))
	m["fail_frac"] = fail
	m["setup_s"] = newMetricValue("s", median(run.setupS), run.setupS, len(run.setupS))
	return m
}
