package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 of 999 samples accepted; fewer than 10 samples lie beyond it")
	}
	xs = append(xs, 1000)
	if v, ok := percentile(xs, 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := percentile(xs[:10], 0.9); !ok || v != 9 {
		t.Errorf("p90 of 1..10 = %v, %v; want 9, true", v, ok)
	}
	if v, ok := percentile(xs[:5], 0.5); !ok || v != 3 {
		t.Errorf("p50 of 1..5 = %v, %v; want 3, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples accepted")
	}
}

func TestMedianOfRounds(t *testing.T) {
	in := []float64{9, 1, 5, 3}
	if got := median(in); got != 4 {
		t.Errorf("median(9,1,5,3) = %v, want 4", got)
	}
	if in[0] != 9 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{7, 2, 100}); got != 7 {
		t.Errorf("median(7,2,100) = %v, want 7: one noisy round must not move it", got)
	}
	v := newMetricValue("us", median(in), in, 12)
	if v.Value != 4 || v.Min != 1 || v.Max != 9 || v.Samples != 12 || len(v.Rounds) != 4 {
		t.Errorf("newMetricValue = %+v", v)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op [0,100] > plan [10,30], run [30,90] > hop [40,60]; then a second op.
	spans := []span{
		{Op: 1, ID: 0, Parent: -1, Name: "op", Start: 0, End: 100_000},
		{Op: 1, ID: 1, Parent: 0, Name: "plan", Start: 10_000, End: 30_000},
		{Op: 1, ID: 2, Parent: 0, Name: "run", Start: 30_000, End: 90_000},
		{Op: 1, ID: 3, Parent: 2, Name: "hop", Start: 40_000, End: 60_000},
		{Op: 2, ID: 4, Parent: -1, Name: "op", Start: 100_000, End: 300_000},
		{Op: 2, ID: 5, Parent: 4, Name: "plan", Start: 100_000, End: 160_000},
	}
	want := []int64{20_000, 20_000, 40_000, 20_000, 140_000, 60_000}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	dur, self := spanMedians(spans)
	if dur["plan"] != 40 || dur["op"] != 150 || self["op"] != 80 || self["run"] != 40 {
		t.Errorf("spanMedians: dur %v self %v", dur, self)
	}

	tr := newTracer()
	op := tr.begin("op")
	a := tr.begin("a")
	tr.end(a)
	tr.end(op)
	op = tr.begin("op")
	tr.end(op)
	got := tr.spans()
	if len(got) != 3 || got[1].Parent != 0 || got[1].Op != 1 || got[2].Parent != -1 || got[2].Op != 2 {
		t.Errorf("tracer recorded %+v", got)
	}
	var off *tracer
	off.end(off.begin("x")) // a nil tracer is the untraced round
}

func findEndToEnd(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func TestCompareVerdicts(t *testing.T) {
	mv := func(v, lo, hi float64) metricValue { return metricValue{Value: v, Min: lo, Max: hi} }
	lat, _ := findEndToEnd("op_p50_us")
	rate, _ := findEndToEnd("ops_per_s")
	fail, _ := findEndToEnd("fail_frac")
	setup, _ := findEndToEnd("setup_s")
	for _, c := range []struct {
		name string
		d    metricDef
		a, b metricValue
		want string
	}{
		{"within bound", lat, mv(100, 98, 102), mv(108, 106, 110), unchanged},
		{"slower past bound", lat, mv(100, 98, 102), mv(115, 113, 117), regressed},
		{"faster past bound", lat, mv(100, 98, 102), mv(85, 83, 87), improved},
		{"rate falls", rate, mv(100, 98, 102), mv(85, 84, 86), regressed},
		{"rate rises", rate, mv(100, 98, 102), mv(115, 113, 117), improved},
		{"noisy and overlapping", lat, mv(100, 95, 108), mv(104, 97, 112), unresolved},
		{"one disturbed round is not set aside", lat, mv(100, 98, 190), mv(104, 102, 106), unresolved},
		{"noisy but every run better", lat, mv(100, 92, 108), mv(70, 65, 75), improved},
		{"exact repeats", fail, mv(0, 0, 0), mv(0, 0, 0), unchanged},
		{"exact worsens", fail, mv(0, 0, 0), mv(0.01, 0, 0.02), regressed},
		{"set-up within half a second", setup, mv(0.3, 0.3, 0.31), mv(0.7, 0.7, 0.71), unchanged},
		{"set-up a second slower", setup, mv(0.3, 0.3, 0.31), mv(1.3, 1.3, 1.31), regressed},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}

	// reliable_lossy is where the latencies gate (see the Advisory lists).
	a := &results{Workloads: []workloadResult{{Name: "reliable_lossy", EndToEnd: map[string]metricValue{
		"op_p50_us": mv(100, 98, 102), "op_p90_us": mv(500, 495, 505)}}}}
	b := &results{Workloads: []workloadResult{{Name: "reliable_lossy", EndToEnd: map[string]metricValue{
		"op_p50_us": mv(130, 128, 131), "op_p90_us": mv(501, 499, 510)}}}}
	var out bytes.Buffer
	if bad := compare(&out, a, b); bad != 1 {
		t.Errorf("compare counted %d bad rows, want 1\n%s", bad, out.String())
	}
	for _, want := range []string{"regressed", "unchanged", "1.300x of 100", "10%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare table lacks %q:\n%s", want, out.String())
		}
	}

	// A pair the noise discipline demoted is printed but gates nothing.
	for _, d := range endToEnd {
		if len(d.Advisory) == 0 {
			continue
		}
		wl := d.Advisory[0]
		worse := mv(200, 198, 202)
		if d.Better == "higher" {
			worse = mv(50, 49, 51)
		}
		a := &results{Workloads: []workloadResult{{Name: wl, EndToEnd: map[string]metricValue{d.Name: mv(100, 98, 102)}}}}
		b := &results{Workloads: []workloadResult{{Name: wl, EndToEnd: map[string]metricValue{d.Name: worse}}}}
		out.Reset()
		if bad := compare(&out, a, b); bad != 0 || !strings.Contains(out.String(), "regressed (advisory)") {
			t.Errorf("%s on %s is advisory, yet compare counted %d bad rows:\n%s", d.Name, wl, bad, out.String())
		}
		break
	}
}

// draw fingerprints what a generator hands a workload: ten destination sets
// and a payload.
func draw(seed uint64) uint64 {
	g := newGen(seed, "live_small")
	h := fnv.New64a()
	for i := 0; i < 10; i++ {
		src, dests := g.destSet(testbedHosts, 16)
		h.Write([]byte{byte(src)})
		for _, d := range dests {
			h.Write([]byte{byte(d)})
		}
	}
	h.Write(g.payload(1000))
	return h.Sum64()
}

func TestGeneratorDeterminism(t *testing.T) {
	if draw(1) != draw(1) {
		t.Error("same seed drew different inputs")
	}
	if draw(1) == draw(2) {
		t.Error("different seeds drew the same inputs")
	}
	a, b := newGen(1, "live_small"), newGen(1, "udp_bulk")
	if a.rng.Uint64() == b.rng.Uint64() {
		t.Error("two workloads share one stream")
	}
	if got := len(newGen(1, "x").payload(13)); got != 13 {
		t.Errorf("payload(13) has %d bytes", got)
	}
}

// TestSameResultCoversEveryField fails when a field is added to the result
// types sameResult compares by hand, so the comparison is revisited.
func TestSameResultCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(sim.ConcurrentResult{}).NumField(); n != 7 {
		t.Errorf("sim.ConcurrentResult has %d fields, sameResult compares 7", n)
	}
	if n := reflect.TypeOf(sim.SessionResult{}).NumField(); n != 3 {
		t.Errorf("sim.SessionResult has %d fields, sameResult compares 3", n)
	}
	e := newSimEngines(6, 3)
	a, b := e.serial(), e.parallel(e.wn, nil)
	if !sameResult(a, b) || !reflect.DeepEqual(a, b) {
		t.Fatal("sim and psim disagree on a 36-host mesh")
	}
	b.Sessions[0].HostDone[5]++
	if sameResult(a, b) {
		t.Error("sameResult missed a changed completion time")
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declared `json:"end_to_end"`
	PerLayer   []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONAgreesWithCode keeps BENCHMARK.json and the tables in
// spec.go and workloads.go saying the same thing.
func TestBenchmarkJSONAgreesWithCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: declared %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
	}

	var gated []declared
	for _, d := range endToEnd {
		if d.gatedEverywhere() {
			bound := d.driverBound()
			gated = append(gated, declared{d.Name, d.Unit, d.Better, &bound})
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, gated) {
		t.Errorf("end_to_end declared\n%s\ncode has\n%s", show(doc.EndToEnd), show(gated))
	}
	var layers []declared
	for _, d := range declaredPerLayer() {
		layers = append(layers, declared{d.Name, d.Unit, d.Better, nil})
	}
	if !reflect.DeepEqual(doc.PerLayer, layers) {
		t.Errorf("per_layer declared\n%s\ncode has\n%s", show(doc.PerLayer), show(layers))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]declared(nil), doc.EndToEnd...), doc.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v outside the contract's limits", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, *d.Bound)
		}
	}
	if !seen["setup_s"] || len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Error("setup_s missing or too many metrics")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

func show(ds []declared) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString("  " + d.Name + " " + d.Unit + " " + d.Better)
		if d.Bound != nil {
			b.WriteString(" bounded")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestSmoke runs all seven workloads for a fifth of a second each, traced,
// and checks that what the code emits is what it declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every engine for real")
	}
	cfg := config{defs: workloads, seed: 1, rounds: 1, roundDur: 200 * time.Millisecond,
		traced: true, log: io.Discard}
	res, spans, err := runSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(res.Workloads), len(workloads))
	}
	declaredLayer := map[string]bool{}
	for _, d := range declaredPerLayer() {
		declaredLayer[d.Name] = true
	}
	var gated []string
	for _, d := range endToEnd {
		if d.gatedEverywhere() {
			gated = append(gated, d.Name)
		}
	}
	emitted := map[string]bool{}
	for _, wl := range res.Workloads {
		if wl.Skipped != "" {
			t.Logf("%s: %s", wl.Name, wl.Skipped)
			continue
		}
		if !wl.Correct || wl.Failed != 0 || wl.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed: %s", wl.Name, wl.Correct, wl.Failed, wl.Attempted, wl.FirstErr)
		}
		for _, d := range endToEnd {
			v, ok := wl.EndToEnd[d.Name]
			if d.gatedEverywhere() && (!ok || v.Value <= 0) {
				t.Errorf("%s: gated metric %s missing or zero", wl.Name, d.Name)
			}
			if ok && !d.on(wl.Name) {
				t.Errorf("%s: reports %s, which is not defined there", wl.Name, d.Name)
			}
		}
		for k, v := range wl.PerLayer {
			if !declaredLayer[k] {
				t.Errorf("%s: emits undeclared per-layer metric %s", wl.Name, k)
			}
			if v != 0 {
				emitted[k] = true
			}
		}
		if len(spans[wl.Name]) == 0 {
			t.Errorf("%s: traced round recorded no spans", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			var line struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(contractLine(wl, traced)), &line); err != nil {
				t.Fatal(err)
			}
			want := len(declaredLayer)
			if !traced {
				want = len(gated)
			}
			if len(line.Metrics) != want || line.Attempted < 1 || !line.Correct {
				t.Errorf("%s: contract line (traced %v) has %d metrics, want %d: %+v", wl.Name, traced, len(line.Metrics), want, line)
			}
		}
	}
	// Quantities that are rightly zero on a clean short run, or need the
	// 100k pass or a thousand ops in the round.
	quiet := regexp.MustCompile(`^(link\.udp_(bad_datagrams|resyncs|overflow|ctl_dropped)|link\.chaos_|live\.(retransmit|duplicates|fenced|adoptions)|mcastd\.(retransmits|duplicates|fenced)|sched\.(dropped_frames|rejected|timed_out)|.*_100k$|fail_frac$|op_p99_us$|sched\..*_p99_us$|proc\.gc_pause)`)
	for name := range declaredLayer {
		if !emitted[name] && !quiet.MatchString(name) {
			t.Errorf("declared per-layer metric %s was emitted by no workload", name)
		}
	}
}
