package experiments

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ktree"
	"repro/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"abl-cluster", "abl-k", "abl-ni", "abl-ordering", "abl-path", "abl-plan", "abl-ports", "buffer", "chaos",
		"collectives",
		"fig12a", "fig12b", "fig13a", "fig13b", "fig14a", "fig14b", "fig4", "fig5", "fig8",
		"flitcheck", "multi", "pktsize", "scale",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := ByID("fig12a"); !ok {
		t.Error("ByID(fig12a) missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) found something")
	}
}

// cell returns the table cell at (row, col) parsed as float.
func cellFloat(t *testing.T, lines []string, row, col int) float64 {
	t.Helper()
	fields := strings.Fields(lines[row])
	v, err := strconv.ParseFloat(fields[col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a float: %v", row, col, fields[col], err)
	}
	return v
}

func TestFig4Shapes(t *testing.T) {
	res := runFig4(Quick())
	if len(res.Tables) != 2 {
		t.Fatalf("fig4 produced %d tables", len(res.Tables))
	}
	// Model table: conventional/smart ratio must exceed 1 for n >= 4 and
	// grow with n.
	model := res.Tables[0]
	prev := 0.0
	for i, row := range model.Rows[1:] { // skip n=2 where they tie
		ratio, _ := strconv.ParseFloat(row[3], 64)
		if ratio <= 1 {
			t.Errorf("model row %d: ratio %f <= 1", i, ratio)
		}
		if ratio < prev {
			t.Errorf("model ratio not non-decreasing at row %d", i)
		}
		prev = ratio
	}
	// Measured table: smart must win every row.
	for i, row := range res.Tables[1].Rows {
		conv, _ := strconv.ParseFloat(row[1], 64)
		smart, _ := strconv.ParseFloat(row[2], 64)
		if smart >= conv {
			t.Errorf("measured row %d: smart %f >= conventional %f", i, smart, conv)
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	res := runFig5(Quick())
	rows := res.Tables[0].Rows
	if rows[0][1] != "6" || rows[1][1] != "5" {
		t.Errorf("fig5 steps = %s/%s, want 6/5", rows[0][1], rows[1][1])
	}
}

func TestFig8Shapes(t *testing.T) {
	res := runFig8(Quick())
	rows := res.Tables[0].Rows
	want := []string{"3", "6", "9"}
	for i, w := range want {
		if rows[i][1] != w {
			t.Errorf("fig8 packet %d completes at %s, want %s", i+1, rows[i][1], w)
		}
	}
}

func TestBufferShapes(t *testing.T) {
	res := runBuffer(Quick())
	// Analytic table: FCFS >= FPFS everywhere.
	for i, row := range res.Tables[0].Rows {
		fc, _ := strconv.Atoi(row[2])
		fp, _ := strconv.Atoi(row[3])
		if fp > fc {
			t.Errorf("analytic row %d: FPFS %d > FCFS %d", i, fp, fc)
		}
	}
	// Measured: FCFS mean peak >= FPFS mean peak per m, and FCFS grows
	// with m while FPFS stays bounded.
	rows := res.Tables[1].Rows
	var lastFC float64
	for i, row := range rows {
		fc, _ := strconv.ParseFloat(row[1], 64)
		fp, _ := strconv.ParseFloat(row[2], 64)
		if fp > fc {
			t.Errorf("measured m=%s: FPFS %f > FCFS %f", row[0], fp, fc)
		}
		if fc < lastFC {
			t.Errorf("measured row %d: FCFS peak decreased", i)
		}
		lastFC = fc
	}
	// FCFS must hold the whole message, so its peak tracks m; FPFS holds
	// only in-flight packets (plus backpressure) and must stay well below
	// — at most half of FCFS's peak for the longest message.
	finalFC, _ := strconv.ParseFloat(rows[len(rows)-1][1], 64)
	lastFP, _ := strconv.ParseFloat(rows[len(rows)-1][2], 64)
	if lastFP > finalFC/2 {
		t.Errorf("FPFS peak %f not well below FCFS peak %f at m=16", lastFP, lastFC)
	}
}

func TestFig12aShapes(t *testing.T) {
	res := runFig12a(Default())
	rows := res.Tables[0].Rows
	// First row (m=1): binomial k = ceil(log2 n) = 4,5,6,6.
	want := []string{"4", "5", "6", "6"}
	for i, w := range want {
		if rows[0][i+1] != w {
			t.Errorf("fig12a m=1 col %d = %s, want %s", i, rows[0][i+1], w)
		}
	}
	// Monotone non-increasing down every column.
	for col := 1; col <= 4; col++ {
		prev := 99
		for _, row := range rows {
			k, _ := strconv.Atoi(row[col])
			if k > prev {
				t.Errorf("fig12a col %d: k rose to %d", col, k)
			}
			prev = k
		}
	}
	// 15-dest column reaches 1 within the plotted range (paper).
	last := rows[len(rows)-1]
	if last[1] != "1" {
		t.Errorf("fig12a: 15-dest optimal k at m=35 is %s, want 1", last[1])
	}
}

func TestFig12bShapes(t *testing.T) {
	res := runFig12b(Default())
	rows := res.Tables[0].Rows
	for _, row := range rows {
		n, _ := strconv.Atoi(row[0])
		// m=4 and m=8 columns: k = 2 once n reaches the paper's plotted
		// sizes (16..64). Below that the linear chain can win for m=8.
		if n >= 16 && n <= 64 {
			if row[3] != "2" || row[4] != "2" {
				t.Errorf("fig12b n=%d: k(m=4)=%s k(m=8)=%s, want 2/2", n, row[3], row[4])
			}
		}
		// m=1 column: the chosen k must still achieve the binomial step
		// count ceil(log2 n) (ties are broken toward smaller k).
		k1, _ := strconv.Atoi(row[1])
		if ktree.Steps1(n, k1) != ceilLog2(n) {
			t.Errorf("fig12b n=%d: k(m=1)=%d does not achieve ceil(log2 n) steps", n, k1)
		}
	}
}

func TestFig13aShapes(t *testing.T) {
	res := runFig13a(Quick())
	rows := res.Tables[0].Rows
	lines := strings.Split(strings.TrimRight(res.Tables[0].String(), "\n"), "\n")
	_ = lines
	// Latency grows with m in every column and with dest count across
	// columns (same m).
	for col := 1; col <= 4; col++ {
		prev := 0.0
		for _, row := range rows {
			v, _ := strconv.ParseFloat(row[col], 64)
			if v <= prev {
				t.Errorf("fig13a col %d: latency %f not increasing", col, v)
			}
			prev = v
		}
	}
	// Across destination counts the ordering holds while t1 dominates
	// (small m); at large m the optimal k converges to 2 everywhere, step
	// counts compress to ~2m, and the lines meet (visible in the paper's
	// plot too). Assert only the small-m rows.
	for _, row := range rows {
		m, _ := strconv.Atoi(row[0])
		if m > 4 {
			continue
		}
		for col := 2; col <= 4; col++ {
			a, _ := strconv.ParseFloat(row[col-1], 64)
			b, _ := strconv.ParseFloat(row[col], 64)
			if b < a*0.98 {
				t.Errorf("fig13a m=%s: latency fell from %f to %f with more destinations", row[0], a, b)
			}
		}
	}
}

func ceilLog2(n int) int {
	k, v := 0, 1
	for v < n {
		k++
		v *= 2
	}
	return k
}

func TestFig14aShapes(t *testing.T) {
	res := runFig14a(Quick())
	rows := res.Tables[0].Rows
	// k-binomial never slower than binomial beyond small m noise; ratio
	// grows with m for the 47-dest columns; peak close to paper's 2x.
	firstRatio, _ := strconv.ParseFloat(rows[0][6], 64)
	lastRatio, _ := strconv.ParseFloat(rows[len(rows)-1][6], 64)
	if lastRatio <= firstRatio {
		t.Errorf("fig14a: 47-dest ratio did not grow with m (%f -> %f)", firstRatio, lastRatio)
	}
	if lastRatio < 1.5 {
		t.Errorf("fig14a: final 47-dest ratio %f, want >= 1.5 (paper ~2x)", lastRatio)
	}
	for _, row := range rows {
		for _, col := range []int{3, 6} {
			r, _ := strconv.ParseFloat(row[col], 64)
			if r < 0.98 {
				t.Errorf("fig14a m=%s: k-binomial slower than binomial (ratio %f)", row[0], r)
			}
		}
	}
}

func TestFig14bShapes(t *testing.T) {
	res := runFig14b(Quick())
	rows := res.Tables[0].Rows
	// For every n, the 8-packet ratio must be >= the 2-packet ratio
	// (improvement grows with packet count) within tolerance.
	for _, row := range rows {
		r2, _ := strconv.ParseFloat(row[3], 64)
		r8, _ := strconv.ParseFloat(row[6], 64)
		if r8 < r2-0.1 {
			t.Errorf("fig14b n=%s: ratio(m=8)=%f < ratio(m=2)=%f", row[0], r8, r2)
		}
	}
}

func TestResultString(t *testing.T) {
	res := runFig5(Quick())
	out := res.String()
	if !strings.Contains(out, "fig5") || !strings.Contains(out, "binomial") || !strings.Contains(out, "note:") {
		t.Errorf("Result.String malformed:\n%s", out)
	}
}

func TestQuickConfigSmaller(t *testing.T) {
	q, d := Quick(), Default()
	if q.Sweep.Trials >= d.Sweep.Trials || q.Sweep.Topologies >= d.Sweep.Topologies {
		t.Error("Quick config not smaller than Default")
	}
}

// TestTrialsOrderAndRNG checks the one trial loop: a result per
// (topology, trial) in that order, trial (t, i) drawing from
// TrialRNG(t, i), on several workers.
func TestTrialsOrderAndRNG(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	cfg := tiny()
	type rec struct {
		topo int
		x    uint64
	}
	got := trials(cfg, func(topo int, rng *workload.RNG) rec { return rec{topo, rng.Uint64()} })
	if len(got) != cfg.Sweep.Topologies*cfg.Sweep.Trials {
		t.Fatalf("%d results, want %d", len(got), cfg.Sweep.Topologies*cfg.Sweep.Trials)
	}
	for j, d := range got {
		topo, i := j/cfg.Sweep.Trials, j%cfg.Sweep.Trials
		if want := (rec{topo, cfg.Sweep.TrialRNG(topo, i).Uint64()}); d != want {
			t.Errorf("result %d = %+v, want %+v (topology %d, trial %d)", j, d, want, topo, i)
		}
	}
}

// TestWorkersDoNotChangeTables runs every sweep experiment at GOMAXPROCS
// 1 and 3: trials fold in (topology, trial) order, so the tables must be
// identical.
func TestWorkersDoNotChangeTables(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, id := range []string{
		"abl-cluster", "abl-k", "abl-ni", "abl-ordering", "abl-path", "abl-plan", "abl-ports", "buffer",
		"chaos", "fig13a", "fig13b", "fig14a", "fig14b", "fig4", "multi", "pktsize",
	} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		runtime.GOMAXPROCS(1)
		serial := e.Run(tiny()).String()
		runtime.GOMAXPROCS(3)
		if got := e.Run(tiny()).String(); got != serial {
			t.Errorf("%s: tables at GOMAXPROCS 3 differ from GOMAXPROCS 1:\n%s\nvs\n%s", id, got, serial)
		}
	}
}
