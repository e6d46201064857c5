package check

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestRunParallelMatchesSerial is the tentpole determinism contract: for
// the same (seed, n), RunParallel must produce a Report — failures,
// shrunk reproducers, replay tokens, ordering — identical to Run for
// every worker count, including its rendered form. The shard merge is what
// is under test, so the catalogue runs without its wall-clock arms (live-*,
// net-*, sched-*): timer luck has no place in a determinism test.
func TestRunParallelMatchesSerial(t *testing.T) {
	var ids []string
	for _, inv := range Invariants {
		if !strings.HasPrefix(inv.ID, "live-") && !strings.HasPrefix(inv.ID, "net-") && !strings.HasPrefix(inv.ID, "sched-") {
			ids = append(ids, inv.ID)
		}
	}
	if err := Select(ids...); err != nil {
		t.Fatal(err)
	}
	defer Select()
	const seed, n = 1, 120
	serial := Run(seed, n, 10)
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		got := RunParallel(seed, n, 10, w)
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: report differs from serial\nserial: %+v\ngot:    %+v", w, serial, got)
		}
		if got.String() != serial.String() {
			t.Fatalf("workers=%d: rendered report differs from serial\nserial:\n%s\ngot:\n%s",
				w, serial, got)
		}
	}
}

// stubFailures installs a runCase stub that fails exactly on the given
// cases and returns a cleanup. The stub is deterministic per case, like
// the real harness.
func stubFailures(failing map[int]bool) func() {
	orig := runCase
	runCase = func(seed uint64, c int) *Failure {
		if !failing[c] {
			return nil
		}
		return &Failure{
			Case:       c,
			Seed:       seed,
			Violations: []Violation{{ID: "stub", Detail: fmt.Sprintf("case %d", c)}},
		}
	}
	return func() { runCase = orig }
}

// TestRunParallelMatchesSerialOnFailures pins the merge logic on the
// paths the real catalogue cannot reach: reports with failures, with and
// without the maxFail early stop, must be identical across worker counts.
func TestRunParallelMatchesSerialOnFailures(t *testing.T) {
	cases := []struct {
		name    string
		failing []int
		n       int
		maxFail int
	}{
		{"no-limit", []int{3, 17, 40, 41, 99}, 100, 0},
		{"limit-hit", []int{3, 17, 40, 41, 99}, 100, 3},
		{"limit-on-last", []int{5, 99}, 100, 2},
		{"limit-not-hit", []int{5, 9}, 100, 10},
		{"limit-one", []int{0, 1, 2, 3}, 100, 1},
		{"all-fail", []int{}, 60, 5}, // filled below: every case fails
		{"empty-range", nil, 0, 4},
	}
	for i := 0; i < 60; i++ {
		cases[5].failing = append(cases[5].failing, i)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			failing := map[int]bool{}
			for _, c := range tc.failing {
				failing[c] = true
			}
			defer stubFailures(failing)()
			serial := Run(7, tc.n, tc.maxFail)
			for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
				got := RunParallel(7, tc.n, tc.maxFail, w)
				if !reflect.DeepEqual(got, serial) {
					t.Fatalf("workers=%d: report differs from serial\nserial: %+v\ngot:    %+v",
						w, serial, got)
				}
			}
		})
	}
}

// TestRunParallelDefaultWorkers: workers < 1 must select NumCPU, not
// serial or zero workers.
func TestRunParallelDefaultWorkers(t *testing.T) {
	serial := Run(2, 40, 10)
	if got := RunParallel(2, 40, 10, 0); !reflect.DeepEqual(got, serial) {
		t.Fatalf("workers=0 (NumCPU): report differs from serial")
	}
}

// BenchmarkCheckCases measures serial harness throughput (the cases/sec
// metric).
func BenchmarkCheckCases(b *testing.B) {
	benchCheck(b, 1)
}

// BenchmarkCheckCasesParallel measures the sharded harness on NumCPU
// workers — the speedup over BenchmarkCheckCases is the tentpole's win.
func BenchmarkCheckCasesParallel(b *testing.B) {
	benchCheck(b, runtime.NumCPU())
}

func benchCheck(b *testing.B, workers int) {
	const n = 64
	// This figure is harness throughput over the in-process engines.
	// net-matches-live executes every case twice more — once over real
	// loopback UDP sockets — which would make socket I/O, not the
	// harness, the thing being measured; the socket fabric has its own
	// tracked pair (BenchmarkLiveUDP16x8*).
	var ids []string
	for _, inv := range Invariants {
		if inv.ID != "net-matches-live" {
			ids = append(ids, inv.ID)
		}
	}
	if err := Select(ids...); err != nil {
		b.Fatal(err)
	}
	defer Select()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := RunParallel(1, n, 10, workers)
		if !r.OK() {
			b.Fatalf("seed 1 unexpectedly failing:\n%s", r)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "cases/sec")
}
