package sim_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/psim"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/tree"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from sim.Concurrent*")

// goldenSystem is one fixed-seed network plus the two-session contention
// workload of check/psim.go: a k-binomial tree over a random chain, and a
// second session cut from the reversed chain with fanout 2 and a different
// packet count, started mid-flight so both contend for NIs and channels.
func goldenSystem(seed uint64) (routing.Router, []sim.Session) {
	var router routing.Router
	switch seed {
	case 1:
		router = routing.NewMeshDimOrder(topology.Mesh(4, 2), 4, 2)
	case 2:
		router = routing.NewUpDown(topology.Irregular(
			topology.IrregularConfig{Hosts: 48, Switches: 12, Ports: 6}, workload.NewRNG(seed)))
	default:
		router = routing.NewECube(topology.Cube(4, 2), 4, 2)
	}
	chain := workload.DestSet(workload.NewRNG(seed+100), router.Network().NumHosts(), 11)
	rev := make([]int, len(chain))
	for i, v := range chain {
		rev[len(rev)-1-i] = v
	}
	m := 3 + int(seed)
	return router, []sim.Session{
		{Tree: tree.KBinomial(chain, int(seed)), Packets: m, Start: 0},
		{Tree: tree.KBinomial(rev, 2), Packets: m/2 + 1, Start: 7.5},
	}
}

// goldenLosslessParams are check's calibration constants: zero router
// delay and zero t_nr put many events on the same timestamp, so the seq
// tiebreak — the thing a reordering bug breaks — decides most of the trace.
func goldenLosslessParams(ports int) sim.Params {
	return sim.Params{THostSend: 8, THostRecv: 4, TNISend: 3, PacketBytes: 64, LinkBytesUS: 32, NIPorts: ports}
}

// renderGolden prints a result and trace canonically: floats as
// math.Float64bits in hex, maps in ascending key order, nil maps marked.
func renderGolden(res *sim.ConcurrentResult, trace []sim.TraceEvent) string {
	var b strings.Builder
	bits := math.Float64bits
	fmt.Fprintf(&b, "sends %d\nchannelwait %016x\nmakespan %016x\n", res.Sends, bits(res.ChannelWait), bits(res.Makespan))
	f := res.Faults
	fmt.Fprintf(&b, "faults %d %d %d %d %d %d %d %016x\n", f.Dropped, f.Corrupted, f.AcksDropped,
		f.DeadSends, f.CrashDrops, f.Crashes, f.Recoveries, bits(f.StallWait))
	floats := func(label string, m map[int]float64) {
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s %d %016x\n", label, k, bits(m[k]))
		}
	}
	ints := func(label string, m map[int]int) {
		if m == nil {
			fmt.Fprintf(&b, "%s nil\n", label)
			return
		}
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %d %d\n", label, k, m[k])
		}
	}
	for si, s := range res.Sessions {
		fmt.Fprintf(&b, "session %d latency %016x\n", si, bits(s.Latency))
		floats("ni", s.NIDone)
		floats("host", s.HostDone)
	}
	ints("maxbuffered", res.MaxBuffered)
	if res.Incomplete == nil {
		b.WriteString("incomplete nil\n")
	}
	for si, inc := range res.Incomplete {
		ints(fmt.Sprintf("incomplete %d", si), inc)
	}
	for _, ev := range trace {
		fmt.Fprintf(&b, "trace %s %016x %d %d %d %d %016x\n", ev.Kind, bits(ev.Time),
			ev.Host, ev.Peer, ev.Session, ev.Packet, bits(ev.Wait))
	}
	return b.String()
}

// TestGoldenFixtures holds every packet-level entry point — sim.* and
// psim.* at 1 and 3 workers — bit for bit to fixtures recorded from the
// map-and-closure serial engine (concSim) that this package used to carry
// next to psim's dense tables. They are the independent second opinion the
// psim-matches-sim invariant stopped being once both schedulers shared one
// session model.
//
// The fixtures were generated at commit c639b2a, before any engine edit,
// with
//
//	go test ./internal/sim -run TestGoldenFixtures -update
//
// which writes what sim.ConcurrentTraced returns. Regenerating them from a
// later engine defeats their purpose.
func TestGoldenFixtures(t *testing.T) {
	discs := []struct {
		name string
		d    stepsim.Discipline
	}{{"fpfs", stepsim.FPFS}, {"fcfs", stepsim.FCFS}, {"conv", stepsim.Conventional}}
	for seed := uint64(1); seed <= 3; seed++ {
		router, sessions := goldenSystem(seed)
		for _, disc := range discs {
			for _, ports := range []int{1, 2} {
				name := fmt.Sprintf("s%d-%s-p%d", seed, disc.name, ports)
				t.Run(name, func(t *testing.T) {
					lp := goldenLosslessParams(ports)
					run := func(workers int) string {
						var (
							res   *sim.ConcurrentResult
							trace []sim.TraceEvent
						)
						if workers == 0 {
							res, trace = sim.ConcurrentTraced(router, sessions, lp, disc.d, true)
						} else {
							res, trace = psim.ConcurrentTraced(router, sessions, lp, disc.d, true, psim.Config{Workers: workers})
						}
						return "== lossless\n" + renderGolden(res, trace)
					}
					path := filepath.Join("testdata", "golden", name+".golden")
					if *updateGolden {
						if err := os.WriteFile(path, []byte(run(0)), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{0, 1, 3} {
						if got := run(workers); got != string(want) {
							t.Errorf("workers=%d (0 = sim.*): diverged from %s at %s", workers, path, firstDiff(got, string(want)))
						}
					}
				})
			}
		}
	}
}

// firstDiff names the first line where two renderings differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length: got %d lines, want %d", len(g), len(w))
}
