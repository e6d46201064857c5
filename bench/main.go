// Command bench is the repository's benchmark: seven closed-loop workloads
// that drive every rung of the engine ladder through public functions only,
// report end-to-end metrics as medians over rounds, and attribute each op's
// cost to layers from spans, returned counters and layer probes recorded
// outside the program. See README.md for the vocabulary.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit code: 0 measured and correct, 1 wrong output or
// I/O failure, 2 usage, 3 the one requested workload cannot run here.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names    = fs.String("workload", "", "comma-separated workloads to run (default: all seven)")
		seed     = fs.Uint64("seed", 1, "seed of every generated input: topology, destination sets, payload, fault seeds")
		rounds   = fs.Int("rounds", 4, "timed rounds per workload; a metric is the median over rounds")
		seconds  = fs.Float64("seconds", 12, "measuring seconds per workload, split evenly over -rounds")
		trace    = fs.Int("trace", 1, "1: also run the traced round and the layer probes; 0: end-to-end only")
		traceOut = fs.String("trace-out", filepath.Join(os.TempDir(), "mcastbench-spans.json"), "file the traced rounds' spans are written to at exit")
		jsonOut  = fs.String("json", "", "write the results document to this file")
		cmp      = fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		a, err := loadResults(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		b, err := loadResults(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if bad := compare(stdout, a, b); bad > 0 {
			fmt.Fprintf(stdout, "%d gated rows regressed or unresolved\n", bad)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *rounds < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: bench [-workload a,b] [-seed n] [-rounds n] [-seconds s] [-trace 0|1] [-trace-out file] [-json file]")
		return 2
	}
	cfg := config{seed: *seed, rounds: *rounds, traced: *trace == 1, log: stderr}
	cfg.roundDur = time.Duration(*seconds / float64(*rounds) * float64(time.Second))
	if *names == "" {
		cfg.defs = workloads
	}
	for _, n := range strings.FieldsFunc(*names, func(r rune) bool { return r == ',' }) {
		def, ok := findWorkload(n)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", n)
			return 2
		}
		cfg.defs = append(cfg.defs, def)
	}

	// Pinned so that a bigger box does not silently change what W=GOMAXPROCS
	// and the scheduler's shard count mean; recorded in the results.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	res, spans, wrong := runSuite(cfg)
	if res == nil {
		fmt.Fprintln(stderr, wrong)
		return 1
	}
	report(stdout, res)
	if cfg.traced {
		if err := writeSpans(*traceOut, spans); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "\nspans written to %s\n", *traceOut)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if len(res.Workloads) == 1 {
		wl := res.Workloads[0]
		if wl.Skipped != "" {
			return 3
		}
		fmt.Fprintln(stdout, contractLine(wl, cfg.traced))
	}
	if wrong != nil {
		fmt.Fprintln(stderr, "wrong output:", wrong)
		return 1
	}
	return 0
}
