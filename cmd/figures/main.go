// Command figures regenerates the data behind every figure of the paper's
// evaluation and writes one text file per figure into an output directory
// (plus everything to stdout).
//
// Usage:
//
//	figures [-out dir] [-quick] [-only fig14a] [-csv]
//
// Without -quick it runs the paper's full methodology (30 destination sets
// on each of 10 random topologies per data point). The sweep trials run on
// GOMAXPROCS goroutines; the emitted tables are identical for every value.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

func main() {
	out := flag.String("out", "figures", "output directory for per-figure data files")
	quick := flag.Bool("quick", false, "reduced sweep (3 topologies x 5 trials) for a fast pass")
	only := flag.String("only", "", "run a single experiment by id (e.g. fig12a)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csv := flag.Bool("csv", false, "also write <id>.<n>.csv files with the raw table data")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}

	run := experiments.All()
	if *only != "" {
		e, ok := experiments.ByID(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "figures: unknown experiment %q (use -list)\n", *only)
			os.Exit(1)
		}
		run = []experiments.Experiment{e}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
	for _, e := range run {
		fmt.Printf("running %s: %s ...\n", e.ID, e.Title)
		res := e.Run(cfg)
		text := res.String()
		fmt.Println(text)
		path := filepath.Join(*out, e.ID+".txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "figures: write %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
		if *csv {
			for i, tb := range res.Tables {
				cpath := filepath.Join(*out, fmt.Sprintf("%s.%d.csv", e.ID, i))
				if err := os.WriteFile(cpath, []byte(tb.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "figures: write %s: %v\n", cpath, err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s\n", cpath)
			}
		}
		fmt.Println()
	}
}
