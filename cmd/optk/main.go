// Command optk prints optimal-k tables for the k-binomial multicast tree
// (Theorem 3), the data behind Fig. 12 of the paper.
//
// Usage:
//
//	optk [-nmax 70] [-mmax 35] [-n 64] [-m 8]
//
// With -n and -m it prints a single decision; otherwise the full table.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/ktree"
)

// checkFlags range-checks the single-query flags, both 0 when unset: a
// multicast set has a source and at least one destination, a message at
// least one packet.
func checkFlags(n, m int) error {
	if n < 0 || n == 1 {
		return fmt.Errorf("-n %d: a multicast set has n >= 2 members (0 prints the table)", n)
	}
	if m < 0 {
		return fmt.Errorf("-m %d: a message has m >= 1 packets (0 prints the table)", m)
	}
	return nil
}

func main() {
	nMax := flag.Int("nmax", 70, "largest multicast set size for the table")
	mMax := flag.Int("mmax", 35, "largest packet count for the table")
	n := flag.Int("n", 0, "single query: multicast set size (with -m)")
	m := flag.Int("m", 0, "single query: packet count (with -n)")
	flag.Parse()
	if err := checkFlags(*n, *m); err != nil {
		fmt.Fprintln(os.Stderr, "optk:", err)
		os.Exit(2)
	}

	if *n > 0 && *m > 0 {
		k, steps := ktree.OptimalK(*n, *m)
		fmt.Printf("n=%d m=%d: optimal k=%d, %d steps (t1=%d, pipeline lag %d)\n",
			*n, *m, k, steps, ktree.Steps1(*n, k), k)
		fmt.Printf("binomial (k=%d): %d steps; linear (k=1): %d steps\n",
			ktree.CeilLog2(*n), ktree.Steps(*n, *m, ktree.CeilLog2(*n)), ktree.Steps(*n, *m, 1))
		return
	}

	fmt.Printf("optimal k for n=2..%d (rows) x m=1..%d (cols)\n\n      ", *nMax, *mMax)
	for m := 1; m <= *mMax; m++ {
		fmt.Printf("%3d", m)
	}
	fmt.Println()
	for n := 2; n <= *nMax; n++ {
		fmt.Printf("n=%-4d", n)
		for m := 1; m <= *mMax; m++ {
			k, _ := ktree.OptimalK(n, m)
			fmt.Printf("%3d", k)
		}
		fmt.Println()
	}
	fmt.Println("\ncrossover to the linear chain (k=1):")
	for _, n := range []int{4, 8, 16, 32, 64} {
		fmt.Printf("  n=%-3d first optimal at m=%d\n", n, ktree.CrossoverM(n))
	}
}
