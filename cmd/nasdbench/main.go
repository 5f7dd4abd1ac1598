// Command nasdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	nasdbench [-quick] [-experiment fig4,fig6,fig7,table1,fig9,andrew,active|all]
//
// Each experiment prints the paper's values beside the values produced
// by this repository's models and simulations. Performance numbers for
// the live stack come from bench/ (BENCHMARK.json); the fault and
// overload scenarios are Go tests (DESIGN.md §6, §7 and §10).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nasd/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run shorter simulations with fewer points")
	which := flag.String("experiment", "all", "comma-separated experiment IDs, or 'all'")
	flag.Parse()

	ids := experiments.IDs()
	if *which != "all" {
		ids = strings.Split(*which, ",")
	}
	for _, id := range ids {
		res, err := experiments.Run(strings.TrimSpace(id), *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nasdbench: %v\n", err)
			os.Exit(1)
		}
		res.Print(os.Stdout)
		fmt.Println()
	}
}
