// Command nasdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	nasdbench [-quick] [-experiment fig4,fig6,fig7,table1,fig9,andrew,active|all]
//	nasdbench -workload chaos|qos [flags]
//
// Each experiment prints the paper's values beside the values produced
// by this repository's models and simulations.
//
// With -workload, nasdbench instead runs one of two drills against
// in-process drives. A drill asserts and exits nonzero on a breach; it
// does not produce performance numbers (bench/ does, see
// BENCHMARK.json):
//
//   - chaos: the kill/restart soak from DESIGN.md §6-§7 over four
//     drives with verified RAID-5/mirrored traffic — the victim drive
//     is killed mid-run (volatile cache dropped), restarted through
//     journal recovery, marked stale, and rebuilt.
//   - qos: the multi-tenant overload scenario (DESIGN.md §10) — a
//     well-behaved victim tenant measured solo, then again under a
//     ~10x open-loop aggressor flood through the qos plane; the run
//     exits nonzero unless the victim's contended p99 holds within
//     3 x max(solo p99, 3 ms) with zero failures and all rejections
//     typed as retry-later.
//
// With -json PATH, a drill additionally writes a machine-readable
// BENCH_<name>.json record of what it observed (latency percentiles,
// counters, events; schema in EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nasd/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run shorter simulations with fewer points")
	which := flag.String("experiment", "all", "comma-separated experiment IDs, or 'all'")
	workload := flag.String("workload", "", "drill selector: chaos or qos (empty = run experiments)")
	chaosDur := flag.Duration("chaos-duration", 3*time.Second, "total soak length for the chaos drill (split across healthy/degraded/recovered phases)")
	chaosSeed := flag.Int64("seed", 1, "deterministic seed for the chaos fault schedule and both drills' traffic")
	qosDur := flag.Duration("qos-duration", 2*time.Second, "per-phase length for the qos drill (solo baseline, then contended)")
	qosClients := flag.Int("qos-clients", 1000, "simulated open-loop aggressor clients for the qos drill")
	jsonOut := flag.String("json", "", "also write a machine-readable BENCH_<name>.json result: a .json path names the file, anything else the directory (drills only)")
	flag.Parse()

	if *workload != "" {
		var err error
		switch *workload {
		case "chaos":
			err = runChaos(os.Stdout, *chaosDur, *chaosSeed, *jsonOut)
		case "qos":
			err = runQoS(os.Stdout, *qosDur, *qosClients, *chaosSeed, *jsonOut)
		default:
			err = unknownWorkload(*workload)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nasdbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

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

// retired maps each workload bench/ replaced to the bench/ workload
// that measures what it measured.
var retired = map[string]string{
	"stats":    "small_read_8k",
	"parallel": "stream_read_512k",
	"smallobj": "smallobj_needle",
}

func unknownWorkload(name string) error {
	if repl, ok := retired[name]; ok {
		return fmt.Errorf("-workload %s was retired; run: bash bench/run.sh --workload %s", name, repl)
	}
	return fmt.Errorf("unknown -workload %q (want chaos or qos)", name)
}
