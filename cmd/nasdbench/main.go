// Command nasdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	nasdbench [-quick] [-experiment fig4,fig6,fig7,table1,fig9,andrew,active|all]
//	nasdbench -workload stats|parallel|chaos|smallobj|qos [flags]
//
// Each experiment prints the paper's values beside the values produced
// by this repository's models and simulations.
//
// With -workload, nasdbench instead runs a live workload against
// in-process drives:
//
//   - stats: a write+read workload against one secure drive, printing
//     the measured per-op telemetry — service time per NASD operation
//     split into digest verification, object system, and media;
//     Table 1's decomposition, measured rather than modelled.
//   - parallel: -parallel N concurrent client workers over distinct
//     objects on one drive, printing aggregate throughput plus the
//     per-layer lock-contention telemetry (DESIGN.md §4).
//   - chaos: the kill/restart soak from DESIGN.md §6-§7 over four
//     drives with verified RAID-5/mirrored traffic — the victim drive
//     is killed mid-run (volatile cache dropped), restarted through
//     journal recovery, marked stale, and rebuilt.
//   - smallobj: the classic-vs-needle storage-engine comparison — a
//     4 KiB object population written once then served with a Zipf
//     stat+read mix, on one partition per backend (DESIGN.md §4).
//   - qos: the multi-tenant overload scenario (DESIGN.md §10) — a
//     well-behaved victim tenant measured solo, then again under a
//     ~10x open-loop aggressor flood through the qos plane; the run
//     exits nonzero unless the victim's p99 holds within 3x of its
//     solo baseline with zero failures and all rejections typed as
//     retry-later.
//
// With -json PATH, every live workload additionally writes a
// machine-readable BENCH_<name>.json result (throughput, latency
// percentiles, config; schema in EXPERIMENTS.md) so runs can be
// compared over time.
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
	workload := flag.String("workload", "", "live workload selector: stats, parallel, chaos, smallobj, or qos (empty = run experiments)")
	statsMB := flag.Int("stats-mb", 8, "workload size in MB for the stats workload and per worker for parallel")
	parallel := flag.Int("parallel", 4, "worker count for the parallel workload")
	chaosDur := flag.Duration("chaos-duration", 3*time.Second, "total soak length for the chaos workload (split across healthy/degraded/recovered phases)")
	chaosSeed := flag.Int64("seed", 1, "deterministic seed for the chaos fault schedule and workload")
	smallObjects := flag.Int("smallobj-objects", 20000, "object population for the smallobj workload (scaled stand-in for the Haystack million-object store)")
	qosDur := flag.Duration("qos-duration", 2*time.Second, "per-phase length for the qos workload (solo baseline, then contended)")
	qosClients := flag.Int("qos-clients", 1000, "simulated open-loop aggressor clients for the qos workload")
	jsonOut := flag.String("json", "", "also write a machine-readable BENCH_<name>.json result: a .json path names the file, anything else the directory (live workloads only)")
	flag.Parse()

	if *workload != "" {
		var err error
		switch *workload {
		case "stats":
			err = runStats(os.Stdout, *statsMB, *jsonOut)
		case "parallel":
			err = runParallel(os.Stdout, *parallel, *statsMB, *jsonOut)
		case "chaos":
			err = runChaos(os.Stdout, *chaosDur, *chaosSeed, *jsonOut)
		case "smallobj":
			err = runSmallObj(os.Stdout, *smallObjects, *jsonOut)
		case "qos":
			err = runQoS(os.Stdout, *qosDur, *qosClients, *chaosSeed, *jsonOut)
		default:
			err = fmt.Errorf("unknown -workload %q (want stats, parallel, chaos, smallobj, or qos)", *workload)
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
