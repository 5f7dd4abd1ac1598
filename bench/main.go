// Command bench is the repository's benchmark: five closed-loop
// workloads against the live NASD stack over the in-process transport,
// ten end-to-end metrics measured with nothing interposed, and a traced
// pass that splits each op across the layers from outside the program.
// See README.md in this directory.
//
//	go run ./bench                                  every workload, both passes
//	go run ./bench -workload cheops_raid5 -trace 0  one run, result as the last line
//	go run ./bench -aa 5                            calibrate: two sets of five runs
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: all of them)")
	seed := flag.Int64("seed", 1, "seed for keys, data, offsets and the op mix")
	seconds := flag.Float64("seconds", 15, "measured window in seconds; a traced run splits it into an untraced and a traced half")
	warmup := flag.Duration("warmup", 2*time.Second, "warm-up before the window")
	trace := flag.String("trace", "", "0: end-to-end metrics with nothing interposed; 1: per-layer metrics from the traced pass (default: both)")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans to this file as JSON lines")
	aa := flag.Int("aa", 0, "run this many full sets each for labels A and B on this binary and compare their medians with the bounds in BENCHMARK.json")
	flag.Parse()

	if flag.NArg() > 0 {
		fatal(2, fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	cfg := config{seed: uint64(*seed), seconds: time.Duration(*seconds * float64(time.Second)), warmup: *warmup, traceOut: *traceOut, scale: 1, setups: defaultSetups}
	if *aa > 0 {
		os.Exit(runAA(*aa, cfg))
	}
	selected := workloads
	if *workloadName != "" {
		selected = nil
		for _, wl := range workloads {
			if wl.name == *workloadName {
				selected = []workload{wl}
			}
		}
		if selected == nil {
			fatal(2, fmt.Errorf("unknown workload %q", *workloadName))
		}
	}
	var passes []string
	switch *trace {
	case "":
		passes = []string{"0", "1"}
	case "0", "1":
		passes = []string{*trace}
	default:
		fatal(2, fmt.Errorf("-trace takes 0 or 1, not %q", *trace))
	}

	ctx := context.Background()
	correct := true
	var last result
	var lastDefs []metricDef
	for _, wl := range selected {
		for _, pass := range passes {
			run, defs := runEndToEnd, endToEnd
			if pass == "1" {
				run, defs = runTraced, perLayer
			}
			res, err := run(ctx, wl, cfg)
			if err != nil {
				fatal(1, err)
			}
			printTable(os.Stdout, res, defs, pass)
			correct = correct && res.correct
			last, lastDefs = res, defs
		}
	}
	// One workload and one pass is how the driver calls: the result is
	// the last line of standard output.
	// A failed op is part of that result, not an error of the run.
	if len(selected) == 1 && len(passes) == 1 {
		if err := printResult(os.Stdout, last, lastDefs); err != nil {
			fatal(1, err)
		}
		return
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(code)
}

func printTable(w io.Writer, res result, defs []metricDef, pass string) {
	title := "end to end, nothing interposed"
	if pass == "1" {
		title = "per layer, traced pass"
	}
	fmt.Fprintf(w, "== %s: %s (sandbox, modelled medium; not a device's numbers)\n", res.workload, title)
	for _, d := range defs {
		fmt.Fprintf(w, "%-36s %16.4f %s\n", d.name, res.values[d.name], d.unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	if res.firstErr != nil {
		fmt.Fprintf(w, "   %d of %d ops failed; first: %v\n", res.failed, res.attempted, res.firstErr)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResult(w io.Writer, res result, defs []metricDef) error {
	line := resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.workload, d.name)
		}
		line.Metrics[d.name] = metricValue{v, d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
