package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// quartiles returns the first quartile, the median and the third
// quartile as Python's statistics.quantiles(v, n=4) gives them (the
// exclusive method), which is what the driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(math.Floor(pos)), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// runAA runs n full sets for each of two labels, alternating, every run
// a fresh process of this binary with its own seed, as the driver runs
// it. The two labels are the same code, so any difference between their
// medians is noise: it prints, per workload and metric, both medians,
// the quartile distance over the median and the bound, and returns 1
// when two medians differ by more than the bound.
func runAA(n int, cfg config) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -aa needs at least 2 runs a side")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -aa reads the bounds from BENCHMARK.json in the current directory:", err)
		return 2
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	// values[workload][metric][label] is one sample per set.
	values := make(map[string]map[string][2][]float64)
	seed := cfg.seed
	for set := 0; set < 2*n; set++ {
		label := set % 2
		for _, wl := range workloads {
			seed++
			cmd := exec.Command(self, "-workload", wl.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds.Seconds(), 'g', -1, 64), "-warmup", cfg.warmup.String(), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", wl.name, seed, err)
				return 2
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var line resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil || !line.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: bad result %q: %v\n", wl.name, seed, lines[len(lines)-1], err)
				return 2
			}
			if values[wl.name] == nil {
				values[wl.name] = make(map[string][2][]float64)
			}
			for name, mv := range line.Metrics {
				pair := values[wl.name][name]
				pair[label] = append(pair[label], mv.Value)
				values[wl.name][name] = pair
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %c %s seed %d: %.1f ops/s\n", set+1, 2*n, 'A'+label, wl.name, seed, line.Metrics["ops_per_s"].Value)
		}
	}

	status := 0
	fmt.Printf("%-18s %-20s %14s %14s %9s %9s %7s\n", "workload", "metric", "median A", "median B", "iqr/med", "B vs A", "bound")
	for _, wl := range workloads {
		for _, md := range mf.EndToEnd {
			pair := values[wl.name][md.Name]
			medA, medB := median(pair[0]), median(pair[1])
			q1, med, q3 := quartiles(append(slices.Clone(pair[0]), pair[1]...))
			worse := (medB - medA) / medA
			if md.Better == "higher" {
				worse = -worse
			}
			spread := (q3 - q1) / med
			verdict := ""
			switch {
			case math.Abs(worse) > md.Bound:
				verdict = "  MEDIANS DIFFER BY MORE THAN THE BOUND"
				status = 1
			case spread > md.Bound && md.Name != "setup_s":
				verdict = "  SPREAD WIDER THAN THE BOUND"
				status = 1
			case spread > md.Bound/3:
				verdict = "  spread above a third of the bound"
			}
			fmt.Printf("%-18s %-20s %14.4f %14.4f %8.2f%% %+8.2f%% %6.1f%%%s\n",
				wl.name, md.Name, medA, medB, 100*spread, 100*worse, 100*md.Bound, verdict)
		}
	}
	return status
}
