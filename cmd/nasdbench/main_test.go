package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsEmitResults runs every live workload at its smallest
// size and checks the machine-readable result it writes. The chaos and
// qos workloads assert their own invariants (every op verified through
// the kill, the victim's latency bound under the flood) and return an
// error on a breach, so a nil error covers those too.
func TestWorkloadsEmitResults(t *testing.T) {
	workloads := []struct {
		name string
		slow bool
		run  func(w io.Writer, jsonOut string) error
	}{
		{"stats", false, func(w io.Writer, out string) error { return runStats(w, 1, out) }},
		{"parallel", false, func(w io.Writer, out string) error { return runParallel(w, 2, 1, out) }},
		{"smallobj", false, func(w io.Writer, out string) error { return runSmallObj(w, 16, out) }},
		{"chaos", true, func(w io.Writer, out string) error { return runChaos(w, 300*time.Millisecond, 1, out) }},
		{"qos", true, func(w io.Writer, out string) error { return runQoS(w, time.Second, 100, 1, out) }},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			if wl.slow && testing.Short() {
				t.Skip("multi-second soak; skipped under -short")
			}
			if wl.name == "qos" && raceEnabled {
				t.Skip("asserts a wall-clock p99 bound that the race detector's slowdown breaches; scripts/check.sh runs it uninstrumented")
			}
			dir := t.TempDir()
			var report bytes.Buffer
			if err := wl.run(&report, dir); err != nil {
				t.Fatalf("%v\n%s", err, report.Bytes())
			}
			b, err := os.ReadFile(filepath.Join(dir, "BENCH_"+wl.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var res benchResult
			if err := json.Unmarshal(b, &res); err != nil {
				t.Fatalf("result does not decode into benchResult: %v", err)
			}
			if res.Name != wl.name {
				t.Fatalf("result name = %q, want %q", res.Name, wl.name)
			}
		})
	}
}
