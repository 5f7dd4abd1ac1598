package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsEmitResults runs both drills at their smallest size and
// checks the machine-readable record each writes. The drills assert
// their own invariants (every op verified through the kill, the
// victim's latency bound under the flood) and return an error on a
// breach, so a nil error covers those too.
func TestWorkloadsEmitResults(t *testing.T) {
	workloads := []struct {
		name string
		run  func(w io.Writer, jsonOut string) error
	}{
		{"chaos", func(w io.Writer, out string) error { return runChaos(w, 300*time.Millisecond, 1, out) }},
		{"qos", func(w io.Writer, out string) error { return runQoS(w, time.Second, 100, 1, out) }},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			if testing.Short() {
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

// TestRetiredWorkloadsNameTheirReplacement: the three workloads bench/
// replaced fail, and the error says what to run instead.
func TestRetiredWorkloadsNameTheirReplacement(t *testing.T) {
	for _, name := range []string{"stats", "parallel", "smallobj"} {
		err := unknownWorkload(name)
		if err == nil || !strings.Contains(err.Error(), "bash bench/run.sh --workload ") {
			t.Errorf("-workload %s: error %v does not name its bench/ replacement", name, err)
		}
	}
	if err := unknownWorkload("nosuch"); err == nil || strings.Contains(err.Error(), "bench/run.sh") {
		t.Errorf("an unknown workload should be rejected without a replacement, got %v", err)
	}
}
