package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nasd/internal/capability"
	"nasd/internal/telemetry"
)

// This file implements -json: a machine-readable BENCH_<name>.json
// record of what a drill observed, kept as a CI artifact. The schema is
// documented in EXPERIMENTS.md ("Drill records").

// benchResult is the serialized outcome of one drill.
type benchResult struct {
	Name       string                    `json:"name"`
	UnixNS     int64                     `json:"unix_ns"`
	Config     benchConfig               `json:"config"`
	Throughput map[string]float64        `json:"throughput_mbps"`
	Latency    map[string]latencySummary `json:"latency_ns"`
	// Counters carries what the drill asserts on: resilience counters
	// (chaos), per-tenant outcomes and qos verdicts (qos).
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Tenants splits the drive-side op totals by the capability's
	// partition identity ("part.<P>"), merged across every drive in the
	// run — the attribution a shared array needs to bill tenants.
	Tenants map[string]tenantSummary `json:"tenants,omitempty"`
	// Events counts the run's structured events keyed
	// "subsystem.name" (e.g. "cheops.breaker_open"), so a result file
	// records not just how the run performed but what happened to it.
	Events map[string]int `json:"events,omitempty"`
}

// tenantSummary is one tenant's slice of the fleet's op traffic.
type tenantSummary struct {
	Calls    uint64 `json:"calls"`
	Errors   uint64 `json:"errors"`
	BytesIn  uint64 `json:"bytes_in"`
	BytesOut uint64 `json:"bytes_out"`
	P99NS    int64  `json:"p99_ns"`
}

// tenantsFromSnapshot extracts the per-tenant split from a (possibly
// merged) drive snapshot.
func tenantsFromSnapshot(snap telemetry.Snapshot) map[string]tenantSummary {
	out := make(map[string]tenantSummary)
	for _, p := range telemetry.TenantParts(snap) {
		ts := telemetry.TenantSnapshot(snap, p)
		calls, errs, bIn, bOut := telemetry.OpTotals(ts, "drive.op")
		svc := telemetry.MergedSvc(ts, "drive.op")
		out[capability.TenantKey(p)] = tenantSummary{
			Calls: calls, Errors: errs, BytesIn: bIn, BytesOut: bOut,
			P99NS: svc.Quantile(0.99),
		}
	}
	return out
}

// eventSummary buckets an event tail by "subsystem.name".
func eventSummary(events []telemetry.Event) map[string]int {
	if len(events) == 0 {
		return nil
	}
	out := make(map[string]int)
	for _, e := range events {
		out[e.Subsystem+"."+e.Name]++
	}
	return out
}

// benchConfig records the knobs that shaped the run.
type benchConfig struct {
	Workers int  `json:"workers"`
	Secure  bool `json:"secure"`
}

// latencySummary condenses one telemetry histogram (nanoseconds).
type latencySummary struct {
	Count uint64 `json:"count"`
	Mean  int64  `json:"mean"`
	P50   int64  `json:"p50"`
	P95   int64  `json:"p95"`
	P99   int64  `json:"p99"`
	Max   int64  `json:"max"`
}

// latencyFromSnapshot summarizes every latency histogram in snap worth
// tracking across runs: the per-op drive service times and the client's
// RPC round-trip time. Empty series are dropped.
func latencyFromSnapshot(snap telemetry.Snapshot) map[string]latencySummary {
	out := make(map[string]latencySummary)
	for name, h := range snap.Histograms {
		if h.Count == 0 {
			continue
		}
		if !strings.HasSuffix(name, ".svc_ns") && name != "rpc.client.call_ns" {
			continue
		}
		out[name] = latencySummary{
			Count: h.Count,
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
			Max:   h.Max,
		}
	}
	return out
}

// writeBenchJSON writes res to path; an empty path (-json unset) writes
// nothing. A path ending in .json names the exact output file; anything
// else is treated as a directory receiving BENCH_<name>.json.
func writeBenchJSON(path string, res benchResult) error {
	if path == "" {
		return nil
	}
	res.UnixNS = time.Now().UnixNano()
	if !strings.HasSuffix(path, ".json") {
		path = filepath.Join(path, "BENCH_"+res.Name+".json")
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing bench json: %w", err)
	}
	fmt.Fprintf(os.Stderr, "nasdbench: wrote %s\n", path)
	return nil
}
