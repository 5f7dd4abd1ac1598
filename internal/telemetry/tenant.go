package telemetry

import (
	"slices"
	"strconv"
	"strings"
)

// This file is per-tenant attribution: the drive books every op under
// its global family and under its partition's, and these helpers
// re-root one partition's family so it reads like a whole drive's.

// tenantFamily is the metric-name root under which the drive splits
// its per-op family by partition: "drive.part.<P>.op.<op>.<metric>".
const tenantFamily = "drive.part."

// tenantOf parses a per-tenant metric name, returning the partition
// and the name re-rooted under "drive." (e.g. "drive.part.5.op.read.calls"
// -> 5, "drive.op.read.calls").
func tenantOf(name string) (uint16, string, bool) {
	rest, ok := strings.CutPrefix(name, tenantFamily)
	if !ok {
		return 0, "", false
	}
	ps, tail, ok := strings.Cut(rest, ".")
	if !ok {
		return 0, "", false
	}
	p, err := strconv.ParseUint(ps, 10, 16)
	if err != nil {
		return 0, "", false
	}
	return uint16(p), "drive." + tail, true
}

// TenantParts returns the sorted partitions that have per-tenant
// metrics in s.
func TenantParts(s Snapshot) []uint16 {
	seen := make(map[uint16]bool)
	collect := func(name string) {
		if p, _, ok := tenantOf(name); ok {
			seen[p] = true
		}
	}
	for name := range s.Counters {
		collect(name)
	}
	for name := range s.Histograms {
		collect(name)
	}
	parts := make([]uint16, 0, len(seen))
	for p := range seen {
		parts = append(parts, p)
	}
	slices.Sort(parts)
	return parts
}

// TenantSnapshot extracts one partition's metrics from s, re-rooted
// under "drive.op." so every renderer of a drive's op family renders a
// single tenant the same way it renders a whole drive.
// /metrics?partition=P serves exactly this.
func TenantSnapshot(s Snapshot, part uint16) Snapshot {
	return Snapshot{
		Counters:   tenantMetrics(s.Counters, part),
		Gauges:     tenantMetrics(s.Gauges, part),
		Histograms: tenantMetrics(s.Histograms, part),
	}
}

// tenantMetrics returns part's metrics in m, re-rooted.
func tenantMetrics[V any](m map[string]V, part uint16) map[string]V {
	out := make(map[string]V)
	for name, v := range m {
		if p, rooted, ok := tenantOf(name); ok && p == part {
			out[rooted] = v
		}
	}
	return out
}
