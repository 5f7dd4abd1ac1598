package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"nasd/internal/telemetry"
)

// This file renders metric snapshots for humans. Three views matter:
// the flat dump of every metric (stats), the per-operation cost table
// keyed on the drive's "drive.op.<name>.<metric>" family, which
// reproduces the shape of the paper's Table 1 (one row per NASD
// operation, service time split into digest, object-system and media
// components), and the fleet table (fleet, top) with its per-tenant
// split and p99 exemplars.

// opFamily is the root of the drive's per-op metric family; a
// telemetry.TenantSnapshot re-roots one partition's family under it.
const opFamily = "drive.op."

// writeText dumps every metric in the snapshot, sorted by name.
// Histograms print count/mean/p50/p95/max; "_ns" metrics render as
// durations.
func writeText(w io.Writer, s telemetry.Snapshot) {
	for _, name := range metricNames(s) {
		if v, ok := s.Counters[name]; ok {
			fmt.Fprintf(w, "%-44s %s\n", name, formatValue(name, int64(v)))
			continue
		}
		if v, ok := s.Gauges[name]; ok {
			fmt.Fprintf(w, "%-44s %s\n", name, formatValue(name, v))
			continue
		}
		if h, ok := s.Histograms[name]; ok {
			fmt.Fprintf(w, "%-44s n=%d mean=%s p50=%s p95=%s max=%s\n",
				name, h.Count,
				formatValue(name, h.Mean()),
				formatValue(name, h.Quantile(0.50)),
				formatValue(name, h.Quantile(0.95)),
				formatValue(name, h.Max))
		}
	}
}

// metricNames returns the sorted names of every metric in s.
func metricNames(s telemetry.Snapshot) []string {
	seen := make(map[string]bool, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for name := range s.Counters {
		seen[name] = true
	}
	for name := range s.Gauges {
		seen[name] = true
	}
	for name := range s.Histograms {
		seen[name] = true
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// formatValue renders nanosecond-named metrics as durations and
// everything else as plain integers.
func formatValue(name string, v int64) string {
	if strings.HasSuffix(name, "_ns") {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return strconv.FormatInt(v, 10)
}

// opRow is one operation's aggregated cost, extracted from a snapshot's
// "drive.op.<op>.<metric>" family.
type opRow struct {
	Op       string
	Calls    uint64
	Errors   uint64
	BytesIn  uint64
	BytesOut uint64
	Svc      telemetry.HistogramSnapshot // service-time histogram (ns)
	DigestNS uint64                      // cumulative Table 1 component time
	ObjectNS uint64
	MediaNS  uint64
}

// opRows extracts the per-operation table from a snapshot, busiest
// op first.
func opRows(s telemetry.Snapshot) []opRow {
	rows := make(map[string]*opRow)
	get := func(name string) (*opRow, string, bool) {
		rest, ok := strings.CutPrefix(name, opFamily)
		if !ok {
			return nil, "", false
		}
		op, metric, ok := strings.Cut(rest, ".")
		if !ok {
			return nil, "", false
		}
		r := rows[op]
		if r == nil {
			r = &opRow{Op: op}
			rows[op] = r
		}
		return r, metric, true
	}
	for name, v := range s.Counters {
		r, metric, ok := get(name)
		if !ok {
			continue
		}
		switch metric {
		case "calls":
			r.Calls = v
		case "errors":
			r.Errors = v
		case "bytes_in":
			r.BytesIn = v
		case "bytes_out":
			r.BytesOut = v
		case "digest_ns":
			r.DigestNS = v
		case "object_ns":
			r.ObjectNS = v
		case "media_ns":
			r.MediaNS = v
		}
	}
	for name, h := range s.Histograms {
		if r, metric, ok := get(name); ok && metric == "svc_ns" {
			r.Svc = h
		}
	}
	out := make([]opRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Calls != out[j].Calls {
			return out[i].Calls > out[j].Calls
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// sum folds rows into one for the fleet and tenant tables: the counts
// add and the service-time histograms merge (exemplars with them).
func sum(rows []opRow) opRow {
	var t opRow
	for _, r := range rows {
		t.Calls += r.Calls
		t.Errors += r.Errors
		t.BytesIn += r.BytesIn
		t.BytesOut += r.BytesOut
		t.Svc.Merge(r.Svc)
	}
	return t
}

// since returns cur's counts less prev's, floored at zero (a drive
// restarted between two polls counts from zero again); the service-time
// distribution stays cur's.
func since(cur, prev opRow) opRow {
	cur.Calls -= min(cur.Calls, prev.Calls)
	cur.Errors -= min(cur.Errors, prev.Errors)
	cur.BytesIn -= min(cur.BytesIn, prev.BytesIn)
	cur.BytesOut -= min(cur.BytesOut, prev.BytesOut)
	return cur
}

// writeOpTable renders the per-operation cost breakdown: one row per
// op with call count, mean and tail service time, and the share of
// service time spent in each Table 1 component (digest verification,
// object system, media).
func writeOpTable(w io.Writer, rows []opRow) {
	if len(rows) == 0 {
		fmt.Fprintf(w, "(no %s* metrics in snapshot)\n", opFamily)
		return
	}
	fmt.Fprintf(w, "%-10s %8s %7s %10s %10s %10s %8s %8s %8s %10s\n",
		"op", "calls", "errors", "mean", "p95", "max", "digest%", "object%", "media%", "MB moved")
	for _, r := range rows {
		if r.Calls == 0 {
			continue
		}
		total := float64(r.DigestNS + r.ObjectNS + r.MediaNS)
		pct := func(v uint64) string {
			if total == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", 100*float64(v)/total)
		}
		mb := float64(r.BytesIn+r.BytesOut) / (1 << 20)
		fmt.Fprintf(w, "%-10s %8d %7d %10s %10s %10s %8s %8s %8s %10.2f\n",
			r.Op, r.Calls, r.Errors,
			time.Duration(r.Svc.Mean()).Round(time.Microsecond),
			time.Duration(r.Svc.Quantile(0.95)).Round(time.Microsecond),
			time.Duration(r.Svc.Max).Round(time.Microsecond),
			pct(r.DigestNS), pct(r.ObjectNS), pct(r.MediaNS), mb)
	}
}

// fmtRate renders a per-second rate with adaptive precision.
func fmtRate(v float64) string {
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.1f", v)
	case v == 0:
		return "0"
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// writeFleetTable renders the fleet table: one row per drive plus the
// aggregate, with op and MB/s rates computed against prev when a
// previous poll is supplied (top) and cumulative totals otherwise
// (fleet).
func writeFleetTable(w io.Writer, cur fleetSnapshot, prev *fleetSnapshot) {
	secs := 0.0
	if prev != nil && cur.UnixNano > prev.UnixNano {
		secs = float64(cur.UnixNano-prev.UnixNano) / float64(time.Second)
	}
	prevDrive := func(addr string) *fleetDrive {
		if prev == nil {
			return nil
		}
		for i := range prev.Drives {
			if prev.Drives[i].Addr == addr {
				return &prev.Drives[i]
			}
		}
		return nil
	}

	type row struct {
		label, down string
		t           opRow
		events      int
	}
	rows := make([]row, 0, len(cur.Drives)+1)
	for _, d := range cur.Drives {
		r := row{label: fmt.Sprintf("drive %d %s", d.DriveID, d.Addr), down: d.Err, events: len(d.Events)}
		if d.Err == "" {
			r.t = sum(opRows(d.Metrics))
			if p := prevDrive(d.Addr); p != nil && p.Err == "" {
				r.t = since(r.t, sum(opRows(p.Metrics)))
			}
		}
		rows = append(rows, r)
	}
	merged := opRows(cur.Merged)
	agg := row{label: "TOTAL", t: sum(merged)}
	if prev != nil {
		agg.t = since(agg.t, sum(opRows(prev.Merged)))
	}
	rows = append(rows, agg)

	unit, mbUnit, div := "ops", "MB", 1.0
	if secs > 0 {
		unit, mbUnit, div = "ops/s", "MB/s", secs
	}
	fmt.Fprintf(w, "%-28s %10s %8s %10s %10s %10s %10s %7s\n",
		"", unit, "errors", mbUnit+" in", mbUnit+" out", "p50", "p99", "events")
	for _, r := range rows {
		if r.down != "" {
			fmt.Fprintf(w, "%-28s DOWN: %s\n", r.label, r.down)
			continue
		}
		fmt.Fprintf(w, "%-28s %10s %8d %10s %10s %10s %10s %7d\n",
			r.label,
			fmtRate(float64(r.t.Calls)/div), r.t.Errors,
			fmtRate(float64(r.t.BytesIn)/(1<<20)/div), fmtRate(float64(r.t.BytesOut)/(1<<20)/div),
			time.Duration(r.t.Svc.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(r.t.Svc.Quantile(0.99)).Round(time.Microsecond),
			r.events)
	}

	// Per-tenant split of the merged fleet, keyed by the capability's
	// partition identity.
	writeTenantTable(w, cur.Merged, "fleet-wide cumulative")

	// Breaker / repair state only exists in a cheops manager's registry;
	// show it when the polled snapshots carried it (in-process fleets).
	var breakers []string
	for name, v := range cur.Merged.Gauges {
		if strings.HasPrefix(name, "cheops.drive.") && strings.HasSuffix(name, ".breaker") {
			breakers = append(breakers, fmt.Sprintf("%s=%d", name, v))
		}
	}
	if len(breakers) > 0 {
		sort.Strings(breakers)
		fmt.Fprintf(w, "\n%s  pending_repairs=%d\n", strings.Join(breakers, " "), cur.Merged.Gauges["cheops.pending_repairs"])
	}

	writeExemplars(w, merged)
}

// writeTenantTable renders the per-tenant (partition) split of s: op
// totals, service quantiles, and the drive QoS plane's verdict columns
// — shed (deadline load-shed before media time), thrtl (token-bucket
// rate rejections), rej (queue-full rejections), and the live queue
// depth. A tenant whose shed/thrtl columns climb is being limited by
// policy; a tenant whose p99 climbs with zero QoS activity is seeing
// real device contention. Prints nothing when s carries no per-tenant
// metrics, so callers can invoke it unconditionally.
func writeTenantTable(w io.Writer, s telemetry.Snapshot, scope string) {
	parts := telemetry.TenantParts(s)
	if len(parts) == 0 {
		return
	}
	fmt.Fprintf(w, "\nper-tenant (partition) split, %s:\n", scope)
	fmt.Fprintf(w, "%-12s %10s %8s %10s %10s %10s %10s %8s %8s %8s %6s\n",
		"tenant", "ops", "errors", "MB in", "MB out", "p50", "p99",
		"shed", "thrtl", "rej", "queue")
	for _, p := range parts {
		ts := telemetry.TenantSnapshot(s, p)
		t := sum(opRows(ts))
		fmt.Fprintf(w, "%-12s %10d %8d %10.2f %10.2f %10s %10s %8d %8d %8d %6d\n",
			"part."+strconv.Itoa(int(p)), t.Calls, t.Errors,
			float64(t.BytesIn)/(1<<20), float64(t.BytesOut)/(1<<20),
			time.Duration(t.Svc.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(t.Svc.Quantile(0.99)).Round(time.Microsecond),
			ts.Counters["drive.qos.shed"], ts.Counters["drive.qos.throttled"],
			ts.Counters["drive.qos.rejected"], ts.Gauges["drive.qos.queue_depth"])
	}
}

// writeExemplars prints each busy op's p99 exemplar: the trace ID an
// operator feeds to `nasdctl trace` to see where the tail latency
// went. Ops without a traced observation are skipped.
func writeExemplars(w io.Writer, rows []opRow) {
	header := false
	for _, r := range rows {
		if r.Calls == 0 {
			continue
		}
		e := r.Svc.ExemplarNear(0.99)
		if e == nil {
			continue
		}
		if !header {
			fmt.Fprintf(w, "\np99 exemplars (drill down with `nasdctl trace <trace-id>`):\n")
			header = true
		}
		fmt.Fprintf(w, "  %-10s %10s  trace %d\n",
			r.Op, time.Duration(e.Value).Round(time.Microsecond), e.TraceID)
	}
}
