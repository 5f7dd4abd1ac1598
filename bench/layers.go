package main

import (
	"runtime"
	"slices"
	"strings"

	"nasd/internal/telemetry"
)

// metricDef is one line of BENCHMARK.json. The lists below are what the
// program prints; bench_test.go holds BENCHMARK.json to them.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"mb_per_s", "MiB/s", "higher"},
	{"lat_p50_us", "us", "lower"},
	{"lat_p99_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"live_heap_mb", "MiB", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"setup_s", "s", "lower"},
}

var perLayer = func() []metricDef {
	l := []metricDef{
		{"client.self_us_per_op", "us", "lower"},
		{"client.rpcs_per_op", "count", "lower"},
		{"client.retries", "count", "lower"},
		{"client.backpressure_waits", "count", "lower"},
		{"client.samples", "count", "higher"},
	}
	for _, k := range kindNames {
		l = append(l, metricDef{"client." + k + ".p50_us", "us", "lower"}, metricDef{"client." + k + ".p99_us", "us", "lower"})
	}
	return append(l,
		metricDef{"rpc.self_us_per_rpc", "us", "lower"},
		metricDef{"rpc.wire_bytes_per_payload_byte", "ratio", "lower"},
		metricDef{"rpc.server.rejected", "count", "lower"},
		metricDef{"rpc.tcp_ops_per_s", "1/s", "higher"},
		metricDef{"rpc.tcp_cpu_us_per_op", "us", "lower"},
		metricDef{"qos.self_us_per_rpc", "us", "lower"},
		metricDef{"qos.wait_us_p99", "us", "lower"},
		metricDef{"qos.admitted_ratio", "ratio", "higher"},
		metricDef{"crypt.digest_cache.hit_ratio", "ratio", "higher"},
		metricDef{"drive.digest_us_per_rpc", "us", "lower"},
		metricDef{"drive.handle_us_per_rpc", "us", "lower"},
		metricDef{"drive.self_us_per_rpc", "us", "lower"},
		metricDef{"drive.object_us_per_rpc", "us", "lower"},
		metricDef{"drive.errors", "count", "lower"},
		metricDef{"cache.hit_ratio", "ratio", "higher"},
		metricDef{"cache.evictions_per_op", "count", "lower"},
		metricDef{"cache.prefetches_per_op", "count", "higher"},
		metricDef{"cache.writebacks_per_op", "count", "lower"},
		metricDef{"object.lock.contended_ratio", "ratio", "lower"},
		metricDef{"cache.lock.wait_us_per_op", "us", "lower"},
		metricDef{"layout.lock.wait_us_per_op", "us", "lower"},
		metricDef{"object.classic.media_per_read", "count", "lower"},
		metricDef{"journal.appends_per_op", "count", "lower"},
		metricDef{"journal.commits_per_op", "count", "lower"},
		metricDef{"journal.appends_per_commit", "count", "higher"},
		metricDef{"journal.bytes_per_payload_byte", "ratio", "lower"},
		metricDef{"journal.checkpoints", "count", "lower"},
		metricDef{"needle.media_per_read", "count", "lower"},
		metricDef{"needle.appends_per_op", "count", "lower"},
		metricDef{"needle.compactions", "count", "lower"},
		metricDef{"needle.index_entries_end", "count", "lower"},
		metricDef{"blockdev.reads_per_op", "count", "lower"},
		metricDef{"blockdev.writes_per_op", "count", "lower"},
		metricDef{"blockdev.flushes_per_op", "count", "lower"},
		metricDef{"blockdev.blocks_per_io", "count", "higher"},
		metricDef{"blockdev.bytes_per_payload_byte", "ratio", "lower"},
		metricDef{"blockdev.busy_us_per_op", "us", "lower"},
		metricDef{"blockdev.util", "ratio", "lower"},
		metricDef{"bufpool.miss_ratio", "ratio", "lower"},
		metricDef{"bufpool.outstanding_end", "count", "lower"},
		metricDef{"cheops.self_us_per_op", "us", "lower"},
		metricDef{"cheops.legs_per_op", "count", "lower"},
		metricDef{"cheops.leg_skew_us_p50", "us", "lower"},
		metricDef{"cheops.rmw_per_write", "count", "lower"},
		metricDef{"cheops.degraded_ops", "count", "lower"},
		metricDef{"cheops.breaker_opens", "count", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_pause_ms_total", "ms", "lower"},
		metricDef{"runtime.goroutines_end", "count", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}()

// delta reads the program's registry before and after the traced pass.
// Counters and pull gauges are both cumulative, so one lookup serves.
type delta struct{ before, after telemetry.Snapshot }

func value(s telemetry.Snapshot, name string) float64 {
	if v, ok := s.Counters[name]; ok {
		return float64(v)
	}
	return float64(s.Gauges[name])
}

func (d delta) of(name string) float64 { return value(d.after, name) - value(d.before, name) }

// sum adds the deltas of every counter named prefix + anything + suffix.
func (d delta) sum(prefix, suffix string) float64 {
	var t float64
	for name := range d.after.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			t += d.of(name)
		}
	}
	return t
}

// hist is what a histogram observed during the pass.
func (d delta) hist(name string) telemetry.HistogramSnapshot {
	a, b := d.after.Histograms[name], d.before.Histograms[name]
	h := telemetry.HistogramSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum, Min: a.Min, Max: a.Max, Buckets: slices.Clone(a.Buckets)}
	for i := range b.Buckets {
		h.Buckets[i] -= b.Buckets[i]
	}
	return h
}

// ratio is a/b, and 0 where the layer did nothing.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the traced pass into the per-layer numbers: counts
// are deltas of the program's own registry, times come from the
// benchmark's spans. A layer a workload does not use reads 0.
func layerMetrics(before, after telemetry.Snapshot, ss spanStats, w window, m *meter, drives int, flushes int64) map[string]float64 {
	d := delta{before, after}
	ops := float64(w.good)
	payload := float64(w.payload)
	v := make(map[string]float64, len(perLayer))

	v["client.self_us_per_op"] = ss.clientSelfPerOp
	v["client.rpcs_per_op"] = d.of("rpc.client.calls") / ops
	v["client.retries"] = d.of("client.retries")
	v["client.backpressure_waits"] = d.of("client.backpressure_waits")
	v["client.samples"] = float64(ss.ops)
	for k, name := range kindNames {
		sorted := sortedCopy(m.calls[k])
		v["client."+name+".p50_us"] = quantile(sorted, 0.50)
		v["client."+name+".p99_us"] = quantile(sorted, 0.99)
	}

	v["rpc.self_us_per_rpc"] = ss.rpcSelfPerRPC
	v["rpc.wire_bytes_per_payload_byte"] = ratio(d.of("rpc.client.bytes_sent")+d.of("rpc.client.bytes_recv"), payload)
	v["rpc.server.rejected"] = d.of("rpc.server.rejected")
	v["rpc.tcp_ops_per_s"] = 0
	v["rpc.tcp_cpu_us_per_op"] = 0

	v["qos.self_us_per_rpc"] = ss.qosSelfPerRPC
	wait := d.hist("qos.wait_ns")
	v["qos.wait_us_p99"] = float64(wait.Quantile(0.99)) / 1e3
	admitted := d.of("qos.admitted")
	v["qos.admitted_ratio"] = ratio(admitted, admitted+d.of("qos.throttled")+d.of("qos.shed")+d.of("qos.rejected"))

	hits := d.of("crypt.digest_cache.hits")
	v["crypt.digest_cache.hit_ratio"] = ratio(hits, hits+d.of("crypt.digest_cache.misses"))
	calls := d.sum("drive.op.", ".calls")
	v["drive.digest_us_per_rpc"] = ratio(d.sum("drive.op.", ".digest_ns"), calls) / 1e3
	v["drive.handle_us_per_rpc"] = ss.handlePerRPC
	v["drive.self_us_per_rpc"] = ss.driveSelfPerRPC
	v["drive.object_us_per_rpc"] = ratio(d.sum("drive.op.", ".object_ns"), calls) / 1e3
	v["drive.errors"] = d.sum("drive.op.", ".errors")

	hits = d.of("drive.cache.hits")
	v["cache.hit_ratio"] = ratio(hits, hits+d.of("drive.cache.misses"))
	v["cache.evictions_per_op"] = d.of("drive.cache.evictions") / ops
	v["cache.prefetches_per_op"] = d.of("drive.cache.prefetches") / ops
	v["cache.writebacks_per_op"] = d.of("drive.cache.writebacks") / ops
	v["object.lock.contended_ratio"] = ratio(d.of("object.lock.contended"), d.of("object.lock.acquire"))
	v["cache.lock.wait_us_per_op"] = float64(d.hist("cache.lock.wait_ns").Sum) / ops / 1e3
	v["layout.lock.wait_us_per_op"] = float64(d.hist("layout.lock.wait_ns").Sum) / ops / 1e3

	readBlocks, writeBlocks := d.of("blockdev.reads"), d.of("blockdev.writes")
	readCalls, writeCalls := float64(d.hist("blockdev.read_ns").Count), float64(d.hist("blockdev.write_ns").Count)
	v["object.classic.media_per_read"] = ratio(readBlocks, d.of("object.classic.reads"))

	commits := d.of("journal.commits")
	v["journal.appends_per_op"] = d.of("journal.appends") / ops
	v["journal.commits_per_op"] = commits / ops
	v["journal.appends_per_commit"] = ratio(d.of("journal.appends"), commits)
	v["journal.bytes_per_payload_byte"] = ratio(d.of("journal.bytes"), payload)
	v["journal.checkpoints"] = d.of("journal.checkpoints")

	v["needle.media_per_read"] = ratio(d.of("needle.read_block_ios"), d.of("needle.reads"))
	v["needle.appends_per_op"] = d.of("needle.appends") / ops
	v["needle.compactions"] = d.of("needle.compactions")
	v["needle.index_entries_end"] = value(after, "needle.index_entries")

	v["blockdev.reads_per_op"] = readCalls / ops
	v["blockdev.writes_per_op"] = writeCalls / ops
	v["blockdev.flushes_per_op"] = float64(flushes) / ops
	v["blockdev.blocks_per_io"] = ratio(readBlocks+writeBlocks, readCalls+writeCalls)
	v["blockdev.bytes_per_payload_byte"] = ratio((readBlocks+writeBlocks)*blockSize, payload)
	v["blockdev.busy_us_per_op"] = ss.devBusyPerOp
	v["blockdev.util"] = float64(ss.devBusy) / float64(w.wall.Nanoseconds()) / float64(drives)

	v["bufpool.miss_ratio"] = ratio(d.of("bufpool.misses"), d.of("bufpool.gets"))
	// Buffers taken and not given back during the pass. The gauge also
	// counts what the block cache holds, so only its growth says that a
	// path drops buffers for the collector to find.
	v["bufpool.outstanding_end"] = d.of("bufpool.outstanding")

	v["cheops.self_us_per_op"] = 0
	v["cheops.legs_per_op"] = 0
	v["cheops.leg_skew_us_p50"] = 0
	v["cheops.rmw_per_write"] = ratio(d.of("cheops.rmw_writes"), float64(len(m.calls[opWrite])))
	v["cheops.degraded_ops"] = d.of("cheops.degraded_reads") + d.of("cheops.degraded_writes")
	v["cheops.breaker_opens"] = d.of("cheops.breaker_opens")

	v["runtime.gc_cycles"] = float64(w.gcCycles)
	v["runtime.gc_pause_ms_total"] = float64(w.gcPause.Microseconds()) / 1e3
	v["runtime.goroutines_end"] = float64(runtime.NumGoroutine())
	v["trace.overhead_pct"] = 0
	return v
}
