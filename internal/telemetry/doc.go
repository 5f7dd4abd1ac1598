// Package telemetry is the repository's observability core: a
// dependency-free metrics library (atomic counters, gauges, and
// fixed-bucket latency histograms with snapshot and merge), trace
// propagation through context.Context, a bounded in-memory span log
// holding one record per request, and HTTP handlers that expose both
// as JSON.
//
// The paper's evaluation is built on exactly this kind of per-operation
// accounting: Table 1 decomposes each NASD request into marshaling,
// digest, object-system, and media components, and Figures 5-7 measure
// drive and striping throughput as load scales. The packages that
// reproduce those results (internal/rpc, internal/drive,
// internal/blockdev, internal/cache, internal/cheops) all publish their
// counters and service-time histograms into telemetry registries so the
// same quantities can be observed from a live system: `nasdd` serves a
// registry at /metrics, and `nasdctl stats` fetches a drive's snapshot
// over RPC and prints the Table 1 cost split of whatever traffic the
// drive has served.
//
// Beyond aggregates, the package carries a span plane for per-request
// timelines: a Span is a timed interval with a trace ID, span ID,
// parent span ID, and annotations, recorded into a bounded SpanLog
// ring (plus a small retained table pinning traces whose root exceeded
// a slow threshold). Span context propagates in-process on the
// context.Context (WithSpanContext / SpanLog.StartSpan) and across the
// wire in the rpc request header (SpanLog.StartRemote on the serving
// side), so one trace ID links a client op, the Cheops fan-out legs it
// spawned, the drive-side handler spans and their media I/O. Trace and
// span IDs are salted with a per-process random high word so records
// minted by different processes merge without collision. The package
// records and serves; rendering (tables, timelines, the fleet view)
// lives in its one caller, cmd/nasdctl. See DESIGN.md §5 for the full
// model and an example timeline.
//
// Everything here is built on sync/atomic and the standard library
// only, so any package in the tree can depend on it without cycles.
// Histograms bucket int64 values (usually nanoseconds) into
// power-of-two buckets: bucket 0 holds values <= 1 and bucket i holds
// (2^(i-1), 2^i], which keeps Observe lock-free and makes two
// snapshots mergeable bucket-by-bucket.
package telemetry
