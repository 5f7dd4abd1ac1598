package drive

import (
	"encoding/json"
	"sync"
	"time"

	"nasd/internal/capability"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// This file carries the drive's measured telemetry: real service-time
// observations per NASD operation, split into the same components the
// paper's Table 1 reports — security (digest verification), object
// system, and media — which is what `nasdctl stats` prints. Every
// request is recorded in exactly two places: the registry (aggregates)
// and the span log (one handler span per request). The split lives in
// the registry only: its components are deltas, not intervals, so no
// span stands for them.
//
// The split is measured as follows for each request: digest time is
// timed directly inside authorize/authorizeAdmin; media time is the
// busy-time delta of the instrumented block device (Config.Media)
// across the request; object-system time is the remainder of the
// handler's wall time. Digest time is exact. The media delta is exact
// when requests are served one at a time and an approximation under
// concurrency, where overlapping requests share the device's busy time.

// MediaClock reports cumulative nanoseconds a storage medium has spent
// busy. *blockdev.Instrumented implements it.
type MediaClock interface {
	BusyNanos() int64
}

// mediaTracer is the optional extension of MediaClock that accepts an
// ambient span context for per-I/O media spans (implemented by
// *blockdev.Instrumented). Checked dynamically so MediaClock stays a
// one-method interface for tests and fakes.
type mediaTracer interface {
	SetTraceContext(telemetry.SpanContext)
}

// The annotation keys of the handler span.
var (
	keyStatus   = telemetry.NewKey("status")
	keyBytesIn  = telemetry.NewKey("bytes_in")
	keyBytesOut = telemetry.NewKey("bytes_out")
	keyLockWait = telemetry.NewKey("lock_wait_ns")
)

// opMax bounds the per-op metrics table (ops are small consecutive
// constants).
const opMax = 32

// opTel is the measured per-operation metric set, plus the name of the
// op's handler span.
type opTel struct {
	span     string // telemetry.RequestSpanPrefix + op name
	calls    *telemetry.Counter
	errors   *telemetry.Counter
	bytesIn  *telemetry.Counter
	bytesOut *telemetry.Counter
	svc      *telemetry.Histogram // total handler time, ns
	digest   *telemetry.Counter   // cumulative ns verifying capabilities/digests
	object   *telemetry.Counter   // cumulative ns in the object system
	media    *telemetry.Counter   // cumulative ns of media busy time
}

// lockWaitFamilies are the data-path lock meters (PR 3) whose wait
// histograms the drive samples around each request to annotate its span
// with the lock-wait delta. Registry histograms are get-or-create, so
// listing a family the store never registers just yields a zero series.
var lockWaitFamilies = []string{
	"object.lock.wait_ns",
	"object.partlock.wait_ns",
	"cache.lock.wait_ns",
	"layout.lock.wait_ns",
}

// tenantTel is one (partition, op) cell of the per-tenant attribution
// table: the subset of the per-op family worth splitting by tenant.
// The phase counters (digest/object/media ns) stay aggregate-only to
// bound cardinality — the tenant split answers "who is driving load
// and what latency do they see", not the Table 1 decomposition.
type tenantTel struct {
	calls    *telemetry.Counter
	errors   *telemetry.Counter
	bytesIn  *telemetry.Counter
	bytesOut *telemetry.Counter
	svc      *telemetry.Histogram
}

// driveTel is the drive's telemetry state.
type driveTel struct {
	reg      *telemetry.Registry
	ops      [opMax]*opTel
	media    MediaClock
	spans    *telemetry.SpanLog
	events   *telemetry.EventLog
	lockWait []*telemetry.Histogram

	// tenants lazily maps part<<16|op to its per-tenant metric cell.
	// Requests for a handful of partitions dominate, so the read path
	// is an RLock + map hit.
	tenantMu sync.RWMutex
	tenants  map[uint32]*tenantTel
}

// newDriveTel builds the per-op metric table inside reg.
func newDriveTel(reg *telemetry.Registry, media MediaClock, spans *telemetry.SpanLog, events *telemetry.EventLog) *driveTel {
	t := &driveTel{
		reg: reg, media: media,
		spans: spans, events: events, tenants: make(map[uint32]*tenantTel),
	}
	for _, name := range lockWaitFamilies {
		t.lockWait = append(t.lockWait, reg.Histogram(name))
	}
	for op := Op(1); op < opMax; op++ {
		name := op.String()
		if len(name) > 3 && name[:3] == "op(" {
			continue // undefined op numbers get no metrics
		}
		prefix := "drive.op." + name
		t.ops[op] = &opTel{
			span:     telemetry.RequestSpanPrefix + name,
			calls:    reg.Counter(prefix + ".calls"),
			errors:   reg.Counter(prefix + ".errors"),
			bytesIn:  reg.Counter(prefix + ".bytes_in"),
			bytesOut: reg.Counter(prefix + ".bytes_out"),
			svc:      reg.Histogram(prefix + ".svc_ns"),
			digest:   reg.Counter(prefix + ".digest_ns"),
			object:   reg.Counter(prefix + ".object_ns"),
			media:    reg.Counter(prefix + ".media_ns"),
		}
	}
	return t
}

// tenant returns the per-tenant metric cell for (part, op), creating
// it — and its "drive.part.<P>.op.<name>.*" registry entries — on the
// tenant's first request. The label comes from capability.TenantKey:
// the partition identity in the request's capability is the tenant
// identity.
func (t *driveTel) tenant(part uint16, op Op) *tenantTel {
	key := uint32(part)<<16 | uint32(op)
	t.tenantMu.RLock()
	cell := t.tenants[key]
	t.tenantMu.RUnlock()
	if cell != nil {
		return cell
	}
	t.tenantMu.Lock()
	defer t.tenantMu.Unlock()
	if cell = t.tenants[key]; cell != nil {
		return cell
	}
	prefix := "drive." + capability.TenantKey(part) + ".op." + op.String()
	cell = &tenantTel{
		calls:    t.reg.Counter(prefix + ".calls"),
		errors:   t.reg.Counter(prefix + ".errors"),
		bytesIn:  t.reg.Counter(prefix + ".bytes_in"),
		bytesOut: t.reg.Counter(prefix + ".bytes_out"),
		svc:      t.reg.Histogram(prefix + ".svc_ns"),
	}
	t.tenants[key] = cell
	return cell
}

// spanName returns the name of op's handler span, built once per
// defined op; an undefined op number is named on the spot.
func (t *driveTel) spanName(op Op) string {
	if int(op) < opMax && t.ops[op] != nil {
		return t.ops[op].span
	}
	return telemetry.RequestSpanPrefix + op.String()
}

// mediaNanos reads the media clock (0 when the drive has none).
func (t *driveTel) mediaNanos() int64 {
	if t.media == nil {
		return 0
	}
	return t.media.BusyNanos()
}

// lockWaitNanos sums the cumulative wait time of every data-path lock
// family; Handle takes the delta across a request. Like the media
// delta, the attribution is exact for serialized requests and
// approximate when concurrent requests wait simultaneously.
func (t *driveTel) lockWaitNanos() int64 {
	var sum int64
	for _, h := range t.lockWait {
		sum += h.Sum()
	}
	return sum
}

// phases accumulates one request's per-component time and its tenant
// attribution. It is created by Handle and threaded through dispatch
// into the handlers, which is how authorize attributes
// digest-verification time — and the capability's partition identity —
// to the request that paid it.
type phases struct {
	digest time.Duration
	// tenant is the partition identity decoded from the request's
	// capability (authorize sets it); insecure-mode requests fall back
	// to the partition in the argument record. hasTenant gates it.
	tenant    uint16
	hasTenant bool
}

// setTenant records the request's tenant identity (first writer wins:
// the capability's word outranks the argument record's).
func (ph *phases) setTenant(part uint16) {
	if !ph.hasTenant {
		ph.tenant, ph.hasTenant = part, true
	}
}

// record publishes one completed request into the per-op metrics and —
// when the request carried a trace context — the span log. sp is the
// drive-side handler span (the zero span when untraced), start and end
// the request's two readings of telemetry.Now; lockWait is the
// request's lock-wait delta in nanoseconds.
func (t *driveTel) record(op Op, req *rpc.Request, rep *rpc.Reply, start, end int64, ph *phases, mediaDelta int64, sp *telemetry.Span, lockWait int64) {
	if int(op) >= opMax || t.ops[op] == nil {
		sp.EndAt(end)
		return
	}
	total := end - start
	m := t.ops[op]
	m.calls.Inc()
	status := rpc.StatusOK
	nIn, nOut := len(req.Data), 0
	if rep != nil {
		status = rep.Status
		nOut = len(rep.Data)
	}
	if status != rpc.StatusOK {
		m.errors.Inc()
	}
	m.bytesIn.Add(uint64(nIn))
	m.bytesOut.Add(uint64(nOut))
	// Traced requests leave their (trace ID, duration) as the bucket's
	// exemplar, the link from a tail percentile to its span timeline.
	m.svc.ObserveTrace(total, req.Trace.TraceID, end)
	if ph.hasTenant {
		tt := t.tenant(ph.tenant, op)
		tt.calls.Inc()
		if status != rpc.StatusOK {
			tt.errors.Inc()
		}
		tt.bytesIn.Add(uint64(nIn))
		tt.bytesOut.Add(uint64(nOut))
		tt.svc.ObserveTrace(total, req.Trace.TraceID, end)
	}
	m.digest.Add(uint64(ph.digest))
	if mediaDelta < 0 {
		mediaDelta = 0
	}
	m.media.Add(uint64(mediaDelta))
	obj := total - int64(ph.digest) - mediaDelta
	if obj < 0 {
		obj = 0
	}
	m.object.Add(uint64(obj))
	sp.Note(keyStatus, status.String())
	sp.Int(keyBytesIn, int64(nIn))
	sp.Int(keyBytesOut, int64(nOut))
	if lockWait > 0 {
		sp.Int(keyLockWait, lockWait)
	}
	sp.EndAt(end)
}

// Metrics returns the drive's telemetry registry (per-op counters and
// service-time histograms under "drive.op.*", cache counters under
// "drive.cache.*").
func (d *Drive) Metrics() *telemetry.Registry { return d.tel.reg }

// Spans returns the drive's span log (per-request hierarchical
// timelines; DESIGN.md §5 "Tracing").
func (d *Drive) Spans() *telemetry.SpanLog { return d.tel.spans }

// Events returns the structured event ring the drive and its store
// record into (DESIGN.md §5 "Events").
func (d *Drive) Events() *telemetry.EventLog { return d.tel.events }

// StatsReply is the payload of the OpStats request: the drive's full
// metric snapshot plus, on request, spans from its span log (the last
// requests served, one trace, or the raw tail; see StatsArgs) and the
// tail of its structured event ring.
type StatsReply struct {
	DriveID uint64                 `json:"drive_id"`
	Metrics telemetry.Snapshot     `json:"metrics"`
	Spans   []telemetry.SpanRecord `json:"spans,omitempty"`
	Events  []telemetry.Event      `json:"events,omitempty"`
}

// statsN bounds a record count from the wire at
// telemetry.MaxTraceResponse, the cap /trace and /events apply: the
// stats op needs no capability, so it may not be asked to marshal a
// whole ring.
func statsN(n uint32) int {
	return int(min(n, telemetry.MaxTraceResponse))
}

// handleStats serves the drive's telemetry snapshot. Like OpFlush it
// requires no capability: it exposes aggregate load, not object data,
// and operators need it exactly when capability plumbing is what they
// are debugging.
func (d *Drive) handleStats(req *rpc.Request) *rpc.Reply {
	a, err := DecodeStatsArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	sr := StatsReply{DriveID: d.id, Metrics: d.tel.reg.Snapshot()}
	switch {
	case a.SpanTrace != 0:
		sr.Spans = d.tel.spans.ByTrace(a.SpanTrace)
		if len(sr.Spans) > telemetry.MaxTraceResponse {
			sr.Spans = sr.Spans[:telemetry.MaxTraceResponse]
		}
	case a.TraceN > 0:
		sr.Spans = d.tel.spans.Recent(statsN(a.TraceN), telemetry.RequestSpanPrefix)
	}
	if a.EventN > 0 {
		sr.Events = d.tel.events.Recent(statsN(a.EventN), telemetry.Severity(a.EventMin))
	}
	body, err := json.Marshal(&sr)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusError, "encoding stats: %v", err)
	}
	return &rpc.Reply{Status: rpc.StatusOK, Data: body}
}
