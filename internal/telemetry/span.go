package telemetry

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/binary"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are the per-request record: one logical operation (a striped
// read, say) is a *trace*, identified by a trace ID, and every timed
// step inside it — the client call, each cheops fan-out leg, the
// drive-side handler, each media I/O — is a *span* carrying its
// parent's span ID.
// Merging the span logs of every process that served a trace
// reconstructs the whole causal timeline (the Dapper/X-Trace model),
// which is what `nasdctl trace <id>` prints.
//
// Trace IDs and span IDs come from one counter salted with a random
// per-process high word. Span IDs must stay distinct when client- and
// drive-side logs merge, and a drive outlives many short-lived clients
// (think repeated nasdctl invocations): two clients both counting trace
// IDs from 1 would interleave unrelated operations into one trace on
// the drive.

// SpanContext identifies the active span of a trace, as carried in a
// context.Context and (as {trace ID, parent span ID}) on the wire.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

type spanCtxKey struct{}

// WithSpanContext returns ctx carrying sc.
func WithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// WithExplicitRequestID returns ctx carrying id as the trace ID of a
// root span context (span ID 0), replacing any span context ctx had:
// the client stamps id into rpc.Request.Trace, and the first span
// opened under ctx is a root of trace id, so a caller finds its
// operation by the ID it chose.
func WithExplicitRequestID(ctx context.Context, id uint64) context.Context {
	return WithSpanContext(ctx, SpanContext{TraceID: id})
}

// SpanContextFrom extracts the active span context from ctx.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.TraceID != 0
}

// spanIDSalt puts a random 32-bit word in the high half of every trace
// and span ID this process allocates, so IDs from different processes
// (client and drives) do not collide when merged into one timeline.
var spanIDSalt = func() uint64 {
	var b [4]byte
	_, _ = rand.Read(b[:])
	return uint64(binary.LittleEndian.Uint32(b[:])) << 32
}()

var spanCounter atomic.Uint64

// NextSpanID allocates a process-unique, cross-process-disjoint trace or
// span ID (never 0; 0 on the wire means "untraced"). Exported for
// layers that build SpanRecords directly rather than through StartSpan
// (blockdev's per-I/O spans).
func NextSpanID() uint64 {
	return spanIDSalt | (spanCounter.Add(1) & 0xffffffff)
}

// Annotation is one key=value note attached to a span (a status, a
// byte count, a lock-wait total).
type Annotation struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// SpanRecord is one completed span, shaped for JSON interchange: the
// drive returns them from the stats RPC and serves them at /trace, and
// nasdctl merges records from several drives by trace ID.
type SpanRecord struct {
	TraceID     uint64       `json:"trace_id"`
	SpanID      uint64       `json:"span_id"`
	Parent      uint64       `json:"parent_id,omitempty"` // 0 = root
	Name        string       `json:"name"`
	StartNS     int64        `json:"start_ns"` // wall clock, unix ns
	EndNS       int64        `json:"end_ns"`
	Annotations []Annotation `json:"annotations,omitempty"`
}

// Dur returns the span duration.
func (r *SpanRecord) Dur() time.Duration { return time.Duration(r.EndNS - r.StartNS) }

// Span is an open span being timed. A nil *Span is valid and records
// nothing, so call sites can instrument unconditionally. Annotate and
// End must be called from the goroutine that started the span.
type Span struct {
	log   *SpanLog
	start time.Time // monotonic, for the duration
	rec   SpanRecord
	done  bool
}

// Context returns the span's identity for propagation (to a child
// context, or onto the wire).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.rec.TraceID, SpanID: s.rec.SpanID}
}

// Annotate attaches a key=value note to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.rec.Annotations = append(s.rec.Annotations, Annotation{Key: key, Value: value})
}

// End completes the span and records it into the log. End is
// idempotent; only the first call records.
func (s *Span) End() {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.rec.EndNS = s.rec.StartNS + int64(time.Since(s.start))
	s.log.Emit(s.rec)
}

// SpanLog is a bounded per-process ring of completed spans, plus a
// small side table of retained span trees for slow operations: when a
// root span ends over the slow threshold, its whole tree is copied out
// of the ring so it survives even after heavy traffic wraps the ring.
type SpanLog struct {
	mu     sync.Mutex
	spans  []SpanRecord
	next   int
	filled bool

	slow     time.Duration // 0 = retention disabled
	retained map[uint64][]SpanRecord
	retOrder []uint64 // FIFO eviction order of retained trace IDs
	retCap   int
}

// DefaultSpanLogSize is the ring capacity used for default logs.
const DefaultSpanLogSize = 4096

// retainedTraces bounds how many slow-op span trees a log keeps.
const retainedTraces = 32

// NewSpanLog returns a ring holding the most recent capacity spans.
func NewSpanLog(capacity int) *SpanLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanLog{
		spans:    make([]SpanRecord, capacity),
		retained: make(map[uint64][]SpanRecord),
		retCap:   retainedTraces,
	}
}

// ProcessSpans is the process-wide default span log: client connections
// and cheops managers record here unless given their own log, so a
// client process (nasdctl, a test) can always inspect the
// traces it originated.
var ProcessSpans = NewSpanLog(DefaultSpanLogSize)

// SetSlowThreshold enables slow-op retention: when a root span ends
// with duration >= d, its full span tree is copied into a bounded side
// table that ByTrace consults first. d = 0 disables retention.
func (l *SpanLog) SetSlowThreshold(d time.Duration) {
	l.mu.Lock()
	l.slow = d
	l.mu.Unlock()
}

// Emit appends one completed span record, for layers that time an
// interval themselves rather than through a Span.
func (l *SpanLog) Emit(rec SpanRecord) {
	l.mu.Lock()
	l.spans[l.next] = rec
	l.next++
	if l.next == len(l.spans) {
		l.next = 0
		l.filled = true
	}
	if rec.Parent == 0 && l.slow > 0 && rec.EndNS-rec.StartNS >= int64(l.slow) {
		l.retainLocked(rec.TraceID)
	}
	l.mu.Unlock()
}

// retainLocked copies every ring span of traceID into the retained
// table, evicting the oldest retained trace when full. Caller holds mu.
func (l *SpanLog) retainLocked(traceID uint64) {
	var tree []SpanRecord
	for i := range l.spans {
		if (l.filled || i < l.next) && l.spans[i].TraceID == traceID {
			tree = append(tree, l.spans[i])
		}
	}
	if _, ok := l.retained[traceID]; !ok {
		l.retOrder = append(l.retOrder, traceID)
		for len(l.retOrder) > l.retCap {
			delete(l.retained, l.retOrder[0])
			l.retOrder = l.retOrder[1:]
		}
	}
	l.retained[traceID] = tree
}

// Recent returns up to n most recent spans whose name starts with
// prefix ("" matches every span; n <= 0 means no limit), oldest first
// by end time.
func (l *SpanLog) Recent(n int, prefix string) []SpanRecord {
	l.mu.Lock()
	size := l.next
	if l.filled {
		size = len(l.spans)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]SpanRecord, 0, n)
	for i := 1; i <= size && len(out) < n; i++ {
		r := &l.spans[(l.next-i+len(l.spans))%len(l.spans)]
		if strings.HasPrefix(r.Name, prefix) {
			out = append(out, *r)
		}
	}
	l.mu.Unlock()
	slices.Reverse(out)
	// The ring is in Emit order, which trails end time when concurrent
	// spans race from End to the lock.
	slices.SortStableFunc(out, func(a, b SpanRecord) int { return cmp.Compare(a.EndNS, b.EndNS) })
	return out
}

// ByTrace returns every span recorded for traceID, consulting the
// slow-op retained table first and falling back to a ring scan.
func (l *SpanLog) ByTrace(traceID uint64) []SpanRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	if tree, ok := l.retained[traceID]; ok {
		return append([]SpanRecord(nil), tree...)
	}
	var out []SpanRecord
	for i := range l.spans {
		if (l.filled || i < l.next) && l.spans[i].TraceID == traceID {
			out = append(out, l.spans[i])
		}
	}
	return out
}

// StartSpan opens a span named name as a child of ctx's span context:
// in its trace, under its span ID (a root when that is 0, as after
// WithExplicitRequestID). Without a span context the new span is the
// root of a fresh trace. The returned context carries the new span, so
// nested calls become children. A nil log returns ctx unchanged and a
// nil (no-op) span.
func (l *SpanLog) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if l == nil {
		return ctx, nil
	}
	sc, ok := SpanContextFrom(ctx)
	if !ok {
		sc = SpanContext{TraceID: NextSpanID()}
	}
	sp := l.open(sc.TraceID, sc.SpanID, name)
	return WithSpanContext(ctx, sp.Context()), sp
}

// StartRemote opens a span resuming a trace received from the wire:
// traceID and parentSpan are the request's trace context as stamped by
// the remote caller. A zero traceID (an untraced request) or nil log
// returns a nil no-op span.
func (l *SpanLog) StartRemote(traceID, parentSpan uint64, name string) *Span {
	if l == nil || traceID == 0 {
		return nil
	}
	return l.open(traceID, parentSpan, name)
}

func (l *SpanLog) open(traceID, parent uint64, name string) *Span {
	now := time.Now()
	return &Span{
		log:   l,
		start: now,
		rec: SpanRecord{
			TraceID: traceID,
			SpanID:  NextSpanID(),
			Parent:  parent,
			Name:    name,
			StartNS: now.UnixNano(),
		},
	}
}
