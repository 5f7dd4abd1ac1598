package telemetry

import (
	"cmp"
	"context"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Spans are the per-request record: one logical operation (a striped
// read, say) is a *trace*, identified by a trace ID, and every timed
// step inside it — the client call, each cheops fan-out leg, the
// drive-side handler, each media I/O — is a *span* carrying its
// parent's span ID. Merging the span logs of every process that served
// a trace reconstructs the whole causal timeline (the Dapper/X-Trace
// model), which is what `nasdctl trace <id>` prints.

// SpanContext identifies the active span of a trace, as carried in a
// context.Context and (as {trace ID, parent span ID}) on the wire.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

type spanCtxKey struct{}

// WithExplicitRequestID returns ctx carrying id as the trace ID of a
// root span context (span ID 0), replacing any span context ctx had:
// the first span opened under ctx is a root of trace id, so a caller
// finds its operation by the ID it chose.
func WithExplicitRequestID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, SpanContext{TraceID: id})
}

// SpanContextFrom extracts the active span context from ctx.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.TraceID != 0
}

// NextSpanID returns a random trace or span ID (never 0; 0 on the wire
// means "untraced"). Random 64-bit IDs, Dapper's scheme, stay apart
// across the processes whose logs merge into one timeline, and drawing
// one writes no memory that another goroutine shares. Exported for
// callers that pick a trace ID of their own (WithExplicitRequestID).
func NextSpanID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// epoch anchors Now, the clock of spans and exemplars.
var epoch = time.Now()

// Now returns the clock of spans and exemplars in unix nanoseconds: the
// wall time at process start plus the monotonic time since, one clock
// read where time.Now takes two, and span ends that never precede their
// starts. A caller that times a request passes its readings to
// StartRemote, EndAt and ObserveTrace: one pair serves all three.
func Now() int64 { return epoch.UnixNano() + int64(time.Since(epoch)) }

// Key names a span annotation. Make each once, with NewKey: a span
// holds the key, not a copy of its name.
type Key struct{ name *string }

// NewKey returns a key named name.
func NewKey(name string) Key { return Key{&name} }

// String returns the key's name.
func (k Key) String() string { return *k.name }

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

// maxInts bounds the integer annotations one span holds.
const maxInts = 3

// spanRec is a span as the ring holds it: a fixed-size value, so ending
// a span copies it into the ring and allocates nothing. Its
// annotations are up to maxInts integers under constant keys and one
// text note, the error paths' detail.
type spanRec struct {
	traceID, spanID, parent uint64
	startNS, endNS          int64
	name, note              string
	vals                    [maxInts]int64
	keys                    [maxInts]Key
	noteKey                 Key // zero: no note
	nints                   uint8
}

// record builds the JSON form: the note first, then the integers in
// the order they were set.
func (r *spanRec) record() SpanRecord {
	out := SpanRecord{TraceID: r.traceID, SpanID: r.spanID, Parent: r.parent, Name: r.name, StartNS: r.startNS, EndNS: r.endNS}
	if r.noteKey != (Key{}) {
		out.Annotations = append(out.Annotations, Annotation{Key: r.noteKey.String(), Value: r.note})
	}
	for i := range r.nints {
		out.Annotations = append(out.Annotations, Annotation{Key: r.keys[i].String(), Value: strconv.FormatInt(r.vals[i], 10)})
	}
	return out
}

// Span is an open span being timed, held by value. The zero Span
// records nothing, so call sites can instrument unconditionally. Int,
// Note and End must be called from the goroutine that holds the span.
type Span struct {
	log *SpanLog
	rec spanRec
}

// Context returns the span's identity for propagation (to a child
// context, or onto the wire).
func (s *Span) Context() SpanContext {
	return SpanContext{TraceID: s.rec.traceID, SpanID: s.rec.spanID}
}

// Int attaches key=v; a span keeps its first maxInts integers.
func (s *Span) Int(key Key, v int64) {
	if s.rec.nints < maxInts {
		s.rec.keys[s.rec.nints], s.rec.vals[s.rec.nints] = key, v
		s.rec.nints++
	}
}

// Note attaches key=text, replacing any earlier note: a span holds
// one, for a status or the detail of an error path.
func (s *Span) Note(key Key, text string) {
	s.rec.noteKey, s.rec.note = key, text
}

// End completes the span now and records it into the log. End is
// idempotent; only the first call records.
func (s *Span) End() {
	if s.log != nil {
		s.EndAt(Now())
	}
}

// EndAt is End at endNS, a reading of Now the caller already took.
func (s *Span) EndAt(endNS int64) {
	if s.log == nil {
		return
	}
	s.rec.endNS = endNS
	s.log.record(&s.rec)
	s.log = nil
}

// SpanLog is a bounded per-process ring of completed spans, plus a
// small side table of retained span trees for slow operations: when a
// root span ends over the slow threshold, its whole tree is copied out
// of the ring so it survives even after heavy traffic wraps the ring.
type SpanLog struct {
	mu    sync.Mutex
	spans ring[spanRec]

	slow     time.Duration // 0 = retention disabled
	retained map[uint64][]spanRec
	retOrder []uint64 // FIFO eviction order of retained trace IDs
	retCap   int
}

// DefaultSpanLogSize is the ring capacity used for default logs.
const DefaultSpanLogSize = 4096

// retainedTraces bounds how many slow-op span trees a log keeps.
const retainedTraces = 32

// NewSpanLog returns a ring holding the most recent capacity spans.
func NewSpanLog(capacity int) *SpanLog {
	return &SpanLog{
		spans:    newRing[spanRec](capacity),
		retained: make(map[uint64][]spanRec),
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

// record copies one completed span into the ring.
func (l *SpanLog) record(rec *spanRec) {
	l.mu.Lock()
	l.spans.push(rec)
	if rec.parent == 0 && l.slow > 0 && rec.endNS-rec.startNS >= int64(l.slow) {
		l.retainLocked(rec.traceID)
	}
	l.mu.Unlock()
}

// retainLocked copies every ring span of traceID into the retained
// table, evicting the oldest retained trace when full. Caller holds mu.
func (l *SpanLog) retainLocked(traceID uint64) {
	if _, ok := l.retained[traceID]; !ok {
		l.retOrder = append(l.retOrder, traceID)
		for len(l.retOrder) > l.retCap {
			delete(l.retained, l.retOrder[0])
			l.retOrder = l.retOrder[1:]
		}
	}
	l.retained[traceID] = l.inRingLocked(traceID)
}

// inRingLocked returns the ring's spans of traceID, oldest first.
// Caller holds mu.
func (l *SpanLog) inRingLocked(traceID uint64) (tree []spanRec) {
	l.spans.newest(func(r *spanRec) bool {
		if r.traceID == traceID {
			tree = append(tree, *r)
		}
		return true
	})
	slices.Reverse(tree)
	return tree
}

// Recent returns up to n most recent spans whose name starts with
// prefix ("" matches every span; n <= 0 means no limit), oldest first
// by end time.
func (l *SpanLog) Recent(n int, prefix string) []SpanRecord {
	l.mu.Lock()
	if size := l.spans.n; n <= 0 || n > size {
		n = size
	}
	out := make([]SpanRecord, 0, n)
	l.spans.newest(func(r *spanRec) bool {
		if strings.HasPrefix(r.name, prefix) {
			out = append(out, r.record())
		}
		return len(out) < n
	})
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
	tree, ok := l.retained[traceID]
	if !ok {
		tree = l.inRingLocked(traceID)
	}
	var out []SpanRecord
	for i := range tree {
		out = append(out, tree[i].record())
	}
	return out
}

// Start opens a span named name as a child of parent (a root when its
// span ID is 0, as after WithExplicitRequestID; of a fresh trace when
// parent is zero). A nil log returns the zero (no-op) span.
func (l *SpanLog) Start(parent SpanContext, name string) Span {
	switch {
	case l == nil:
		return Span{}
	case parent.TraceID != 0:
		return l.StartRemote(parent.TraceID, parent.SpanID, name, Now())
	}
	sp := l.StartRemote(^uint64(0), 0, name, Now())
	sp.rec.traceID = sp.rec.spanID // a fresh trace is named after its root
	return sp
}

// StartSpan is Start under ctx's span context, and returns ctx carrying
// the new span, so nested calls become its children. A nil log returns
// ctx unchanged and the zero span.
func (l *SpanLog) StartSpan(ctx context.Context, name string) (context.Context, Span) {
	if l == nil {
		return ctx, Span{}
	}
	parent, _ := SpanContextFrom(ctx)
	sp := l.Start(parent, name)
	return context.WithValue(ctx, spanCtxKey{}, sp.Context()), sp
}

// StartRemote opens a span, started at startNS (a reading of Now),
// resuming a trace received from the wire: traceID and parentSpan are
// the request's trace context as stamped by the remote caller. A zero
// traceID (an untraced request) or nil log returns the zero (no-op)
// span.
func (l *SpanLog) StartRemote(traceID, parentSpan uint64, name string, startNS int64) Span {
	if l == nil || traceID == 0 {
		return Span{}
	}
	return Span{log: l, rec: spanRec{
		traceID: traceID, spanID: NextSpanID(), parent: parentSpan,
		name: name, startNS: startNS,
	}}
}
