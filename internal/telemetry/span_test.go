package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// emit records r as a completed span, as End would; r's annotations
// are not kept.
func emit(l *SpanLog, r SpanRecord) {
	l.record(&spanRec{traceID: r.TraceID, spanID: r.SpanID, parent: r.Parent, name: r.Name, startNS: r.StartNS, endNS: r.EndNS})
}

func TestSpanHierarchy(t *testing.T) {
	l := NewSpanLog(64)
	ctx, root := l.StartSpan(context.Background(), "root")
	if root == (Span{}) {
		t.Fatal("root span is nil")
	}
	rc := root.Context()
	if rc.TraceID == 0 || rc.SpanID == 0 {
		t.Fatalf("root context has zero IDs: %+v", rc)
	}
	_, child := l.StartSpan(ctx, "child")
	cc := child.Context()
	if cc.TraceID != rc.TraceID {
		t.Fatalf("child trace %d != root trace %d", cc.TraceID, rc.TraceID)
	}
	child.Note(NewKey("k"), "v")
	child.End()
	root.End()

	spans := l.ByTrace(rc.TraceID)
	if len(spans) != 2 {
		t.Fatalf("ByTrace returned %d spans, want 2", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, r := range spans {
		byName[r.Name] = r
	}
	if byName["root"].Parent != 0 {
		t.Fatalf("root has parent %d", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].SpanID {
		t.Fatalf("child parent %d != root span %d", byName["child"].Parent, byName["root"].SpanID)
	}
	if got := byName["child"].Annotations; len(got) != 1 || got[0].Key != "k" || got[0].Value != "v" {
		t.Fatalf("child annotations = %+v", got)
	}
}

func TestSpanRootReusesRequestID(t *testing.T) {
	l := NewSpanLog(8)
	reqID := NextSpanID()
	_, sp := l.StartSpan(WithExplicitRequestID(context.Background(), reqID), "op")
	sp.End()
	if sc := sp.Context(); sc.TraceID != reqID {
		t.Fatalf("trace ID %d != request ID %d", sc.TraceID, reqID)
	}
	if rec := l.Recent(1, "op")[0]; rec.Parent != 0 {
		t.Fatalf("span under a request ID has parent %d, want a root", rec.Parent)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var l *SpanLog
	ctx, sp := l.StartSpan(context.Background(), "x")
	if sp != (Span{}) {
		t.Fatal("nil log returned non-nil span")
	}
	if _, ok := SpanContextFrom(ctx); ok {
		t.Fatal("nil log attached a span context")
	}
	sp.Note(NewKey("a"), "b") // must not panic
	sp.End()
	if s := l.StartRemote(1, 2, "y"); s != (Span{}) {
		t.Fatal("nil log StartRemote returned non-nil span")
	}
}

func TestStartRemoteUntraced(t *testing.T) {
	l := NewSpanLog(8)
	if sp := l.StartRemote(0, 7, "drive.read"); sp != (Span{}) {
		t.Fatal("zero trace ID must yield a nil span")
	}
	sp := l.StartRemote(42, 7, "drive.read")
	sp.End()
	spans := l.ByTrace(42)
	if len(spans) != 1 || spans[0].Parent != 7 {
		t.Fatalf("remote span = %+v", spans)
	}
}

func TestSpanLogRingBounds(t *testing.T) {
	l := NewSpanLog(4)
	for i := 0; i < 10; i++ {
		emit(l, SpanRecord{TraceID: uint64(i + 1), SpanID: NextSpanID(), Name: "s"})
	}
	recent := l.Recent(100, "")
	if len(recent) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(recent))
	}
	// Oldest first: traces 7..10 survive.
	for i, r := range recent {
		if want := uint64(7 + i); r.TraceID != want {
			t.Fatalf("recent[%d].TraceID = %d, want %d", i, r.TraceID, want)
		}
	}
	if n := len(l.Recent(2, "")); n != 2 {
		t.Fatalf("Recent(2) returned %d", n)
	}
}

// TestSpanLogRecentPrefix: the prefix selects which spans count toward
// n, and the result is ordered by end time even when a span that ended
// earlier was emitted later (a lost race from End to the lock).
func TestSpanLogRecentPrefix(t *testing.T) {
	l := NewSpanLog(16)
	for i, r := range []SpanRecord{
		{TraceID: 1, Name: "drive.read", EndNS: 10},
		{TraceID: 1, Name: "digest", EndNS: 5},
		{TraceID: 2, Name: "drive.write", EndNS: 30},
		{TraceID: 2, Name: "media", EndNS: 29},
		{TraceID: 3, Name: "drive.getattr", EndNS: 20},
		{TraceID: 4, Name: "client.read", EndNS: 40},
	} {
		r.SpanID = uint64(i + 1)
		emit(l, r)
	}
	got := l.Recent(2, "drive.")
	if len(got) != 2 || got[0].Name != "drive.getattr" || got[1].Name != "drive.write" {
		t.Fatalf("Recent(2, drive.) = %+v, want getattr then write", got)
	}
	if n := len(l.Recent(0, "drive.")); n != 3 {
		t.Fatalf("Recent(0, drive.) returned %d spans, want 3", n)
	}
	if got := l.Recent(8, "nomatch"); len(got) != 0 {
		t.Fatalf("unmatched prefix returned %+v", got)
	}
}

func TestSlowOpRetention(t *testing.T) {
	l := NewSpanLog(4)
	l.SetSlowThreshold(time.Millisecond)
	// A slow trace: root span over the threshold plus one child.
	emit(l, SpanRecord{TraceID: 9, SpanID: 100, Parent: 1, Name: "child", StartNS: 0, EndNS: 10})
	emit(l, SpanRecord{TraceID: 9, SpanID: 1, Name: "root", StartNS: 0, EndNS: int64(2 * time.Millisecond)})
	// Wrap the ring with unrelated traffic.
	for i := 0; i < 16; i++ {
		emit(l, SpanRecord{TraceID: 1000 + uint64(i), SpanID: NextSpanID(), Name: "noise"})
	}
	spans := l.ByTrace(9)
	if len(spans) != 2 {
		t.Fatalf("retained %d spans for slow trace, want 2 (ring wrapped)", len(spans))
	}
	// A fast root span must not be retained once the ring wraps.
	l2 := NewSpanLog(4)
	l2.SetSlowThreshold(time.Millisecond)
	emit(l2, SpanRecord{TraceID: 5, SpanID: 2, Name: "root", StartNS: 0, EndNS: 10})
	for i := 0; i < 16; i++ {
		emit(l2, SpanRecord{TraceID: 2000 + uint64(i), SpanID: NextSpanID(), Name: "noise"})
	}
	if got := l2.ByTrace(5); len(got) != 0 {
		t.Fatalf("fast trace survived ring wrap: %+v", got)
	}
}

func TestSlowRetentionEviction(t *testing.T) {
	l := NewSpanLog(8)
	l.SetSlowThreshold(time.Nanosecond)
	for i := 0; i < retainedTraces+5; i++ {
		emit(l, SpanRecord{TraceID: uint64(i + 1), SpanID: NextSpanID(), Name: "root", StartNS: 0, EndNS: 100})
	}
	l.mu.Lock()
	n := len(l.retained)
	l.mu.Unlock()
	if n > retainedTraces {
		t.Fatalf("retained table grew to %d, cap %d", n, retainedTraces)
	}
}

func TestNextSpanIDUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := NextSpanID()
		if id == 0 {
			t.Fatal("zero span ID")
		}
		if seen[id] {
			t.Fatalf("duplicate span ID %d", id)
		}
		seen[id] = true
	}
}

func TestSpanLogConcurrency(t *testing.T) {
	l := NewSpanLog(64)
	l.SetSlowThreshold(time.Nanosecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, sp := l.StartSpan(context.Background(), "op")
				_, c := l.StartSpan(ctx, "child")
				c.End()
				sp.End()
				l.Recent(16, "op")
				l.ByTrace(sp.Context().TraceID)
			}
		}(g)
	}
	wg.Wait()
}

// TestTraceHandlerBoundsResponse: neither tail mode returns more than
// MaxTraceResponse records however many the caller asks for, and the
// bare ?n= mode returns request (handler) spans only.
func TestTraceHandlerBoundsResponse(t *testing.T) {
	spans := NewSpanLog(4096)
	for i := 0; i < 4096; i++ {
		name := RequestSpanPrefix + "read"
		if i%4 == 3 {
			name = "digest"
		}
		emit(spans, SpanRecord{TraceID: uint64(i + 1), SpanID: NextSpanID(), Name: name})
	}
	srv := httptest.NewServer(TraceHandler(spans))
	defer srv.Close()

	// The newest span of all is a digest (i = 4095); the newest request
	// is the one before it.
	for q, newest := range map[string]uint64{"n": 4095, "spans": 4096} {
		resp, err := http.Get(srv.URL + "/trace?" + q + "=1000000")
		if err != nil {
			t.Fatal(err)
		}
		var recs []SpanRecord
		err = json.NewDecoder(resp.Body).Decode(&recs)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != MaxTraceResponse {
			t.Fatalf("?%s= returned %d records, want the cap %d", q, len(recs), MaxTraceResponse)
		}
		if got := recs[len(recs)-1].TraceID; got != newest {
			t.Fatalf("?%s= tail ends at trace %d, want the newest, %d", q, got, newest)
		}
		for _, r := range recs {
			if q == "n" && r.Name != RequestSpanPrefix+"read" {
				t.Fatalf("?n= returned non-request span %q", r.Name)
			}
		}
	}
}

func TestTraceHandlerSpanMode(t *testing.T) {
	spans := NewSpanLog(8)
	_, sp := spans.StartSpan(context.Background(), "op")
	tid := sp.Context().TraceID
	sp.End()
	srv := httptest.NewServer(TraceHandler(spans))
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("%s/trace?trace=%d", srv.URL, tid))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recs []SpanRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "op" {
		t.Fatalf("span mode returned %+v", recs)
	}
}

// TestSpanAllocs: a span opened, annotated and ended costs no
// allocation, on the client's path (Start) and the drive's
// (StartRemote), because every request opens one.
func TestSpanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own; run without -race")
	}
	l := NewSpanLog(64)
	k, note := NewKey("bytes"), NewKey("status")
	for name, open := range map[string]func() Span{
		"Start":       func() Span { return l.Start(SpanContext{}, "client.read") },
		"StartRemote": func() Span { return l.StartRemote(42, 7, "drive.read") },
	} {
		avg := testing.AllocsPerRun(1000, func() {
			sp := open()
			sp.Int(k, 8192)
			sp.Note(note, "ok")
			sp.End()
		})
		if avg != 0 {
			t.Errorf("%s/Int/Note/End allocates %.1f per span, want 0", name, avg)
		}
	}
}
