package telemetry

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11}, {1 << 40, 40}, {1<<62 + 1, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Each value must land in the bucket whose bound covers it: bucket i
	// holds (BucketBound(i-1), BucketBound(i)].
	for _, v := range []int64{1, 2, 7, 100, 4096, 1 << 30} {
		i := bucketIndex(v)
		if v > BucketBound(i) {
			t.Errorf("value %d above bound of its bucket %d (%d)", v, i, BucketBound(i))
		}
		if i > 0 && v <= BucketBound(i-1) {
			t.Errorf("value %d should be in an earlier bucket than %d", v, i)
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.Sum != 1000*1001/2 {
		t.Fatalf("sum = %d, want %d", s.Sum, 1000*1001/2)
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("min/max = %d/%d, want 1/1000", s.Min, s.Max)
	}
	if m := s.Mean(); m != 500 {
		t.Fatalf("mean = %d, want 500", m)
	}
	// Power-of-two buckets bound quantiles within a factor of two.
	p50 := s.Quantile(0.50)
	if p50 < 250 || p50 > 1000 {
		t.Fatalf("p50 = %d, outside [250, 1000]", p50)
	}
	if q := s.Quantile(0); q != s.Min {
		t.Fatalf("q0 = %d, want min %d", q, s.Min)
	}
	if q := s.Quantile(1); q != s.Max {
		t.Fatalf("q1 = %d, want max %d", q, s.Max)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for v := int64(1); v <= 100; v++ {
		a.Observe(v)
		b.Observe(v * 1000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 200 {
		t.Fatalf("merged count = %d, want 200", sa.Count)
	}
	if sa.Min != 1 || sa.Max != 100000 {
		t.Fatalf("merged min/max = %d/%d, want 1/100000", sa.Min, sa.Max)
	}
	var total uint64
	for _, n := range sa.Buckets {
		total += n
	}
	if total != 200 {
		t.Fatalf("merged bucket mass = %d, want 200", total)
	}
	// Merging into an empty snapshot adopts the other's extremes.
	var zero HistogramSnapshot
	zero.Merge(sb)
	if zero.Min != 1000 || zero.Max != 100000 || zero.Count != 100 {
		t.Fatalf("merge into zero: %+v", zero)
	}
}

func TestSnapshotMergeAndJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.calls").Add(3)
	r.Gauge("a.depth").Set(-2)
	r.Histogram("a.svc_ns").Observe(500)
	r.Func("a.pull", func() int64 { return 42 })

	s := r.Snapshot()
	if s.Counters["a.calls"] != 3 || s.Gauges["a.depth"] != -2 || s.Gauges["a.pull"] != 42 {
		t.Fatalf("snapshot: %+v", s)
	}

	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("JSON round trip changed snapshot:\n%+v\n%+v", s, back)
	}

	other := r.Snapshot()
	s.Merge(other)
	if s.Counters["a.calls"] != 6 {
		t.Fatalf("merged counter = %d, want 6", s.Counters["a.calls"])
	}
	if s.Histograms["a.svc_ns"].Count != 2 {
		t.Fatalf("merged histogram count = %d, want 2", s.Histograms["a.svc_ns"].Count)
	}
}

// TestMetricsHandlerRoundTrip drives the /metrics HTTP endpoint the way
// curl would and checks the counters survive the trip.
func TestMetricsHandlerRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rpc.server.requests").Add(17)
	r.Histogram("drive.op.read.svc_ns").Observe(1234)

	srv := httptest.NewServer(NewMux(r.Snapshot, NewSpanLog(4), NewEventLog(4)))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var s Snapshot
	if err := json.NewDecoder(res.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["rpc.server.requests"] != 17 {
		t.Fatalf("counter over HTTP = %d, want 17", s.Counters["rpc.server.requests"])
	}
	if h := s.Histograms["drive.op.read.svc_ns"]; h.Count != 1 || h.Sum != 1234 {
		t.Fatalf("histogram over HTTP: %+v", h)
	}

	health, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer health.Body.Close()
	var hb map[string]any
	if err := json.NewDecoder(health.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if hb["status"] != "ok" {
		t.Fatalf("healthz: %+v", hb)
	}
}

// TestSnapshotRaceSafety exercises concurrent updates against
// snapshots; run with -race.
func TestSnapshotRaceSafety(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(7)
			}
		}()
	}
	for i := 0; i < 100; i++ {
		s := r.Snapshot()
		if s.Histograms["h"].Count > 0 && s.Histograms["h"].Min != 7 {
			t.Errorf("min = %d, want 7", s.Histograms["h"].Min)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if sc, ok := SpanContextFrom(ctx); ok {
		t.Fatalf("fresh context should carry no trace, got %+v", sc)
	}
	// A request ID is a root span context: the trace ID, no span.
	ctx1 := WithExplicitRequestID(ctx, 99)
	if sc, ok := SpanContextFrom(ctx1); !ok || sc != (SpanContext{TraceID: 99}) {
		t.Fatalf("span context = %+v, %v; want trace 99, span 0", sc, ok)
	}
	// It replaces whatever span context the caller had.
	ctx2 := WithExplicitRequestID(context.WithValue(ctx, spanCtxKey{}, SpanContext{TraceID: 7, SpanID: 8}), 99)
	if sc, _ := SpanContextFrom(ctx2); sc != (SpanContext{TraceID: 99}) {
		t.Fatalf("explicit ID not honored: %+v", sc)
	}
}
