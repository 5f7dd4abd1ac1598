package telemetry

import (
	"sync"
	"testing"
)

// TestObserveTraceExemplar checks that traced observations retain a
// bucket-consistent exemplar and untraced ones never displace it.
func TestObserveTraceExemplar(t *testing.T) {
	var h Histogram
	h.ObserveTrace(1000, 42, Now())
	h.Observe(900) // untraced, same bucket: must not displace
	h.ObserveTrace(3, 0, Now())

	s := h.Snapshot()
	if len(s.Exemplars) != 1 {
		t.Fatalf("exemplars = %+v, want exactly one (traceID 0 must not retain)", s.Exemplars)
	}
	e := s.Exemplars[0]
	if e.TraceID != 42 || e.Value != 1000 {
		t.Fatalf("exemplar = %+v", e)
	}
	if e.Bucket != bucketIndex(1000) {
		t.Fatalf("exemplar bucket = %d, want %d (bucketIndex of its value)", e.Bucket, bucketIndex(1000))
	}
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3 (every observation counts)", s.Count)
	}

	// A newer traced observation in the same bucket displaces the old.
	h.ObserveTrace(1001, 43, Now())
	s = h.Snapshot()
	if len(s.Exemplars) != 1 || s.Exemplars[0].TraceID != 43 {
		t.Fatalf("after displacement: %+v", s.Exemplars)
	}
}

// TestExemplarMergeBucketConsistent merges two snapshots and checks
// every surviving exemplar still sits in its own bucket, buckets stay
// in ascending order, and per-bucket conflicts resolve to the newest.
func TestExemplarMergeBucketConsistent(t *testing.T) {
	var a, b Histogram
	a.ObserveTrace(100, 1, Now())   // bucket 7
	a.ObserveTrace(5000, 2, Now())  // bucket 13
	b.ObserveTrace(120, 3, Now())   // bucket 7, observed after a's -> must win
	b.ObserveTrace(70000, 4, Now()) // bucket 17

	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)

	if sa.Count != 4 {
		t.Fatalf("merged count = %d, want 4", sa.Count)
	}
	if len(sa.Exemplars) != 3 {
		t.Fatalf("merged exemplars = %+v, want 3 (one per occupied bucket)", sa.Exemplars)
	}
	seen := make(map[int]bool)
	prev := -1
	for _, e := range sa.Exemplars {
		if e.Bucket != bucketIndex(e.Value) {
			t.Fatalf("exemplar %+v not in its value's bucket %d", e, bucketIndex(e.Value))
		}
		if sa.Buckets[e.Bucket] == 0 {
			t.Fatalf("exemplar %+v points at an empty bucket", e)
		}
		if e.Bucket <= prev {
			t.Fatalf("exemplar buckets not ascending: %+v", sa.Exemplars)
		}
		if seen[e.Bucket] {
			t.Fatalf("bucket %d has two exemplars", e.Bucket)
		}
		seen[e.Bucket] = true
		prev = e.Bucket
	}
	// b's bucket-7 exemplar carried the later timestamp.
	if sa.Exemplars[0].TraceID != 3 {
		t.Fatalf("bucket conflict kept trace %d, want the newer 3", sa.Exemplars[0].TraceID)
	}
}

// TestExemplarNear checks the quantile-to-exemplar mapping prefers the
// tail's evidence.
func TestExemplarNear(t *testing.T) {
	var empty HistogramSnapshot
	if e := empty.ExemplarNear(0.99); e != nil {
		t.Fatalf("empty histogram returned exemplar %+v", e)
	}

	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(100)
	}
	h.ObserveTrace(1<<20, 77, Now()) // the single tail observation, traced
	s := h.Snapshot()
	e := s.ExemplarNear(0.99)
	if e == nil || e.TraceID != 77 {
		t.Fatalf("p99 exemplar = %+v, want the traced tail observation", e)
	}

	// When only lower buckets hold exemplars, the nearest-from-below one
	// is still returned rather than nothing.
	var lo Histogram
	lo.ObserveTrace(100, 5, Now())
	for i := 0; i < 99; i++ {
		lo.Observe(1 << 20) // tail mass is untraced
	}
	ls := lo.Snapshot()
	if e := ls.ExemplarNear(0.99); e == nil || e.TraceID != 5 {
		t.Fatalf("fallback exemplar = %+v, want trace 5", e)
	}
}

// TestObserveTraceAllocs: keeping an exemplar allocates nothing; every
// traced request leaves two.
func TestObserveTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own; run without -race")
	}
	var h Histogram
	trace := uint64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		trace++
		h.ObserveTrace(int64(trace%5000), trace, Now())
	}); avg != 0 {
		t.Errorf("ObserveTrace allocates %.1f per call, want 0", avg)
	}
}

// TestExemplarNeverTorn: while writers keep replacing the exemplars of
// a few buckets, every exemplar a reader gets pairs a value with the
// trace ID of the same observation, and sits in that value's bucket.
// Each writer observes value v under trace ID v<<8|writer.
func TestExemplarNeverTorn(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 1; w <= 2; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for v := int64(1); ; v = v%3000 + 1 {
				select {
				case <-stop:
					return
				default:
				}
				h.ObserveTrace(v, uint64(v)<<8|w, Now())
			}
		}(uint64(w))
	}
	check := func(e Exemplar) {
		if e.TraceID>>8 != uint64(e.Value) || e.Bucket != bucketIndex(e.Value) {
			t.Fatalf("torn exemplar %+v: trace ID %d belongs to value %d", e, e.TraceID, e.TraceID>>8)
		}
	}
	for i := 0; i < 300; i++ {
		s := h.Snapshot()
		for _, e := range s.Exemplars {
			check(e)
		}
		if e := s.ExemplarNear(0.99); e != nil {
			check(*e)
		}
	}
	close(stop)
	wg.Wait()
}
