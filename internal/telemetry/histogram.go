package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every histogram. Bucket 0
// holds values <= 1; bucket i holds values in (2^(i-1), 2^i]; the last
// bucket additionally absorbs everything larger. With nanosecond
// observations the layout spans 1 ns to ~39 hours, which covers every
// latency this system can produce, and the fixed shape is what makes
// snapshots from different drives mergeable.
const NumBuckets = 48

// Histogram is a lock-free fixed-bucket histogram of int64 values
// (by convention nanoseconds; cheops also uses one for stripe fan-out
// widths). The zero value is ready to use.
//
// Each bucket additionally retains an exemplar: the most recent traced
// observation that landed in it. Exemplars are what link a histogram's
// tail back to evidence — the p99 bucket's exemplar names a concrete
// trace ID whose span timeline shows where that latency went.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0; 0 sentinel handled via CAS from minUnset
	max     atomic.Int64
	minInit atomic.Bool
	buckets [NumBuckets]atomic.Uint64
	ex      [NumBuckets]exemplarSlot
}

// exemplarSlot holds a bucket's exemplar in fixed fields, so keeping
// one allocates nothing. A writer that finds the slot busy drops its
// observation (the one being stored is no older); a reader waits.
type exemplarSlot struct {
	mu sync.Mutex
	e  Exemplar // TraceID 0: none
}

// Exemplar is one concrete traced observation retained for a bucket.
type Exemplar struct {
	Bucket   int    `json:"bucket"`
	Value    int64  `json:"value"`
	TraceID  uint64 `json:"trace_id"`
	UnixNano int64  `json:"unix_ns"`
}

// bucketIndex returns the bucket for value v.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	// Smallest i with 2^i >= v, i.e. ceil(log2(v)).
	i := bits.Len64(uint64(v - 1))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1 << uint(i)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
	if h.minInit.CompareAndSwap(false, true) {
		h.min.Store(v)
		h.max.Store(v)
	} else {
		for {
			cur := h.min.Load()
			if v >= cur || h.min.CompareAndSwap(cur, v) {
				break
			}
		}
		for {
			cur := h.max.Load()
			if v <= cur || h.max.CompareAndSwap(cur, v) {
				break
			}
		}
	}
}

// ObserveTrace records one value and, when the observation belongs to
// a traced request (traceID != 0), retains it as its bucket's
// exemplar. Untraced observations count normally but never displace an
// exemplar.
func (h *Histogram) ObserveTrace(v int64, traceID uint64) {
	h.Observe(v)
	if traceID == 0 {
		return
	}
	i := bucketIndex(v)
	if s := &h.ex[i]; s.mu.TryLock() {
		s.e = Exemplar{Bucket: i, Value: v, TraceID: traceID, UnixNano: unixNano()}
		s.mu.Unlock()
	}
}

// Sum returns the cumulative sum of observed values (one atomic read).
// The drive reads lock-meter wait histograms this way to annotate a
// request's span with the lock-wait delta it observed.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(int64(time.Since(start))) }

// Snapshot copies the histogram's state. The copy is not atomic across
// fields: counts and sums observed concurrently may be off by the
// in-flight observations, which is acceptable for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	s.Buckets = make([]uint64, NumBuckets)
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	for i := range h.ex {
		h.ex[i].mu.Lock()
		e := h.ex[i].e
		h.ex[i].mu.Unlock()
		if e.TraceID != 0 {
			s.Exemplars = append(s.Exemplars, e)
		}
	}
	return s
}

// HistogramSnapshot is the serializable form of a Histogram. Exemplars
// holds at most one entry per occupied bucket, in ascending bucket
// order.
type HistogramSnapshot struct {
	Count     uint64     `json:"count"`
	Sum       int64      `json:"sum"`
	Min       int64      `json:"min"`
	Max       int64      `json:"max"`
	Buckets   []uint64   `json:"buckets"`
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Mean returns the average observed value (0 when empty).
func (s *HistogramSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / int64(s.Count)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by locating the
// bucket holding the q-th sample and interpolating linearly within it.
// The true value is within a factor of two (one bucket) of the
// estimate, bounded by the recorded min and max.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo := int64(0)
			if i > 0 {
				lo = BucketBound(i - 1)
			}
			hi := BucketBound(i)
			frac := (rank - cum) / float64(n)
			v := lo + int64(frac*float64(hi-lo))
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum = next
	}
	return s.Max
}

// Merge folds other into s bucket-by-bucket. Exemplars merge per
// bucket, most recent observation winning, so a fleet-merged histogram
// still names a live trace for each occupied bucket.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	if other.Count == 0 {
		return
	}
	if s.Count == 0 {
		s.Min = other.Min
		s.Max = other.Max
	} else {
		if other.Min < s.Min {
			s.Min = other.Min
		}
		if other.Max > s.Max {
			s.Max = other.Max
		}
	}
	s.Count += other.Count
	s.Sum += other.Sum
	if s.Buckets == nil {
		s.Buckets = make([]uint64, NumBuckets)
	}
	for i := 0; i < len(other.Buckets) && i < len(s.Buckets); i++ {
		s.Buckets[i] += other.Buckets[i]
	}
	if len(other.Exemplars) == 0 {
		return
	}
	byBucket := make(map[int]Exemplar, len(s.Exemplars)+len(other.Exemplars))
	for _, e := range s.Exemplars {
		byBucket[e.Bucket] = e
	}
	for _, e := range other.Exemplars {
		if cur, ok := byBucket[e.Bucket]; !ok || e.UnixNano > cur.UnixNano {
			byBucket[e.Bucket] = e
		}
	}
	s.Exemplars = s.Exemplars[:0]
	for i := 0; i < NumBuckets; i++ {
		if e, ok := byBucket[i]; ok {
			s.Exemplars = append(s.Exemplars, e)
		}
	}
}

// ExemplarNear returns the retained exemplar closest to the q-th
// quantile, preferring the exemplar of the quantile's bucket or any
// higher one (a tail quantile should surface the *slow* evidence).
// Returns nil when the histogram has no exemplars.
func (s *HistogramSnapshot) ExemplarNear(q float64) *Exemplar {
	if len(s.Exemplars) == 0 {
		return nil
	}
	target := bucketIndex(s.Quantile(q))
	best := -1
	for i, e := range s.Exemplars { // ascending bucket order
		if e.Bucket >= target {
			best = i
			break
		}
	}
	if best < 0 {
		best = len(s.Exemplars) - 1 // all below target: nearest from below
	}
	e := s.Exemplars[best]
	return &e
}
