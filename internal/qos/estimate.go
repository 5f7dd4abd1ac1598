package qos

import (
	"sync"
	"sync/atomic"
	"time"

	"nasd/internal/telemetry"
)

// estimator supplies the service-time forecasts the shedder compares
// deadlines against. Per-op estimates come from the live
// "drive.op.<op>.svc_ns" histograms the drive already maintains in the
// shared registry — the p90, cached briefly because snapshotting a
// histogram walks 48 buckets and the admission path is hot. Before an
// op has histogram samples (cold start), a 1ms prior stands in.
type estimator struct {
	reg *telemetry.Registry

	mu  sync.Mutex
	ops map[string]*opEstimate

	// meanAll tracks mean per-item service time across all ops (an
	// EWMA), used to turn a queue depth into an expected queue wait.
	meanAll atomic.Int64
}

// opEstimate is one op's cached histogram read.
type opEstimate struct {
	cachedNS atomic.Int64 // p90 at the last non-empty read
	fetched  atomic.Int64 // unix ns of that read; 0 = none yet
}

// estimateTTL is how long a cached histogram quantile is trusted.
const estimateTTL = 250 * time.Millisecond

// defaultSvc is the cold-start prior for an op with no observations.
const defaultSvc = time.Millisecond

func newEstimator(reg *telemetry.Registry) *estimator {
	return &estimator{reg: reg, ops: make(map[string]*opEstimate)}
}

func (e *estimator) op(name string) *opEstimate {
	e.mu.Lock()
	defer e.mu.Unlock()
	oe := e.ops[name]
	if oe == nil {
		oe = &opEstimate{}
		e.ops[name] = oe
	}
	return oe
}

// observe feeds one completed execution into the all-ops mean.
func (e *estimator) observe(d time.Duration) {
	ns := int64(d)
	if old := e.meanAll.Load(); old != 0 {
		ns = old + (ns-old)/8
	}
	e.meanAll.Store(ns)
}

// svc returns the estimated service time for one request of op: the
// p90 of its histogram, or the prior while the histogram is empty. Only
// a read that found samples is cached, so the first samples count at
// once rather than after a cached empty read expires.
func (e *estimator) svc(op string) time.Duration {
	oe := e.op(op)
	now := time.Now().UnixNano()
	if now-oe.fetched.Load() > int64(estimateTTL) {
		// The drive records per-op service time (digest + object +
		// media) under this name; its tail is the honest forecast for
		// "what will this request cost if admitted".
		snap := e.reg.Histogram("drive.op." + op + ".svc_ns").Snapshot()
		if snap.Count == 0 {
			return defaultSvc
		}
		oe.cachedNS.Store(snap.Quantile(0.90))
		oe.fetched.Store(now)
	}
	return time.Duration(oe.cachedNS.Load())
}

// queueWait forecasts how long a request admitted now would sit in
// queue: depth items ahead, drained through workers slots, at the mean
// observed per-item service time.
func (e *estimator) queueWait(depth, workers int) time.Duration {
	if depth <= 0 || workers <= 0 {
		return 0
	}
	per := e.meanAll.Load()
	if per == 0 {
		per = int64(defaultSvc)
	}
	return time.Duration(per * int64(depth) / int64(workers))
}
