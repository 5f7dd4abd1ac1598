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
// op has histogram samples (cold start), a per-op EWMA fed by the
// Controller's own executions stands in; before even that, a 1ms prior.
type estimator struct {
	reg *telemetry.Registry

	mu  sync.Mutex
	ops map[string]*opEstimate

	// ewmaAll tracks mean per-item service time across all ops, used
	// to turn a queue depth into an expected queue wait.
	ewmaAll atomic.Int64
}

type opEstimate struct {
	ewma atomic.Int64 // ns, updated on every execution

	// cached histogram read
	cachedNS atomic.Int64 // 0 = no histogram data at last refresh
	fetched  atomic.Int64 // unix ns of last refresh
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

// observe feeds one completed execution back into the estimates.
func (e *estimator) observe(op string, d time.Duration) {
	ns := int64(d)
	oe := e.op(op)
	old := oe.ewma.Load()
	if old == 0 {
		oe.ewma.Store(ns)
	} else {
		oe.ewma.Store(old + (ns-old)/8)
	}
	old = e.ewmaAll.Load()
	if old == 0 {
		e.ewmaAll.Store(ns)
	} else {
		e.ewmaAll.Store(old + (ns-old)/8)
	}
}

// svc returns the estimated service time for one request of op.
func (e *estimator) svc(op string) time.Duration {
	oe := e.op(op)
	now := time.Now().UnixNano()
	if now-oe.fetched.Load() > int64(estimateTTL) {
		oe.fetched.Store(now)
		// The drive records per-op service time (digest + object +
		// media) under this name; its tail is the honest forecast for
		// "what will this request cost if admitted".
		snap := e.reg.Histogram("drive.op." + op + ".svc_ns").Snapshot()
		if snap.Count > 0 {
			oe.cachedNS.Store(snap.Quantile(0.90))
		} else {
			oe.cachedNS.Store(0)
		}
	}
	if ns := oe.cachedNS.Load(); ns > 0 {
		return time.Duration(ns)
	}
	if ns := oe.ewma.Load(); ns > 0 {
		return time.Duration(ns)
	}
	return defaultSvc
}

// queueWait forecasts how long a request admitted now would sit in
// queue: depth items ahead, drained through workers slots, at the mean
// observed per-item service time.
func (e *estimator) queueWait(depth, workers int) time.Duration {
	if depth <= 0 || workers <= 0 {
		return 0
	}
	per := e.ewmaAll.Load()
	if per == 0 {
		per = int64(defaultSvc)
	}
	return time.Duration(per * int64(depth) / int64(workers))
}
