// Package qos is the drive's overload-control plane: a bounded
// admission queue, per-tenant token buckets, weighted deficit
// round-robin (WDRR) fair scheduling, and deadline-aware load shedding
// layered between the rpc server's worker pool and the drive handler.
//
// The paper's cost argument assumes a NASD drive stays well behaved
// when thousands of clients hit it at once. Nothing in the data path
// guarantees that: an unconstrained hot tenant queues the drive into
// collapse and every other tenant's latency rides along. The qos
// Controller sits where Lustre's NRS sits — a thin control path at the
// server edge that admits, prioritizes, and sheds so the fat data path
// degrades gracefully. Every rejection is the typed
// rpc.StatusRetryLater carrying a retry-after hint: flow control the
// client paces against, never a failure that opens breakers.
//
// Tenant identity is the verified capability's partition
// (capability.TenantKey), the same key the telemetry plane attributes
// by, so enforcement and observability agree about who is who.
package qos

import (
	"sync"
	"time"

	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// Class is the scheduling identity a Classifier assigns to a request.
type Class struct {
	// Tenant is the fair-queueing key, conventionally
	// capability.TenantKey(partition) ("part.<N>") so per-tenant qos
	// metrics land in the same namespace the fleet plane splits by.
	Tenant string
	// Op is the drive op name ("read", "write", ...) used to look up
	// live service-time estimates for deadline shedding.
	Op string
	// Cost is the request's scheduling weight in abstract units
	// (callers use max(1, ceil(bytes/32KiB)) so a 1MiB write charges
	// 32x a metadata op). Values < 1 are treated as 1.
	Cost int64
}

// Classifier assigns a request to a tenant class. ok=false bypasses
// admission entirely — the control plane (stats, flush, key
// management) must stay reachable on an overloaded drive, or operators
// cannot see why it is overloaded.
type Classifier func(req *rpc.Request) (cls Class, ok bool)

// Config tunes a Controller. The zero value of each knob picks a
// serviceable default; see the field comments.
type Config struct {
	// Classify assigns requests to tenants. Required.
	Classify Classifier
	// Concurrency is the number of slots admitted requests run in, each
	// on its own rpc worker — the drive's admission width. Default
	// rpc.DefaultWorkers.
	Concurrency int
	// Queue bounds the total requests queued across all tenants.
	// Beyond it the drive answers StatusRetryLater instead of
	// buffering. Default 256.
	Queue int
	// TenantQueue bounds any single tenant's queued requests, so one
	// tenant cannot own the whole global queue. Default Queue/4.
	TenantQueue int
	// Rate is the per-tenant token refill rate in cost units/second
	// (0 = no rate limiting; fairness comes from WDRR alone).
	Rate float64
	// Burst is the per-tenant bucket depth in cost units. Default
	// 2*Rate (or 1 if Rate is set but Burst computes to < 1).
	Burst float64
	// Weights maps tenant → WDRR weight. Unlisted tenants get 1; a
	// weight-3 tenant drains 3x the cost per scheduling round.
	Weights map[string]int64
	// Shed enables deadline-aware dropping: requests whose remaining
	// wire budget (rpc.Request.DeadlineNS) cannot cover the estimated
	// queue wait plus service time are rejected before they consume
	// media time, at admission and again at dispatch.
	Shed bool
	// Metrics receives qos counters/gauges; nil gets a private
	// registry. Pass the drive's registry so per-tenant
	// "drive.part.<P>.qos.*" cells ride the existing fleet plane.
	Metrics *telemetry.Registry
	// Events receives tenant limit/recover transition events; nil
	// uses telemetry.Events.
	Events *telemetry.EventLog
}

func (c *Config) fill() {
	if c.Concurrency <= 0 {
		c.Concurrency = rpc.DefaultWorkers
	}
	if c.Queue <= 0 {
		c.Queue = 256
	}
	if c.TenantQueue <= 0 {
		c.TenantQueue = c.Queue / 4
		if c.TenantQueue < 1 {
			c.TenantQueue = 1
		}
	}
	if c.Rate > 0 && c.Burst <= 0 {
		c.Burst = 2 * c.Rate
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	if c.Events == nil {
		c.Events = telemetry.Events
	}
}

// item is one queued request and the channel its blocked rpc worker
// waits on: nil hands it a slot, a reply answers it without running.
type item struct {
	req  *rpc.Request
	cls  Class
	done chan *rpc.Reply
}

// tenant is one fair queue plus its rate limiter and metric cells.
type tenant struct {
	name    string
	weight  int64
	deficit int64
	q       []*item // FIFO; head at q[0]
	bucket  bucket
	active  bool // linked into the WDRR ring

	// Transition-event hysteresis: limited flips on the first
	// rejection and clears after recoverAfter without one, emitting a
	// fleet event at each edge so operators see who is being limited
	// without watching counters.
	limited    bool
	lastReject time.Time

	admitted  *telemetry.Counter
	throttled *telemetry.Counter
	shed      *telemetry.Counter
	rejected  *telemetry.Counter
	depth     *telemetry.Gauge
}

// recoverAfter is how long a tenant must go without a rejection before
// the limit event clears.
const recoverAfter = 2 * time.Second

// Controller implements rpc.Handler by scheduling requests through
// admission → token bucket → WDRR fair queue → deadline shed → inner
// handler. It owns no goroutines: a finishing request hands its slot
// to WDRR's next pick. It is safe for concurrent use by rpc workers.
type Controller struct {
	inner    rpc.Handler
	classify Classifier
	cfg      Config
	est      *estimator
	events   *telemetry.EventLog

	mu      sync.Mutex
	tenants map[string]*tenant
	ring    []*tenant // active WDRR ring
	ringIdx int
	queued  int
	running int // slots held, at most cfg.Concurrency
	closed  bool

	statAdmitted  *telemetry.Counter
	statThrottled *telemetry.Counter
	statShed      *telemetry.Counter
	statRejected  *telemetry.Counter
	statBypass    *telemetry.Counter
	statDepth     *telemetry.Gauge
	statInflight  *telemetry.Gauge
	statWait      *telemetry.Histogram
}

// quantum is the base deficit credit (in cost units) a queue earns per
// WDRR visit, scaled by the tenant's weight. One unit matches the
// smallest request cost, so even weight-1 tenants make progress every
// round.
const quantum = 1

// New builds a Controller around inner. It starts no goroutines; Close
// answers whatever is still queued.
func New(inner rpc.Handler, cfg Config) *Controller {
	cfg.fill()
	reg := cfg.Metrics
	c := &Controller{
		inner:    inner,
		classify: cfg.Classify,
		cfg:      cfg,
		est:      newEstimator(reg),
		events:   cfg.Events,
		tenants:  make(map[string]*tenant),

		statAdmitted:  reg.Counter("qos.admitted"),
		statThrottled: reg.Counter("qos.throttled"),
		statShed:      reg.Counter("qos.shed"),
		statRejected:  reg.Counter("qos.rejected"),
		statBypass:    reg.Counter("qos.bypass"),
		statDepth:     reg.Gauge("qos.queue_depth"),
		statInflight:  reg.Gauge("qos.inflight"),
		statWait:      reg.Histogram("qos.wait_ns"),
	}
	return c
}

// Close stops scheduling. Requests still queued are answered
// StatusRetryLater (the drive is going away; the client should redial
// and reissue); requests arriving after Close bypass straight to the
// inner handler.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var drained []*item
	for _, t := range c.tenants {
		drained = append(drained, t.q...)
		t.q = nil
		t.depth.Set(0)
	}
	c.ring = nil
	c.queued = 0
	c.statDepth.Set(0)
	c.mu.Unlock()
	for _, it := range drained {
		it.done <- rpc.RetryLater(it.req.MsgID, 10*time.Millisecond, "qos: shutting down")
	}
}

// tenantLocked returns (creating if needed) the tenant record; c.mu
// must be held.
func (c *Controller) tenantLocked(name string) *tenant {
	t := c.tenants[name]
	if t != nil {
		return t
	}
	w := int64(1)
	if cw, ok := c.cfg.Weights[name]; ok && cw > 0 {
		w = cw
	}
	reg := c.cfg.Metrics
	prefix := "drive." + name + ".qos."
	t = &tenant{
		name:      name,
		weight:    w,
		admitted:  reg.Counter(prefix + "admitted"),
		throttled: reg.Counter(prefix + "throttled"),
		shed:      reg.Counter(prefix + "shed"),
		rejected:  reg.Counter(prefix + "rejected"),
		depth:     reg.Gauge(prefix + "queue_depth"),
	}
	if c.cfg.Rate > 0 {
		t.bucket = newBucket(c.cfg.Rate, c.cfg.Burst)
	}
	c.tenants[name] = t
	return t
}

// noteLimited records a rejection for transition events; c.mu held.
func (c *Controller) noteLimited(t *tenant, kind string, now time.Time) {
	t.lastReject = now
	if !t.limited {
		t.limited = true
		c.events.Emitf(telemetry.SevWarn, "qos", "limit",
			"tenant %s limited (%s); shaping until load subsides", t.name, kind)
	}
}

// noteAdmitted clears the limited state once the tenant has gone
// recoverAfter without a rejection; c.mu held.
func (c *Controller) noteAdmitted(t *tenant, now time.Time) {
	if t.limited && now.Sub(t.lastReject) > recoverAfter {
		t.limited = false
		c.events.Emitf(telemetry.SevInfo, "qos", "recover", "tenant %s recovered", t.name)
	}
}

// Handle implements rpc.Handler. Unclassified (control-plane) requests
// bypass admission; everything else is rate-checked, deadline-checked,
// and run on the calling rpc worker in a slot, fair-queueing until a
// finishing request hands it one. It is the only place the drive
// answers StatusRetryLater: over-rate bucket, queue bound, deadline
// shed and Close. A waiting request holds its rpc worker, so a
// connection whose workers all wait backpressures through the
// transport instead.
func (c *Controller) Handle(req *rpc.Request) *rpc.Reply {
	cls, ok := c.classify(req)
	if !ok || cls.Tenant == "" {
		c.statBypass.Inc()
		return c.inner.Handle(req)
	}
	if cls.Cost < 1 {
		cls.Cost = 1
	}
	now := time.Now()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return c.inner.Handle(req)
	}
	t := c.tenantLocked(cls.Tenant)

	// Token bucket: per-tenant rate cap. The hint is exact — the
	// refill time for the missing tokens — so a pacing client retries
	// right when its budget allows.
	if c.cfg.Rate > 0 {
		if wait := t.bucket.take(now, float64(cls.Cost)); wait > 0 {
			t.throttled.Inc()
			c.statThrottled.Inc()
			c.noteLimited(t, "over rate", now)
			c.mu.Unlock()
			return rpc.RetryLater(req.MsgID, clampHint(wait),
				"qos: tenant %s over rate", cls.Tenant)
		}
	}

	// Deadline shed at admission: if the queue ahead plus this op's
	// estimated service time already exceeds the caller's remaining
	// budget, executing it would only burn media time on a reply the
	// caller will have abandoned.
	if c.cfg.Shed && req.DeadlineNS > 0 {
		est := c.est.queueWait(c.queued, c.cfg.Concurrency) + c.est.svc(cls.Op)
		if est > time.Duration(req.DeadlineNS) {
			t.shed.Inc()
			c.statShed.Inc()
			c.noteLimited(t, "deadline unmeetable", now)
			c.mu.Unlock()
			return rpc.RetryLater(req.MsgID, clampHint(est-time.Duration(req.DeadlineNS)),
				"qos: deadline %s < estimated %s", time.Duration(req.DeadlineNS), est)
		}
	}

	// Bounded admission: reject-on-full, never buffer without bound.
	if c.queued >= c.cfg.Queue || len(t.q) >= c.cfg.TenantQueue {
		t.rejected.Inc()
		c.statRejected.Inc()
		c.noteLimited(t, "queue full", now)
		hint := clampHint(c.est.queueWait(c.queued, c.cfg.Concurrency))
		c.mu.Unlock()
		return rpc.RetryLater(req.MsgID, hint, "qos: admission queue full")
	}

	t.admitted.Inc()
	c.statAdmitted.Inc()
	c.noteAdmitted(t, now)
	// A slot is free only while nothing is queued (release hands it on).
	if c.running < c.cfg.Concurrency {
		c.running++
		c.mu.Unlock()
		return c.execute(req, cls, now)
	}
	it := &item{req: req, cls: cls, done: make(chan *rpc.Reply, 1)}
	t.q = append(t.q, it)
	t.depth.Set(int64(len(t.q)))
	c.queued++
	c.statDepth.Set(int64(c.queued))
	if !t.active {
		t.active = true
		c.ring = append(c.ring, t)
	}
	c.mu.Unlock()

	if rep := <-it.done; rep != nil {
		return rep
	}
	return c.execute(req, cls, now)
}

// next pops the next item under WDRR; c.mu must be held. Returns nil
// when nothing is queued.
func (c *Controller) next() *item {
	for len(c.ring) > 0 {
		if c.ringIdx >= len(c.ring) {
			c.ringIdx = 0
		}
		t := c.ring[c.ringIdx]
		if len(t.q) == 0 {
			// Emptied since it was ringed: retire it. Resetting the
			// deficit is what stops an idle tenant banking credit.
			t.active = false
			t.deficit = 0
			c.ring = append(c.ring[:c.ringIdx], c.ring[c.ringIdx+1:]...)
			continue
		}
		head := t.q[0]
		if t.deficit >= head.cls.Cost {
			t.deficit -= head.cls.Cost
			t.q = t.q[1:]
			t.depth.Set(int64(len(t.q)))
			if len(t.q) == 0 {
				t.active = false
				t.deficit = 0
				c.ring = append(c.ring[:c.ringIdx], c.ring[c.ringIdx+1:]...)
			}
			return head
		}
		// Not enough credit: earn quantum×weight and yield the round
		// to the next tenant. Deficit grows monotonically while queued,
		// so every head is eventually served — no starvation.
		t.deficit += quantum * t.weight
		c.ringIdx++
	}
	return nil
}

// release gives up the caller's slot: to WDRR's next pick if anything
// is queued, otherwise back to the pool.
func (c *Controller) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it := c.next(); it != nil {
		c.queued--
		c.statDepth.Set(int64(c.queued))
		it.done <- nil // buffered: never blocks
		return
	}
	c.running--
}

// execute runs a slot holder through the late deadline check and the
// inner handler, feeding the service-time estimator, then releases.
func (c *Controller) execute(req *rpc.Request, cls Class, enq time.Time) *rpc.Reply {
	defer c.release()
	wait := time.Since(enq)
	c.statWait.Observe(int64(wait))

	// Late shed: the request aged in queue past the point where its
	// remaining budget covers the estimated service time. Dropping
	// here — after queueing, before the inner handler — is the "before
	// they consume media time" guarantee.
	if c.cfg.Shed && req.DeadlineNS > 0 {
		if svc := c.est.svc(cls.Op); wait+svc > time.Duration(req.DeadlineNS) {
			c.mu.Lock()
			t := c.tenantLocked(cls.Tenant)
			t.shed.Inc()
			c.statShed.Inc()
			c.noteLimited(t, "aged out in queue", time.Now())
			c.mu.Unlock()
			return rpc.RetryLater(req.MsgID, clampHint(svc),
				"qos: queued %s, deadline %s unmeetable", wait, time.Duration(req.DeadlineNS))
		}
	}

	c.statInflight.Add(1)
	start := time.Now()
	rep := c.inner.Handle(req)
	c.est.observe(time.Since(start))
	c.statInflight.Add(-1)
	return rep
}

// clampHint bounds a retry-after hint to [1ms, 2s]: long enough that a
// retry has a chance, short enough that a recovered drive refills fast.
func clampHint(d time.Duration) time.Duration {
	const lo, hi = time.Millisecond, 2 * time.Second
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

var _ rpc.Handler = (*Controller)(nil)
