package qos_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nasd/internal/qos"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// The test protocol: Args[0] is the tenant id, Args[1] (optional) the
// cost; empty Args means control-plane (bypass). blockProc requests
// park inside the inner handler until the gate opens, which is how
// tests hold the slots and build queue depth deterministically.
const blockProc = 99

type fakeInner struct {
	gate chan struct{}

	mu     sync.Mutex
	order  []string // tenant of each executed request, in order
	served int
}

func tenantOf(req *rpc.Request) string {
	return fmt.Sprintf("part.%d", req.Args[0])
}

func (f *fakeInner) Handle(req *rpc.Request) *rpc.Reply {
	if req.Proc == blockProc {
		<-f.gate
	}
	f.mu.Lock()
	if len(req.Args) > 0 {
		f.order = append(f.order, tenantOf(req))
	}
	f.served++
	f.mu.Unlock()
	return &rpc.Reply{MsgID: req.MsgID, Status: rpc.StatusOK}
}

func (f *fakeInner) snapshot() (order []string, served int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.order...), f.served
}

func classify(req *rpc.Request) (qos.Class, bool) {
	if len(req.Args) == 0 {
		return qos.Class{}, false
	}
	cost := int64(1)
	if len(req.Args) > 1 {
		cost = int64(req.Args[1])
	}
	return qos.Class{Tenant: tenantOf(req), Op: "op", Cost: cost}, true
}

func req(tenant byte, cost byte) *rpc.Request {
	return &rpc.Request{Proc: 1, Args: []byte{tenant, cost}}
}

// waitGauge polls a gauge until it reaches want.
func waitGauge(t *testing.T, g *telemetry.Gauge, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("gauge stuck at %d, want %d", g.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// wedge submits one blockProc request and waits until its slot holder
// is parked inside the inner handler, leaving the queue itself empty.
func wedge(t *testing.T, c *qos.Controller, inner *fakeInner, reg *telemetry.Registry) chan *rpc.Reply {
	t.Helper()
	done := make(chan *rpc.Reply, 1)
	go func() { done <- c.Handle(&rpc.Request{Proc: blockProc, Args: []byte{0, 1}}) }()
	waitGauge(t, reg.Gauge("qos.inflight"), 1)
	return done
}

func TestWDRRFairInterleave(t *testing.T) {
	inner := &fakeInner{gate: make(chan struct{})}
	reg := telemetry.NewRegistry()
	c := qos.New(inner, qos.Config{
		Classify: classify, Concurrency: 1, Queue: 64, TenantQueue: 32, Metrics: reg,
		Events: telemetry.NewEventLog(16),
	})
	defer c.Close()
	gate := wedge(t, c, inner, reg)

	const per = 8
	var wg sync.WaitGroup
	for i := 0; i < per; i++ {
		for _, tenant := range []byte{1, 2} {
			wg.Add(1)
			go func(tenant byte) {
				defer wg.Done()
				if rep := c.Handle(req(tenant, 1)); rep.Status != rpc.StatusOK {
					t.Errorf("tenant %d: %v", tenant, rep.Status)
				}
			}(tenant)
		}
	}
	waitGauge(t, reg.Gauge("qos.queue_depth"), 2*per)
	close(inner.gate)
	wg.Wait()
	<-gate

	order, _ := inner.snapshot()
	// Equal weights, equal cost: WDRR alternates, so every prefix of
	// the served order stays balanced. Without fair queueing (plain
	// FIFO over racing goroutines) one tenant can run far ahead.
	var a, b int
	for i, tenant := range order[1:] { // order[0] is the wedge request
		switch tenant {
		case "part.1":
			a++
		case "part.2":
			b++
		}
		if diff := a - b; diff < -2 || diff > 2 {
			t.Fatalf("prefix %d unbalanced: %d vs %d (order %v)", i, a, b, order)
		}
	}
	if a != per || b != per {
		t.Fatalf("served %d/%d, want %d/%d", a, b, per, per)
	}
}

func TestWDRRWeights(t *testing.T) {
	inner := &fakeInner{gate: make(chan struct{})}
	reg := telemetry.NewRegistry()
	c := qos.New(inner, qos.Config{
		Classify: classify, Concurrency: 1, Queue: 64, TenantQueue: 32, Metrics: reg,
		Weights: map[string]int64{"part.1": 3, "part.2": 1},
		Events:  telemetry.NewEventLog(16),
	})
	defer c.Close()
	gate := wedge(t, c, inner, reg)

	const per = 8
	var wg sync.WaitGroup
	for i := 0; i < per; i++ {
		for _, tenant := range []byte{1, 2} {
			wg.Add(1)
			go func(tenant byte) {
				defer wg.Done()
				c.Handle(req(tenant, 1))
			}(tenant)
		}
	}
	waitGauge(t, reg.Gauge("qos.queue_depth"), 2*per)
	close(inner.gate)
	wg.Wait()
	<-gate

	order, _ := inner.snapshot()
	// Weight 3:1 → the WDRR period is 3x part.1 + 1x part.2, so any
	// 8-service window while both queues are busy gives part.1 six
	// services regardless of which tenant won the ring's first slot.
	a := 0
	for _, tenant := range order[1:9] {
		if tenant == "part.1" {
			a++
		}
	}
	if a < 5 {
		t.Fatalf("weight-3 tenant got %d of first 8 services (order %v)", a, order)
	}
}

func TestWDRRCostFairness(t *testing.T) {
	inner := &fakeInner{gate: make(chan struct{})}
	reg := telemetry.NewRegistry()
	c := qos.New(inner, qos.Config{
		Classify: classify, Concurrency: 1, Queue: 64, TenantQueue: 32, Metrics: reg,
		Events: telemetry.NewEventLog(16),
	})
	defer c.Close()
	gate := wedge(t, c, inner, reg)

	const per = 8
	var wg sync.WaitGroup
	for i := 0; i < per; i++ {
		for _, spec := range []struct{ tenant, cost byte }{{1, 4}, {2, 1}} {
			wg.Add(1)
			go func(tenant, cost byte) {
				defer wg.Done()
				c.Handle(req(tenant, cost))
			}(spec.tenant, spec.cost)
		}
	}
	waitGauge(t, reg.Gauge("qos.queue_depth"), 2*per)
	close(inner.gate)
	wg.Wait()
	<-gate

	order, _ := inner.snapshot()
	// part.1 sends cost-4 requests: byte-fairness means part.2's
	// cost-1 requests drain ~4x as often while both queues are busy —
	// at least 5 of any 8-service window, whatever the ring phase.
	b := 0
	for _, tenant := range order[1:9] {
		if tenant == "part.2" {
			b++
		}
	}
	if b < 5 {
		t.Fatalf("cheap tenant got %d of first 8 services (order %v)", b, order)
	}
}

func TestQueueBoundRejects(t *testing.T) {
	inner := &fakeInner{gate: make(chan struct{})}
	reg := telemetry.NewRegistry()
	c := qos.New(inner, qos.Config{
		Classify: classify, Concurrency: 1, Queue: 2, TenantQueue: 2, Metrics: reg,
		Events: telemetry.NewEventLog(16),
	})
	defer c.Close()
	gate := wedge(t, c, inner, reg)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); c.Handle(req(1, 1)) }()
	}
	waitGauge(t, reg.Gauge("qos.queue_depth"), 2)

	rep := c.Handle(req(1, 1))
	if rep.Status != rpc.StatusRetryLater {
		t.Fatalf("status %v, want retry-later", rep.Status)
	}
	if hint, ok := rpc.RetryAfterHint(rep); !ok || hint <= 0 {
		t.Fatalf("bad hint %v ok=%v", hint, ok)
	}
	if got := reg.Counter("drive.part.1.qos.rejected").Load(); got != 1 {
		t.Fatalf("per-tenant rejected = %d, want 1", got)
	}
	if got := reg.Counter("qos.rejected").Load(); got != 1 {
		t.Fatalf("aggregate rejected = %d, want 1", got)
	}
	close(inner.gate)
	wg.Wait()
	<-gate
}

func TestTenantQueueBoundIsolates(t *testing.T) {
	inner := &fakeInner{gate: make(chan struct{})}
	reg := telemetry.NewRegistry()
	c := qos.New(inner, qos.Config{
		Classify: classify, Concurrency: 1, Queue: 16, TenantQueue: 2, Metrics: reg,
		Events: telemetry.NewEventLog(16),
	})
	defer c.Close()
	gate := wedge(t, c, inner, reg)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); c.Handle(req(1, 1)) }()
	}
	waitGauge(t, reg.Gauge("qos.queue_depth"), 2)

	if rep := c.Handle(req(1, 1)); rep.Status != rpc.StatusRetryLater {
		t.Fatalf("hot tenant over its queue share: %v, want retry-later", rep.Status)
	}
	// The global queue still has room: another tenant gets in.
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		if rep := c.Handle(req(2, 1)); rep.Status != rpc.StatusOK {
			t.Errorf("victim tenant rejected: %v", rep.Status)
		}
	}()
	waitGauge(t, reg.Gauge("qos.queue_depth"), 3)
	close(inner.gate)
	wg.Wait()
	wg2.Wait()
	<-gate
}

func TestTokenBucketThrottles(t *testing.T) {
	inner := &fakeInner{gate: make(chan struct{})}
	close(inner.gate) // no blocking needed
	reg := telemetry.NewRegistry()
	events := telemetry.NewEventLog(16)
	c := qos.New(inner, qos.Config{
		Classify: classify, Concurrency: 1, Queue: 16, Metrics: reg,
		Rate: 0.5, Burst: 1, // 1 token now, then one every 2s
		Events: events,
	})
	defer c.Close()

	if rep := c.Handle(req(1, 1)); rep.Status != rpc.StatusOK {
		t.Fatalf("first call: %v", rep.Status)
	}
	rep := c.Handle(req(1, 1))
	if rep.Status != rpc.StatusRetryLater {
		t.Fatalf("second call: %v, want retry-later", rep.Status)
	}
	hint, ok := rpc.RetryAfterHint(rep)
	if !ok || hint < 100*time.Millisecond {
		t.Fatalf("throttle hint %v ok=%v, want a real refill wait", hint, ok)
	}
	if got := reg.Counter("drive.part.1.qos.throttled").Load(); got != 1 {
		t.Fatalf("throttled = %d, want 1", got)
	}
	// Another tenant has its own bucket and is unaffected.
	if rep := c.Handle(req(2, 1)); rep.Status != rpc.StatusOK {
		t.Fatalf("other tenant throttled too: %v", rep.Status)
	}
	// The transition emitted exactly one limit event despite repeats.
	c.Handle(req(1, 1))
	var limits int
	for _, ev := range events.Recent(16, telemetry.SevInfo) {
		if ev.Subsystem == "qos" && ev.Name == "limit" && strings.Contains(ev.Detail, "part.1") {
			limits++
		}
	}
	if limits != 1 {
		t.Fatalf("limit events = %d, want 1 (hysteresis)", limits)
	}
}

func TestDeadlineShedAtAdmission(t *testing.T) {
	inner := &fakeInner{gate: make(chan struct{})}
	close(inner.gate)
	reg := telemetry.NewRegistry()
	c := qos.New(inner, qos.Config{
		Classify: classify, Concurrency: 1, Queue: 16, Shed: true, Metrics: reg,
		Events: telemetry.NewEventLog(16),
	})
	defer c.Close()

	// A 1ns budget can never cover the estimator's 1ms cold-start
	// prior: shed before the inner handler sees it.
	r := req(1, 1)
	r.DeadlineNS = 1
	rep := c.Handle(r)
	if rep.Status != rpc.StatusRetryLater {
		t.Fatalf("status %v, want retry-later", rep.Status)
	}
	if _, served := inner.snapshot(); served != 0 {
		t.Fatalf("inner handler ran %d times for a doomed request", served)
	}
	if got := reg.Counter("drive.part.1.qos.shed").Load(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	// No deadline → no shedding.
	if rep := c.Handle(req(1, 1)); rep.Status != rpc.StatusOK {
		t.Fatalf("undeadlined call: %v", rep.Status)
	}
}

func TestDeadlineShedAgedInQueue(t *testing.T) {
	inner := &fakeInner{gate: make(chan struct{})}
	reg := telemetry.NewRegistry()
	c := qos.New(inner, qos.Config{
		Classify: classify, Concurrency: 1, Queue: 16, Shed: true, Metrics: reg,
		Events: telemetry.NewEventLog(16),
	})
	defer c.Close()
	gate := wedge(t, c, inner, reg)

	// Admitted with a comfortable 30ms budget against an empty queue,
	// but wedged behind the gate past its deadline: the late check at
	// dispatch must shed it without running the inner handler.
	r := req(1, 1)
	r.DeadlineNS = uint64(30 * time.Millisecond)
	done := make(chan *rpc.Reply, 1)
	go func() { done <- c.Handle(r) }()
	waitGauge(t, reg.Gauge("qos.queue_depth"), 1)
	time.Sleep(60 * time.Millisecond)
	close(inner.gate)
	rep := <-done
	<-gate
	if rep.Status != rpc.StatusRetryLater {
		t.Fatalf("status %v, want retry-later", rep.Status)
	}
	order, _ := inner.snapshot()
	if len(order) != 1 { // only the wedge request
		t.Fatalf("inner ran aged-out request: order %v", order)
	}
	if got := reg.Counter("drive.part.1.qos.shed").Load(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
}

func TestControlPlaneBypass(t *testing.T) {
	inner := &fakeInner{gate: make(chan struct{})}
	reg := telemetry.NewRegistry()
	c := qos.New(inner, qos.Config{
		Classify: classify, Concurrency: 1, Queue: 1, TenantQueue: 1, Metrics: reg,
		Events: telemetry.NewEventLog(16),
	})
	defer c.Close()
	gate := wedge(t, c, inner, reg)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); c.Handle(req(1, 1)) }()
	waitGauge(t, reg.Gauge("qos.queue_depth"), 1)

	// Queue is full, the slot wedged — the control-plane request
	// (empty Args → unclassified) still goes straight through.
	ctl := make(chan *rpc.Reply, 1)
	go func() { ctl <- c.Handle(&rpc.Request{Proc: 1}) }()
	select {
	case rep := <-ctl:
		if rep.Status != rpc.StatusOK {
			t.Fatalf("bypass status %v", rep.Status)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("control-plane request stuck behind the data plane")
	}
	if got := reg.Counter("qos.bypass").Load(); got != 1 {
		t.Fatalf("bypass = %d, want 1", got)
	}
	close(inner.gate)
	wg.Wait()
	<-gate
}

func TestCloseDrainsQueued(t *testing.T) {
	inner := &fakeInner{gate: make(chan struct{})}
	reg := telemetry.NewRegistry()
	c := qos.New(inner, qos.Config{
		Classify: classify, Concurrency: 1, Queue: 16, Metrics: reg,
		Events: telemetry.NewEventLog(16),
	})
	gate := wedge(t, c, inner, reg)

	done := make(chan *rpc.Reply, 1)
	go func() { done <- c.Handle(req(1, 1)) }()
	waitGauge(t, reg.Gauge("qos.queue_depth"), 1)
	c.Close()
	select {
	case rep := <-done:
		if rep.Status != rpc.StatusRetryLater {
			t.Fatalf("drained status %v, want retry-later", rep.Status)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued request leaked across Close")
	}
	close(inner.gate)
	// The slot holder finishes after Close: its release finds nothing to
	// hand on and must neither block nor panic.
	select {
	case rep := <-gate:
		if rep.Status != rpc.StatusOK {
			t.Fatalf("slot holder across Close: %v, want OK", rep.Status)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("slot holder stuck releasing after Close")
	}
	// After Close new requests bypass straight to the inner handler.
	if rep := c.Handle(req(1, 1)); rep.Status != rpc.StatusOK {
		t.Fatalf("request after Close: %v, want OK", rep.Status)
	}
	if _, served := inner.snapshot(); served != 2 {
		t.Fatalf("inner served %d, want the wedge and the post-Close request", served)
	}
}

func TestOversizedRequestClampsToBurst(t *testing.T) {
	inner := &fakeInner{gate: make(chan struct{})}
	close(inner.gate)
	reg := telemetry.NewRegistry()
	c := qos.New(inner, qos.Config{
		Classify: classify, Concurrency: 1, Queue: 16, Metrics: reg,
		Rate: 50, Burst: 4, // a cost-20 request exceeds the whole bucket
	})
	defer c.Close()

	// A brim-full bucket admits a request costing more than its
	// capacity — burst bounds the charge, not the transfer size.
	if rep := c.Handle(req(1, 20)); rep.Status != rpc.StatusOK {
		t.Fatalf("oversized request on a full bucket: %v, want OK", rep.Status)
	}
	// The bucket was drained in full: a cost-1 follow-up throttles
	// with a real refill hint, so the sustained rate still holds.
	rep := c.Handle(req(1, 1))
	if rep.Status != rpc.StatusRetryLater {
		t.Fatalf("follow-up after full drain: %v, want retry-later", rep.Status)
	}
	if hint, ok := rpc.RetryAfterHint(rep); !ok || hint <= 0 {
		t.Fatalf("hint %v ok=%v, want a refill wait", hint, ok)
	}
	// And the hint is bounded by the burst refill, not the oversized
	// cost: even a repeated oversized request becomes admissible within
	// burst/rate seconds, never "never".
	rep = c.Handle(req(1, 20))
	if rep.Status != rpc.StatusRetryLater {
		t.Fatalf("oversized request on a drained bucket: %v, want retry-later", rep.Status)
	}
	hint, ok := rpc.RetryAfterHint(rep)
	if !ok || hint > 2*(4*time.Second/50) {
		t.Fatalf("oversized hint %v ok=%v, want <= full-bucket refill (~%v)", hint, ok, 4*time.Second/50)
	}
}

// slotInner answers every request with one preallocated reply, counts
// each MsgID's runs, and tracks how many requests are inside it at once.
type slotInner struct {
	rep       rpc.Reply
	runs      []atomic.Int32
	cur, peak atomic.Int32
}

func (f *slotInner) Handle(req *rpc.Request) *rpc.Reply {
	if f.runs != nil {
		n := f.cur.Add(1)
		for p := f.peak.Load(); n > p && !f.peak.CompareAndSwap(p, n); p = f.peak.Load() {
		}
		f.runs[req.MsgID].Add(1)
		runtime.Gosched() // hold the slot long enough for others to queue
		f.cur.Add(-1)
	}
	return &f.rep
}

// TestSlotsRunOnCaller pins the scheduling model: the Controller owns no
// goroutines, an admitted request on an idle controller runs inline on
// its caller without allocating, and a finishing request hands its slot
// to a queued one without ever exceeding Concurrency.
func TestSlotsRunOnCaller(t *testing.T) {
	t.Run("no-goroutines", func(t *testing.T) {
		before := runtime.NumGoroutine()
		c := qos.New(&slotInner{}, qos.Config{
			Classify: classify, Concurrency: 8, Events: telemetry.NewEventLog(16),
		})
		defer c.Close()
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("qos.New started %d goroutines", after-before)
		}
	})

	t.Run("idle-path-allocs", func(t *testing.T) {
		inner := &slotInner{rep: rpc.Reply{Status: rpc.StatusOK}}
		c := qos.New(inner, qos.Config{
			Classify: func(*rpc.Request) (qos.Class, bool) {
				return qos.Class{Tenant: "part.1", Op: "read", Cost: 1}, true
			},
			Shed: true, Events: telemetry.NewEventLog(16),
		})
		defer c.Close()
		r := &rpc.Request{Proc: 1}
		c.Handle(r) // creates the tenant and the estimator entry
		if avg := testing.AllocsPerRun(200, func() {
			if rep := c.Handle(r); rep.Status != rpc.StatusOK {
				t.Fatalf("status %v", rep.Status)
			}
		}); avg != 0 {
			t.Fatalf("idle admitted Handle allocates %.1f times, want 0", avg)
		}
	})

	t.Run("hand-off", func(t *testing.T) {
		const tenants, callers, per = 3, 4, 100
		inner := &slotInner{
			rep:  rpc.Reply{Status: rpc.StatusOK},
			runs: make([]atomic.Int32, tenants*callers*per),
		}
		reg := telemetry.NewRegistry()
		c := qos.New(inner, qos.Config{
			Classify: classify, Concurrency: 2, Queue: 64, TenantQueue: 32, Metrics: reg,
			Events: telemetry.NewEventLog(16),
		})
		defer c.Close()
		var wg sync.WaitGroup
		for g := 0; g < tenants*callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					r := req(byte(g%tenants), 1)
					r.MsgID = uint64(g*per + i)
					if rep := c.Handle(r); rep.Status != rpc.StatusOK {
						t.Errorf("request %d: %v", r.MsgID, rep.Status)
					}
				}
			}(g)
		}
		wg.Wait()
		if peak := inner.peak.Load(); peak > 2 {
			t.Fatalf("%d requests ran at once, want at most Concurrency 2", peak)
		}
		for id := range inner.runs {
			if n := inner.runs[id].Load(); n != 1 {
				t.Fatalf("request %d ran %d times, want 1", id, n)
			}
		}
		for _, g := range []string{"qos.queue_depth", "qos.inflight"} {
			if v := reg.Gauge(g).Load(); v != 0 {
				t.Fatalf("%s = %d at rest, want 0", g, v)
			}
		}
	})
}
