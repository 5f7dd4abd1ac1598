package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"nasd/internal/telemetry"
)

// opKind names the client calls a workload issues, for the per-type
// latencies of the traced pass.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opGetAttr
	opCreate
	opRemove
	opFlush
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "getattr", "create", "remove", "flush"}

// meter collects what the generator learns about its own ops: how many
// were attempted, how many failed or did not verify, and, in the traced
// pass only, how long each client call took.
type meter struct {
	attempted, failed int
	opFailed          bool
	firstErr          error

	perCall bool
	epoch   time.Time
	calls   [numKinds][]uint32
}

// begin and end bracket one client call. Outside the traced pass they
// cost one branch.
func (m *meter) begin() int64 {
	if !m.perCall {
		return 0
	}
	return int64(time.Since(m.epoch))
}

func (m *meter) end(k opKind, t0 int64) {
	if m.perCall && len(m.calls[k]) < cap(m.calls[k]) {
		m.calls[k] = append(m.calls[k], clampNS(int64(time.Since(m.epoch))-t0))
	}
}

// fail marks the current op as failed.
func (m *meter) fail(err error) {
	m.opFailed = true
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// done closes one logical op and reports whether it was good.
func (m *meter) done() bool {
	m.attempted++
	ok := !m.opFailed
	if !ok {
		m.failed++
	}
	m.opFailed = false
	return ok
}

// checked counts one read-back check.
func (m *meter) checked(ok bool) {
	if !ok {
		m.opFailed = true
	}
	m.done()
}

func clampNS(ns int64) uint32 {
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ns)
}

// window is one timed stretch of the closed loop.
type window struct {
	ops, good int
	payload   int64
	wall      time.Duration
	cpu       time.Duration
	lat       []uint32 // ns per logical op, all op types pooled
	mallocs   uint64
	allocated uint64
	gcCycles  uint32
	gcPause   time.Duration
}

func (w window) opsPerSec() float64 { return float64(w.good) / w.wall.Seconds() }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opIDBase keeps the benchmark's trace ids apart from the ids the
// program allocates for itself.
const opIDBase = 0x6265_0000_0000_0000

// runWindow drives the one closed-loop caller for d, starting at op
// index *next. lat must have its capacity allocated up front: the loop
// allocates nothing of its own, so allocs_per_op counts the program.
// With a tracer it wraps each op in a root span and hands the op's id
// to the client through the request-id context, the path by which the
// client already stamps rpc.Request.Trace.
func runWindow(ctx context.Context, st stepper, m *meter, d time.Duration, lat []uint32, next *int, tr *tracer) window {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	w := window{lat: lat[:0]}
	start := time.Now()
	for len(w.lat) < cap(w.lat) {
		t0 := time.Now()
		if t0.Sub(start) >= d {
			break
		}
		i := *next
		*next++
		var n int
		if tr == nil {
			n = st.step(ctx, m, i)
		} else {
			if tr.full() {
				break
			}
			id := opIDBase + uint64(i)
			s0 := tr.now()
			n = st.step(telemetry.WithExplicitRequestID(ctx, id), m, i)
			tr.emit(span{start: s0, end: tr.now(), op: id, drive: -1, kind: spanOp})
		}
		w.lat = append(w.lat, clampNS(int64(time.Since(t0))))
		w.ops++
		if m.done() {
			w.good++
			w.payload += int64(n)
		}
	}
	w.wall = time.Since(start)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.allocated = after.TotalAlloc - before.TotalAlloc
	w.gcCycles = after.NumGC - before.NumGC
	w.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return w
}

// quantile returns the q-th quantile of sorted in microseconds.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / 1e3
}

func sortedCopy(v []uint32) []uint32 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// latCapacity sizes a latency recorder for d: room for 200 000 ops/s,
// five times what the fastest workload does today.
func latCapacity(d time.Duration) int { return int(d.Seconds()*200_000) + 1024 }

// A run sets its stack up again, up to config.setups times, while the
// set-ups so far took less than setupBudget together: setup_s is their
// median and the last stack is the one measured. The cpu-bound set-up
// (small_read_8k, a quarter second) is the noisy one and gets five; a
// set-up on the modelled medium takes seconds, most of it paced device
// time, and repeats within a few percent on its own.
const (
	defaultSetups = 5
	setupBudget   = 2 * time.Second
)

type config struct {
	seed     uint64
	seconds  time.Duration
	warmup   time.Duration
	traceOut string
	// scale shrinks the data sets and caches for the smoke test; a
	// measuring run leaves it at 1.
	scale int
	// setups bounds the set-up repeats (see setupBudget).
	setups int
	// corrupt, when set, is called after set-up with the stack; the
	// smoke test uses it to damage a block and watch ok_ratio fall.
	corrupt func(stepper)
}

type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	firstErr  error
	values    map[string]float64
	notes     []string // extra lines for the human table
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runEndToEnd measures the ten end-to-end metrics with no interposer in
// the stack.
func runEndToEnd(ctx context.Context, wl workload, cfg config) (result, error) {
	runtime.GOMAXPROCS(wl.procs)
	var st stepper
	var setups []float64
	var spent time.Duration
	for i := 0; i < cfg.setups && (i == 0 || spent < setupBudget); i++ {
		if st != nil {
			st.base().close()
			st = nil
			runtime.GC()
		}
		t0 := time.Now()
		s, err := wl.build(ctx, cfg.seed, nil, cfg.scale)
		if err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
		st = s
	}
	defer st.base().close()
	if cfg.corrupt != nil {
		cfg.corrupt(st)
	}

	m := &meter{}
	next := 0
	lat := make([]uint32, 0, latCapacity(max(cfg.seconds, cfg.warmup)))
	runWindow(ctx, st, m, cfg.warmup, lat, &next, nil)
	runtime.GC()
	w := runWindow(ctx, st, m, cfg.seconds, lat, &next, nil)

	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	st.readBack(ctx, m)

	if w.good == 0 {
		return result{}, fmt.Errorf("%s: no op completed: %v", wl.name, m.firstErr)
	}
	sorted := sortedCopy(w.lat)
	good := float64(w.good)
	res := result{
		workload: wl.name, correct: m.failed == 0, attempted: m.attempted, failed: m.failed, firstErr: m.firstErr,
		values: map[string]float64{
			"ops_per_s":          w.opsPerSec(),
			"mb_per_s":           float64(w.payload) / mib / w.wall.Seconds(),
			"lat_p50_us":         quantile(sorted, 0.50),
			"lat_p99_us":         quantile(sorted, 0.99),
			"cpu_us_per_op":      float64(w.cpu.Microseconds()) / good,
			"allocs_per_op":      float64(w.mallocs) / good,
			"alloc_bytes_per_op": float64(w.allocated) / good,
			"live_heap_mb":       float64(ms.HeapAlloc) / mib,
			"ok_ratio":           float64(m.attempted-m.failed) / float64(m.attempted),
			"setup_s":            median(setups),
		},
	}
	res.notes = append(res.notes, fmt.Sprintf("%d ops in %.2fs, %d checks after the window; p40 %.1f us, p60 %.1f us, p90 %.1f us; set-ups %.3v s",
		w.ops, w.wall.Seconds(), m.attempted-next, quantile(sorted, 0.40), quantile(sorted, 0.60), quantile(sorted, 0.90), setups))
	return res, nil
}

// runTraced measures the per-layer metrics: one stack with the three
// interposers in it, an untraced stretch for the base rate, then the
// traced pass.
func runTraced(ctx context.Context, wl workload, cfg config) (result, error) {
	runtime.GOMAXPROCS(wl.procs)
	half := cfg.seconds / 2
	tr := newTracer(1 << 20)
	st, err := wl.build(ctx, cfg.seed, tr, cfg.scale)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	r := st.base()
	defer r.close()

	m := &meter{epoch: time.Now()}
	for k := range m.calls {
		m.calls[k] = make([]uint32, 0, latCapacity(half))
	}
	next := 0
	lat := make([]uint32, 0, latCapacity(max(half, cfg.warmup)))
	runWindow(ctx, st, m, cfg.warmup, lat, &next, nil)
	runtime.GC()
	base := runWindow(ctx, st, m, half, lat, &next, nil)

	before, flushes0 := r.snapshot(), r.deviceFlushes()
	m.perCall = true
	tr.on.Store(true)
	w := runWindow(ctx, st, m, half, lat, &next, tr)
	tr.on.Store(false)
	m.perCall = false
	after, flushes := r.snapshot(), r.deviceFlushes()-flushes0

	if w.good == 0 || base.good == 0 {
		return result{}, fmt.Errorf("%s: no op completed: %v", wl.name, m.firstErr)
	}
	spans := tr.recorded()
	ss := analyse(spans)
	values := layerMetrics(before, after, ss, w, m, len(r.drives), flushes)
	values["trace.overhead_pct"] = (base.opsPerSec() - w.opsPerSec()) / base.opsPerSec() * 100
	if len(r.drives) > 1 {
		// Several drives mean cheops sits above the client stubs. It
		// takes concrete client.Drive values, so nothing can be
		// interposed between the two: what an op spends above the wire
		// is cheops and client together.
		values["cheops.self_us_per_op"] = values["client.self_us_per_op"]
		values["client.self_us_per_op"] = 0
		values["cheops.legs_per_op"] = ss.drivesPerOp
		values["cheops.leg_skew_us_p50"] = ss.legSkewP50
	}
	if t, ok := st.(interface{ overTCP() (func(), error) }); ok {
		restore, err := t.overTCP()
		if err != nil {
			return result{}, fmt.Errorf("%s: tcp repeat: %w", wl.name, err)
		}
		tcp := runWindow(ctx, st, m, min(3*time.Second, half), lat, &next, nil)
		restore()
		if tcp.good > 0 {
			values["rpc.tcp_ops_per_s"] = tcp.opsPerSec()
			values["rpc.tcp_cpu_us_per_op"] = float64(tcp.cpu.Microseconds()) / float64(tcp.good)
		}
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, spans, ss.parents); err != nil {
			return result{}, err
		}
	}
	res := result{
		workload: wl.name, correct: m.failed == 0, attempted: m.attempted, failed: m.failed, firstErr: m.firstErr,
		values: values,
	}
	res.notes = append(res.notes, fmt.Sprintf("traced %d ops, %d spans (%d handler spans without a wire span), base %.1f ops/s, traced %.1f ops/s",
		w.ops, len(spans), ss.unmatchedHandler, base.opsPerSec(), w.opsPerSec()))
	return res, nil
}
