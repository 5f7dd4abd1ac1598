package telemetry

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (queue depths, in-flight
// request counts). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry is a named collection of metrics. Metric accessors are
// get-or-create, so independent subsystems can share one registry
// without coordinating initialization; all methods are safe for
// concurrent use and the hot paths (updating a metric already in hand)
// are lock-free.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() int64),
	}
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter { return metric(r, r.counters, name) }

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge { return metric(r, r.gauges, name) }

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram { return metric(r, r.hists, name) }

// metric returns the metric registered under name in m, one of r's
// maps, creating it if needed.
func metric[T any](r *Registry, m map[string]*T, name string) *T {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = m[name]; !ok {
		v = new(T)
		m[name] = v
	}
	return v
}

// Func registers a pull-style gauge: fn is evaluated at snapshot time
// and reported alongside the gauges. It is how subsystems that already
// keep their own counters (the block cache, device queue depths) expose
// them without double counting. Re-registering a name replaces the
// callback.
func (r *Registry) Func(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Snapshot is a point-in-time copy of a registry's metrics, shaped for
// JSON interchange: `nasdd` serves it at /metrics, the drive returns it
// from the stats RPC, and nasdctl decodes and pretty-prints it.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric. Func metrics are evaluated here and
// land in Gauges. The snapshot is internally consistent per metric
// (each value is an atomic read) but not across metrics, which is the
// usual contract for low-overhead instrumentation.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)+len(r.funcs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, fn := range r.funcs {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Merge folds other into s: counters and gauges add, histograms merge
// bucket-by-bucket. Merging is how per-drive snapshots aggregate into a
// striped-system view (the Figure 7 scaling curves sum drive
// throughput the same way).
func (s *Snapshot) Merge(other Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]uint64)
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]int64)
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistogramSnapshot)
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	for name, v := range other.Gauges {
		s.Gauges[name] += v
	}
	for name, h := range other.Histograms {
		cur := s.Histograms[name]
		cur.Merge(h)
		s.Histograms[name] = cur
	}
}
