package blockdev

import (
	"sync"
	"sync/atomic"
	"time"

	"nasd/internal/telemetry"
)

// Instrumented wraps a Device with media-level observability: queue
// depth (operations currently inside the device), cumulative busy time,
// per-operation latency histograms, and read/write counts. It is the
// measurement point for the "media" component of the paper's Table 1
// cost split — the drive subtracts the device's busy-time delta across
// a request from the request's total service time to separate
// object-system work from media work.
type Instrumented struct {
	dev   Device
	depth atomic.Int64
	busy  atomic.Int64 // cumulative nanoseconds inside the device

	reads   *telemetry.Counter
	writes  *telemetry.Counter
	readNS  *telemetry.Histogram
	writeNS *telemetry.Histogram

	spans *telemetry.SpanLog
	curMu sync.Mutex
	cur   telemetry.SpanContext // zero: untraced
}

var keyBlock = telemetry.NewKey("block")

// Instrument wraps dev, publishing metrics into reg under the
// "blockdev." prefix. reg may be nil when only BusyNanos/QueueDepth are
// wanted.
func Instrument(dev Device, reg *telemetry.Registry) *Instrumented {
	i := &Instrumented{dev: dev}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	i.reads = reg.Counter("blockdev.reads")
	i.writes = reg.Counter("blockdev.writes")
	i.readNS = reg.Histogram("blockdev.read_ns")
	i.writeNS = reg.Histogram("blockdev.write_ns")
	reg.Func("blockdev.queue_depth", i.QueueDepth)
	reg.Func("blockdev.busy_ns", i.BusyNanos)
	return i
}

// WithSpanLog makes the device record one span per device call into l
// whenever a trace context is set (see SetTraceContext). Returns i for
// chaining.
func (i *Instrumented) WithSpanLog(l *telemetry.SpanLog) *Instrumented {
	i.spans = l
	return i
}

// SetTraceContext sets the ambient span context that per-I/O spans
// attach to; a zero context clears it. The object store has no
// per-request plumbing down to the device, so the drive sets this
// around request dispatch instead. Like the busy-time delta used for
// the media split, attribution is exact when requests are serialized at
// the media and approximate when they interleave.
func (i *Instrumented) SetTraceContext(sc telemetry.SpanContext) {
	i.curMu.Lock()
	i.cur = sc
	i.curMu.Unlock()
}

// startSpan opens a device-call span under the trace context, or the
// zero span when none is set.
func (i *Instrumented) startSpan(name string, block int64) telemetry.Span {
	if i.spans == nil {
		return telemetry.Span{}
	}
	i.curMu.Lock()
	sc := i.cur
	i.curMu.Unlock()
	if sc.TraceID == 0 {
		return telemetry.Span{}
	}
	sp := i.spans.Start(sc, name)
	sp.Int(keyBlock, block)
	return sp
}

// BusyNanos returns cumulative nanoseconds spent inside the wrapped
// device across all operations. Concurrent operations accumulate
// concurrently, so this is device busy-time in the utilization-law
// sense only when access is serialized (one spindle), which is how the
// object store drives it.
func (i *Instrumented) BusyNanos() int64 { return i.busy.Load() }

// QueueDepth returns the number of operations currently inside the
// device.
func (i *Instrumented) QueueDepth() int64 { return i.depth.Load() }

// BlockSize implements Device.
func (i *Instrumented) BlockSize() int { return i.dev.BlockSize() }

// Blocks implements Device.
func (i *Instrumented) Blocks() int64 { return i.dev.Blocks() }

// ReadBlock implements Device.
func (i *Instrumented) ReadBlock(b int64, buf []byte) error { return readOne(i, b, buf) }

// WriteBlock implements Device.
func (i *Instrumented) WriteBlock(b int64, data []byte) error { return writeOne(i, b, data) }

// ReadBlocks implements Device: one queue-depth excursion, one latency
// observation and one span per call, counted as its block count of
// reads.
func (i *Instrumented) ReadBlocks(start64 int64, buf []byte) error {
	sp := i.startSpan("blockdev.read", start64)
	i.depth.Add(1)
	start := time.Now()
	err := i.dev.ReadBlocks(start64, buf)
	d := time.Since(start)
	i.busy.Add(int64(d))
	i.depth.Add(-1)
	i.readNS.ObserveDuration(d)
	sp.End()
	if err == nil {
		i.reads.Add(uint64(len(buf) / i.dev.BlockSize()))
	}
	return err
}

// WriteBlocks implements Device.
func (i *Instrumented) WriteBlocks(start64 int64, data []byte) error {
	sp := i.startSpan("blockdev.write", start64)
	i.depth.Add(1)
	start := time.Now()
	err := i.dev.WriteBlocks(start64, data)
	d := time.Since(start)
	i.busy.Add(int64(d))
	i.depth.Add(-1)
	i.writeNS.ObserveDuration(d)
	sp.End()
	if err == nil {
		i.writes.Add(uint64(len(data) / i.dev.BlockSize()))
	}
	return err
}

// Flush implements Device.
func (i *Instrumented) Flush() error {
	i.depth.Add(1)
	start := time.Now()
	err := i.dev.Flush()
	i.busy.Add(int64(time.Since(start)))
	i.depth.Add(-1)
	return err
}
