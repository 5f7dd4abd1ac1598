package cheops

import "nasd/internal/telemetry"

// cheopsTel carries the storage manager's metrics: how wide striped
// transfers fan out (the parallelism behind Figure 9's scaling), and
// how often the redundancy machinery — degraded reads, RAID-5
// read-modify-write, component reconstruction — actually runs.
type cheopsTel struct {
	reg             *telemetry.Registry
	events          *telemetry.EventLog  // structured events (breaker transitions, degraded ops, repairs)
	degradedReads   *telemetry.Counter   // reads served by reconstruction around a failed component
	degradedWrites  *telemetry.Counter   // redundant writes that skipped a failed component (repair logged)
	failovers       *telemetry.Counter   // legs that fell over to a degraded path mid-operation
	capRenewals     *telemetry.Counter   // expired component capabilities renewed transparently
	breakerOpens    *telemetry.Counter   // circuit breakers tripped open
	breakerProbes   *telemetry.Counter   // half-open probes admitted
	rmwWrites       *telemetry.Counter   // RAID-5 small-write read-modify-write cycles
	reconstructions *telemetry.Counter   // whole-component rebuilds (ReplaceComponent)
	backpressure    *telemetry.Counter   // legs answered StatusRetryLater (drive alive, shedding)
	readFanout      *telemetry.Histogram // spans per ReadAt (drive-parallel fan-out width)
	writeFanout     *telemetry.Histogram // spans per striped/mirrored WriteAt
}

func newCheopsTel(reg *telemetry.Registry, events *telemetry.EventLog) *cheopsTel {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if events == nil {
		events = telemetry.Events
	}
	return &cheopsTel{
		reg:             reg,
		events:          events,
		degradedReads:   reg.Counter("cheops.degraded_reads"),
		degradedWrites:  reg.Counter("cheops.degraded_writes"),
		failovers:       reg.Counter("cheops.failovers"),
		capRenewals:     reg.Counter("cheops.cap_renewals"),
		breakerOpens:    reg.Counter("cheops.breaker_opens"),
		breakerProbes:   reg.Counter("cheops.breaker_probes"),
		rmwWrites:       reg.Counter("cheops.rmw_writes"),
		reconstructions: reg.Counter("cheops.reconstructions"),
		backpressure:    reg.Counter("cheops.backpressure"),
		readFanout:      reg.Histogram("cheops.read_fanout"),
		writeFanout:     reg.Histogram("cheops.write_fanout"),
	}
}

// Metrics returns the manager's telemetry registry ("cheops.*" names).
// Objects opened through this manager record into the same registry, so
// one snapshot covers both the control plane and client-side data paths.
func (m *Manager) Metrics() *telemetry.Registry { return m.tel.reg }
