package telemetry

import "testing"

// qosSnapshot builds a snapshot with one tenant's op and QoS families,
// the shape a drive running the qos plane exports.
func qosSnapshot() Snapshot {
	reg := NewRegistry()
	reg.Counter("drive.part.7.op.read.calls").Add(120)
	reg.Counter("drive.part.7.op.read.bytes_out").Add(1 << 20)
	reg.Counter("drive.part.7.qos.shed").Add(5)
	reg.Counter("drive.part.7.qos.throttled").Add(11)
	reg.Counter("drive.part.7.qos.rejected").Add(2)
	reg.Gauge("drive.part.7.qos.queue_depth").Set(3)
	reg.Counter("drive.part.9.op.write.calls").Add(40)
	return reg.Snapshot()
}

func TestTenantSnapshotCarriesGauges(t *testing.T) {
	ts := TenantSnapshot(qosSnapshot(), 7)
	if got := ts.Counters["drive.qos.shed"]; got != 5 {
		t.Fatalf("drive.qos.shed = %d, want 5", got)
	}
	if got := ts.Gauges["drive.qos.queue_depth"]; got != 3 {
		t.Fatalf("drive.qos.queue_depth = %d, want 3", got)
	}
	if _, leaked := ts.Counters["drive.op.write.calls"]; leaked {
		t.Fatal("tenant 7 snapshot leaked tenant 9's write calls")
	}
}
