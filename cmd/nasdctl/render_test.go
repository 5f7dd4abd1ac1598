package main

import (
	"bytes"
	"strings"
	"testing"

	"nasd/internal/telemetry"
)

// qosSnapshot builds a snapshot with one tenant's op and QoS families,
// the shape a drive running the qos plane exports.
func qosSnapshot() telemetry.Snapshot {
	reg := telemetry.NewRegistry()
	reg.Counter("drive.part.7.op.read.calls").Add(120)
	reg.Counter("drive.part.7.op.read.bytes_out").Add(1 << 20)
	reg.Counter("drive.part.7.qos.shed").Add(5)
	reg.Counter("drive.part.7.qos.throttled").Add(11)
	reg.Counter("drive.part.7.qos.rejected").Add(2)
	reg.Gauge("drive.part.7.qos.queue_depth").Set(3)
	reg.Counter("drive.part.9.op.write.calls").Add(40)
	return reg.Snapshot()
}

func TestWriteTenantTableQoSColumns(t *testing.T) {
	var buf bytes.Buffer
	writeTenantTable(&buf, qosSnapshot(), "test scope")
	out := buf.String()
	for _, col := range []string{"shed", "thrtl", "rej", "queue"} {
		if !strings.Contains(out, col) {
			t.Fatalf("tenant table missing %q column:\n%s", col, out)
		}
	}
	var p7 string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "part.7") {
			p7 = line
		}
	}
	if p7 == "" {
		t.Fatalf("no part.7 row:\n%s", out)
	}
	f := strings.Fields(p7)
	// tenant ops errors MBin MBout p50 p99 shed thrtl rej queue
	if len(f) != 11 {
		t.Fatalf("part.7 row has %d fields, want 11: %q", len(f), p7)
	}
	if f[7] != "5" || f[8] != "11" || f[9] != "2" || f[10] != "3" {
		t.Fatalf("qos columns = %v, want shed=5 thrtl=11 rej=2 queue=3", f[7:])
	}

	// A snapshot with no per-tenant family renders nothing at all.
	buf.Reset()
	writeTenantTable(&buf, telemetry.NewRegistry().Snapshot(), "empty")
	if buf.Len() != 0 {
		t.Fatalf("tenant table for empty snapshot rendered %q", buf.String())
	}
}

// TestWriteExemplars smoke-checks the renderer links ops to trace IDs.
func TestWriteExemplars(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Counter("drive.op.read.calls").Add(10)
	r.Histogram("drive.op.read.svc_ns").ObserveTrace(12345, 987, telemetry.Now())
	var sb strings.Builder
	writeExemplars(&sb, opRows(r.Snapshot()))
	out := sb.String()
	if !strings.Contains(out, "987") || !strings.Contains(out, "read") {
		t.Fatalf("exemplar render missing op or trace ID:\n%s", out)
	}
}

// TestMergeEventsOrdering interleaves two drives' tails and checks the
// merge sorts by timestamp and stamps sources.
func TestMergeEventsOrdering(t *testing.T) {
	a := []telemetry.Event{
		{Seq: 1, UnixNano: 100, Subsystem: "drive", Name: "start"},
		{Seq: 2, UnixNano: 300, Subsystem: "needle", Name: "compaction"},
	}
	b := []telemetry.Event{
		{Seq: 1, UnixNano: 200, Subsystem: "journal", Name: "recovery"},
		{Seq: 2, UnixNano: 300, Subsystem: "drive", Name: "start"},
	}
	out := mergeEvents([][]telemetry.Event{a, b}, []string{"d1:7070", "d2:7070"})
	if len(out) != 4 {
		t.Fatalf("merged %d events, want 4", len(out))
	}
	wantOrder := []int64{100, 200, 300, 300}
	for i, e := range out {
		if e.UnixNano != wantOrder[i] {
			t.Fatalf("position %d has ts %d, want %d", i, e.UnixNano, wantOrder[i])
		}
		if e.Source == "" {
			t.Fatalf("position %d missing source: %+v", i, e)
		}
	}
	// Timestamp tie broken by source name: d1 before d2.
	if out[2].Source != "d1:7070" || out[3].Source != "d2:7070" {
		t.Fatalf("tie-break order wrong: %q then %q", out[2].Source, out[3].Source)
	}
}

// TestWriteEvents smoke-checks the text renderer.
func TestWriteEvents(t *testing.T) {
	var sb strings.Builder
	writeEvents(&sb, []telemetry.Event{
		{UnixNano: 1e9, Severity: telemetry.SevWarn, Subsystem: "journal", Name: "recovery", Detail: "replayed=3", Source: "d1:7070"},
	})
	out := sb.String()
	for _, want := range []string{"warn", "journal", "recovery", "replayed=3", "d1:7070"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered events missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	writeEvents(&sb, nil)
	if !strings.Contains(sb.String(), "no events") {
		t.Fatalf("empty render = %q", sb.String())
	}
}
