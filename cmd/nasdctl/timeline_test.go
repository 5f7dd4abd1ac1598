package main

import (
	"strings"
	"testing"

	"nasd/internal/telemetry"
)

func TestMergeSpansDedup(t *testing.T) {
	a := []telemetry.SpanRecord{{TraceID: 1, SpanID: 10}, {TraceID: 1, SpanID: 11}}
	b := []telemetry.SpanRecord{{TraceID: 1, SpanID: 11}, {TraceID: 1, SpanID: 12}}
	got := mergeSpans(a, b)
	if len(got) != 3 {
		t.Fatalf("merged %d spans, want 3", len(got))
	}
}

func TestWriteTimeline(t *testing.T) {
	spans := []telemetry.SpanRecord{
		{TraceID: 7, SpanID: 1, Name: "client.read", StartNS: 0, EndNS: 1000000},
		{TraceID: 7, SpanID: 2, Parent: 1, Name: "cheops.read.leg", StartNS: 100000, EndNS: 200000},
		{TraceID: 7, SpanID: 3, Parent: 1, Name: "cheops.read.leg", StartNS: 100000, EndNS: 210000},
		{TraceID: 7, SpanID: 4, Parent: 1, Name: "cheops.read.leg", StartNS: 100000, EndNS: 900000},
		// A long sibling of a different name: never compared to the legs.
		{TraceID: 7, SpanID: 6, Parent: 1, Name: "digest", StartNS: 0, EndNS: 950000},
		{TraceID: 8, SpanID: 5, Name: "other-trace", StartNS: 0, EndNS: 1},
	}
	var sb strings.Builder
	writeTimeline(&sb, 7, spans)
	out := sb.String()
	if !strings.Contains(out, "trace 7: 5 spans") {
		t.Fatalf("missing header:\n%s", out)
	}
	if strings.Contains(out, "other-trace") {
		t.Fatalf("timeline leaked another trace:\n%s", out)
	}
	if !strings.Contains(out, "straggler") {
		t.Fatalf("slow sibling not flagged:\n%s", out)
	}
	// The straggler flag must be on the 900us leg line only: not the
	// fast legs, and not the long digest span (a different name, so a
	// group of one — nothing to compare against).
	flagged := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "straggler") {
			continue
		}
		flagged++
		if !strings.Contains(line, "800µs") {
			t.Fatalf("straggler flagged on wrong line: %q", line)
		}
	}
	if flagged != 1 {
		t.Fatalf("%d straggler flags, want exactly 1:\n%s", flagged, out)
	}
}

func TestWriteTimelineOrphanPromotion(t *testing.T) {
	spans := []telemetry.SpanRecord{
		// Parent 99 is missing from the set (wrapped ring): still renders.
		{TraceID: 3, SpanID: 2, Parent: 99, Name: "drive.read", StartNS: 5, EndNS: 10},
	}
	var sb strings.Builder
	writeTimeline(&sb, 3, spans)
	if !strings.Contains(sb.String(), "drive.read") {
		t.Fatalf("orphan span not rendered:\n%s", sb.String())
	}
}
