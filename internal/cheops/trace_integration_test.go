package cheops

import (
	"math/rand"
	"testing"

	"nasd/internal/capability"
	"nasd/internal/drive"
	"nasd/internal/telemetry"
)

// TestStripedReadTrace is the acceptance scenario for the tracing
// plane: one traced read of a striped object must produce a single
// trace that spans the cheops fan-out (one leg per drive) and, on every
// drive it touched, a drive-side span tree with no synthesized children.
// The merged set must form one tree.
func TestStripedReadTrace(t *testing.T) {
	r := newRig(t, 4)
	id, err := r.mgr.Create(testCtx, Stripe0, 32<<10, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := OpenObject(r.mgr, r.drives, id, capability.Read|capability.Write)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256<<10) // two full stripes: every lane participates
	rand.New(rand.NewSource(9)).Read(data)
	if err := obj.WriteAt(testCtx, 0, data); err != nil {
		t.Fatal(err)
	}

	ctx, root := r.spans.StartSpan(testCtx, "test.striped_read")
	if _, err := obj.ReadAt(ctx, 0, len(data)); err != nil {
		t.Fatal(err)
	}
	root.End()
	tid := root.Context().TraceID

	// Manager side: one cheops.read span fanning out to >= stripe-width legs.
	mine := r.spans.ByTrace(tid)
	var readSpan telemetry.SpanRecord
	legs := 0
	for _, s := range mine {
		switch s.Name {
		case "cheops.read":
			readSpan = s
		case "cheops.read.leg":
			legs++
		}
	}
	if readSpan.SpanID == 0 {
		t.Fatalf("no cheops.read span in trace %d: %+v", tid, mine)
	}
	if legs < 4 {
		t.Fatalf("trace has %d cheops.read.leg spans, want >= 4 (one per drive)", legs)
	}

	// Drive side: every drive holds a span tree for this trace, fetched
	// both directly and over the stats RPC. No span stands for a Table 1
	// component: the cost split is registry counters, not intervals.
	all := [][]telemetry.SpanRecord{mine, telemetry.ProcessSpans.ByTrace(tid)}
	for i, drv := range r.raw {
		ds := drv.Spans().ByTrace(tid)
		if len(ds) == 0 {
			t.Fatalf("drive %d recorded no spans for trace %d", i, tid)
		}
		reads := 0
		for _, s := range ds {
			switch s.Name {
			case "drive.read":
				reads++
			case "digest", "object-system", "media":
				t.Fatalf("drive %d emitted a %q span under %d; the cost split is not an interval", i, s.Name, s.Parent)
			}
		}
		if reads == 0 {
			t.Fatalf("drive %d has no drive.read span: %+v", i, ds)
		}
		remote, err := r.drives[i].ServerStats(testCtx, drive.StatsArgs{SpanTrace: tid})
		if err != nil {
			t.Fatalf("drive %d ServerStats: %v", i, err)
		}
		if len(remote.Spans) != len(ds) {
			t.Fatalf("drive %d stats RPC returned %d spans, direct read %d", i, len(remote.Spans), len(ds))
		}
		all = append(all, ds)
	}

	// The merged set is one tree under the test's root span.
	merged := map[uint64]telemetry.SpanRecord{}
	for _, set := range all {
		for _, s := range set {
			merged[s.SpanID] = s
		}
	}
	names := map[string]bool{}
	for _, s := range merged {
		names[s.Name] = true
		if _, ok := merged[s.Parent]; !ok && s.SpanID != root.Context().SpanID {
			t.Fatalf("span %s (%d) hangs off %d, which is not in the trace", s.Name, s.SpanID, s.Parent)
		}
	}
	for _, want := range []string{"test.striped_read", "cheops.read", "cheops.read.leg", "drive.read"} {
		if !names[want] {
			t.Fatalf("merged trace has no %q span: %v", want, names)
		}
	}
}
