package cheops

import (
	"math/rand"
	"strings"
	"testing"

	"nasd/internal/capability"
	"nasd/internal/drive"
	"nasd/internal/telemetry"
)

// TestStripedReadTrace is the acceptance scenario for the tracing
// plane: one traced read of a striped object must produce a single
// trace that spans the cheops fan-out (one leg per drive) and, on every
// drive it touched, a drive-side span tree with the Table 1 phase
// children. The merged set must render as one timeline.
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

	// Drive side: every drive holds a span tree for this trace — the
	// handler span plus its phase children — fetched both directly and
	// over the stats RPC.
	all := [][]telemetry.SpanRecord{mine, telemetry.ProcessSpans.ByTrace(tid)}
	for i, drv := range r.raw {
		ds := drv.Spans().ByTrace(tid)
		if len(ds) == 0 {
			t.Fatalf("drive %d recorded no spans for trace %d", i, tid)
		}
		// A 256 KB read over two stripes hits each drive more than once,
		// so group the phase children under their own handler span.
		handlers := map[uint64]telemetry.SpanRecord{}
		for _, s := range ds {
			if s.Name == "drive.read" {
				handlers[s.SpanID] = s
			}
		}
		if len(handlers) == 0 {
			t.Fatalf("drive %d has no drive.read span: %+v", i, ds)
		}
		phaseSum := map[uint64]int64{}
		for _, s := range ds {
			switch s.Name {
			case "digest", "object-system", "media":
				if _, ok := handlers[s.Parent]; !ok {
					t.Fatalf("drive %d phase %q parent %d is not a drive.read span", i, s.Name, s.Parent)
				}
				phaseSum[s.Parent] += int64(s.Dur())
			}
		}
		for id, h := range handlers {
			if sum := phaseSum[id]; sum <= 0 || sum > int64(h.Dur()) {
				t.Fatalf("drive %d span %d phase durations sum %d outside (0, %d]", i, id, sum, int64(h.Dur()))
			}
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

	// The merged set renders as one hierarchical timeline.
	var sb strings.Builder
	telemetry.WriteTimeline(&sb, tid, telemetry.MergeSpans(all...))
	out := sb.String()
	for _, want := range []string{"test.striped_read", "cheops.read", "cheops.read.leg", "drive.read", "object-system"} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged timeline missing %q:\n%s", want, out)
		}
	}
}
