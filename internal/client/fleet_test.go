package client

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// TestFleetAggregationRoundTrip runs four secure in-process drives,
// generates traffic for two tenants (partitions) under one client
// trace, then polls every drive over the stats RPC and checks the
// fleet aggregation end to end: merged counters equal the per-drive
// sum, the per-tenant split attributes exactly the ops each partition
// issued, the merged p99 exemplar names a trace resolvable back to
// drive-side spans, and each drive's event ring came along with its
// snapshot. The fleet table nasdctl renders from such a poll is tested
// in cmd/nasdctl.
func TestFleetAggregationRoundTrip(t *testing.T) {
	const nDrives = 4
	type node struct {
		cli    *Drive
		events *telemetry.EventLog
		keys   *crypt.Hierarchy
		master crypt.Key
		id     uint64
	}
	clientSpans := telemetry.NewSpanLog(512)
	var nodes []*node
	for i := 0; i < nDrives; i++ {
		master := crypt.NewRandomKey()
		events := telemetry.NewEventLog(64)
		drv, err := drive.NewFormat(blockdev.NewMemDisk(4096, 8192), drive.Config{
			ID: uint64(10 + i), Master: master, Secure: true, Events: events,
		})
		if err != nil {
			t.Fatal(err)
		}
		l := rpc.NewInProcListener(fmt.Sprintf("fleet%d", i))
		srv := drv.Serve(l)
		t.Cleanup(srv.Close)
		conn, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		cli := New(conn, uint64(10+i), uint64(3000+i), WithSecurity(true), WithSpans(clientSpans))
		t.Cleanup(func() { cli.Close() })
		nodes = append(nodes, &node{
			cli: cli, events: events, keys: crypt.NewHierarchy(master),
			master: master, id: uint64(10 + i),
		})
	}

	mint := func(n *node, part uint16, obj, ver uint64, rights capability.Rights) capability.Capability {
		kid, key, err := n.keys.CurrentWorkingKey(part)
		if err != nil {
			t.Fatal(err)
		}
		return capability.Mint(capability.Public{
			DriveID: n.id, Partition: part, Object: obj, ObjVer: ver,
			Rights: rights, Expiry: time.Now().Add(time.Hour).UnixNano(), Key: kid,
		}, key)
	}

	for _, n := range nodes {
		for _, part := range []uint16{1, 2} {
			if err := n.cli.CreatePartition(testCtx, crypt.KeyID{Type: crypt.MasterKey}, n.master, part, 0); err != nil {
				t.Fatal(err)
			}
			if err := n.keys.AddPartition(part); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Tenant traffic, all under one client root span so drive-side
	// exemplars carry its trace ID: partition 1 writes and reads three
	// objects per drive, partition 2 one.
	ctx, root := clientSpans.StartSpan(testCtx, "test.fleet")
	payload := bytes.Repeat([]byte("fleet"), 256)
	opsPerTenant := map[uint16]int{1: 3, 2: 1}
	for _, n := range nodes {
		for part, count := range opsPerTenant {
			for j := 0; j < count; j++ {
				cc := mint(n, part, 0, 0, capability.CreateObj)
				obj, err := n.cli.Create(ctx, &cc, part)
				if err != nil {
					t.Fatal(err)
				}
				wc := mint(n, part, obj, 1, capability.Write)
				if err := n.cli.Write(ctx, &wc, part, obj, 0, payload); err != nil {
					t.Fatal(err)
				}
				rc := mint(n, part, obj, 1, capability.Read)
				got, err := n.cli.Read(ctx, &rc, part, obj, 0, len(payload))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatal("read mismatch")
				}
			}
		}
	}
	root.End()
	tid := root.Context().TraceID

	// Poll every drive the way nasdctl fleet does: metrics plus the
	// event tail in one stats round trip per drive.
	var merged telemetry.Snapshot
	var sumWrites uint64
	for i, n := range nodes {
		sr, err := n.cli.ServerStats(testCtx, drive.StatsArgs{EventN: 32})
		if err != nil {
			t.Fatal(err)
		}
		if sr.DriveID != n.id {
			t.Fatalf("drive %d reported ID %d", i, sr.DriveID)
		}
		if len(sr.Events) == 0 {
			t.Fatalf("drive %d returned no events (its ring should hold at least its start event)", i)
		}
		merged.Merge(sr.Metrics)
		sumWrites += sr.Metrics.Counters["drive.op.write.calls"]
	}

	if got := merged.Counters["drive.op.write.calls"]; got != sumWrites || got != nDrives*4 {
		t.Fatalf("merged write calls = %d, want per-drive sum %d = %d", got, sumWrites, nDrives*4)
	}

	// Per-tenant attribution: both partitions present, each billed
	// exactly the ops it issued, fleet-wide.
	if parts := telemetry.TenantParts(merged); len(parts) != 2 || parts[0] != 1 || parts[1] != 2 {
		t.Fatalf("tenant partitions = %v, want [1 2]", parts)
	}
	for part, count := range opsPerTenant {
		ts := telemetry.TenantSnapshot(merged, part)
		want := uint64(nDrives * count)
		if got := ts.Counters["drive.op.write.calls"]; got != want {
			t.Fatalf("tenant %d write calls = %d, want %d", part, got, want)
		}
		if got := ts.Counters["drive.op.read.calls"]; got != want {
			t.Fatalf("tenant %d read calls = %d, want %d", part, got, want)
		}
		if ts.Counters["drive.op.read.bytes_out"] != want*uint64(len(payload)) {
			t.Fatalf("tenant %d bytes_out = %d", part, ts.Counters["drive.op.read.bytes_out"])
		}
		if h := ts.Histograms["drive.op.write.svc_ns"]; h.Count != want {
			t.Fatalf("tenant %d write histogram count = %d, want %d", part, h.Count, want)
		}
	}

	// The merged read histogram's p99 exemplar names the trace the
	// traffic ran under, and that trace resolves to drive-side spans —
	// the fleet-table-to-`nasdctl trace` drilldown.
	h := merged.Histograms["drive.op.read.svc_ns"]
	ex := h.ExemplarNear(0.99)
	if ex == nil {
		t.Fatal("merged read histogram retained no exemplar")
	}
	if ex.TraceID != tid {
		t.Fatalf("exemplar trace = %d, want the root trace %d", ex.TraceID, tid)
	}
	var spans []telemetry.SpanRecord
	for _, n := range nodes {
		sr, err := n.cli.ServerStats(testCtx, drive.StatsArgs{SpanTrace: ex.TraceID})
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, sr.Spans...)
	}
	if len(spans) == 0 {
		t.Fatalf("exemplar trace %d resolved to no drive-side spans", ex.TraceID)
	}
}
