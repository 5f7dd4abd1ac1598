package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"nasd/internal/capability"
	"nasd/internal/drive"
	"nasd/internal/telemetry"
)

// TestTelemetryEndToEnd drives a secure client/drive pair and checks
// the aggregate half of the observability story: per-op drive counters
// with the digest/object split, RPC-plane counters sharing the
// registry, cache hit counters, and the stats RPC that carries it all
// back. TestRequestTail covers the per-request half.
func TestTelemetryEndToEnd(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)

	cc := r.mint(t, 1, 0, 0, capability.CreateObj)
	obj, err := r.cli.Create(testCtx, &cc, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("telemetry"), 512)
	wc := r.mint(t, 1, obj, 1, capability.Write)
	if err := r.cli.Write(testCtx, &wc, 1, obj, 0, data); err != nil {
		t.Fatal(err)
	}

	rc := r.mint(t, 1, obj, 1, capability.Read)
	before, err := r.cli.ServerStats(testCtx, drive.StatsArgs{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // second read is a guaranteed cache hit
		got, err := r.cli.Read(testCtx, &rc, 1, obj, 0, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read returned wrong data")
		}
	}

	sr, err := r.cli.ServerStats(testCtx, drive.StatsArgs{})
	if err != nil {
		t.Fatal(err)
	}
	m := sr.Metrics
	if m.Counters["drive.op.read.calls"] < 2 {
		t.Fatalf("drive.op.read.calls = %d, want >= 2", m.Counters["drive.op.read.calls"])
	}
	if m.Counters["drive.op.read.digest_ns"] == 0 {
		t.Fatal("secure reads must accrue digest time")
	}
	if m.Counters["drive.op.read.bytes_out"] < uint64(2*len(data)) {
		t.Fatalf("drive.op.read.bytes_out = %d", m.Counters["drive.op.read.bytes_out"])
	}
	if n, b := m.Counters["drive.op.write.calls"], m.Counters["drive.op.write.bytes_in"]; n != 1 || b != uint64(len(data)) {
		t.Fatalf("drive.op.write: %d calls, %d bytes_in; want 1 call of %d bytes", n, b, len(data))
	}
	if h := m.Histograms["drive.op.read.svc_ns"]; h.Count < 2 || h.Sum <= 0 {
		t.Fatalf("drive.op.read.svc_ns: %+v", h)
	}
	// The RPC server shares the registry and names ops via drive.Op.
	if m.Counters["rpc.server.op.read.calls"] < 2 {
		t.Fatalf("rpc.server.op.read.calls = %d, want >= 2", m.Counters["rpc.server.op.read.calls"])
	}
	// Cache hits incremented across the two reads of the same blocks.
	if m.Gauges["drive.cache.hits"] <= before.Metrics.Gauges["drive.cache.hits"] {
		t.Fatalf("cache hits did not increase: %d -> %d",
			before.Metrics.Gauges["drive.cache.hits"], m.Gauges["drive.cache.hits"])
	}

	// Client-side registry carries the RPC client family.
	cs := r.cli.Metrics().Snapshot()
	if cs.Counters["rpc.client.calls"] == 0 {
		t.Fatal("client registry recorded no RPC calls")
	}
}

// TestRequestTail: "the last N requests this drive served" is answered
// from the span log. Sixteen requests from eight goroutines, one of
// them failing on purpose, come back from the stats RPC as exactly
// sixteen handler spans: named drive.<op>, oldest first, each carrying
// its status and byte counts, with the client's request ID as the trace
// ID. /trace?n= serves the same records.
func TestRequestTail(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	cc := r.mint(t, 1, 0, 0, capability.CreateObj)
	obj, err := r.cli.Create(testCtx, &cc, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("tail"), 1024)
	rw := r.mint(t, 1, obj, 1, capability.Read|capability.Write|capability.GetAttr)
	// With mkpart and create, the third request the tail must cut off.
	if err := r.cli.Write(testCtx, &rw, 1, obj, 0, data); err != nil {
		t.Fatal(err)
	}

	readAs := func(ctx context.Context, cp *capability.Capability) error {
		_, err := r.cli.Read(ctx, cp, 1, obj, 0, len(data))
		return err
	}
	read := func() error { return readAs(testCtx, &rw) }
	write := func() error { return r.cli.Write(testCtx, &rw, 1, obj, 0, data) }
	getattr := func() error {
		_, err := r.cli.GetAttr(testCtx, &rw, 1, obj)
		return err
	}
	reqID := telemetry.NextSpanID()
	shared := telemetry.WithExplicitRequestID(testCtx, reqID)
	writeOnly := r.mint(t, 1, obj, 1, capability.Write)
	workers := [8][2]func() error{
		{func() error { return readAs(shared, &rw) }, func() error { return readAs(shared, &rw) }},
		{func() error {
			if err := readAs(testCtx, &writeOnly); err == nil {
				return errors.New("read under a write-only capability succeeded")
			}
			return nil
		}, getattr},
		{write, read}, {getattr, write},
		{write, read}, {getattr, write},
		{write, read}, {getattr, write},
	}
	want := map[string]int{"drive.read": 6, "drive.write": 6, "drive.getattr": 4}
	var wg sync.WaitGroup
	for _, ops := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range ops {
				if err := op(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	// HTTP first: the stats request below is itself a served request.
	rec := httptest.NewRecorder()
	telemetry.TraceHandler(r.drv.Spans()).ServeHTTP(rec, httptest.NewRequest("GET", "/trace?n=16", nil))
	var overHTTP []telemetry.SpanRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &overHTTP); err != nil {
		t.Fatal(err)
	}
	sr, err := r.cli.ServerStats(testCtx, drive.StatsArgs{TraceN: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Spans) != 16 || len(overHTTP) != 16 {
		t.Fatalf("tail holds %d records over RPC and %d over HTTP, want 16 of each", len(sr.Spans), len(overHTTP))
	}
	got := map[string]int{}
	failed, sharedID := 0, 0
	for i, s := range sr.Spans {
		if s.SpanID != overHTTP[i].SpanID {
			t.Errorf("record %d: span %x over RPC, %x over HTTP", i, s.SpanID, overHTTP[i].SpanID)
		}
		if !strings.HasPrefix(s.Name, telemetry.RequestSpanPrefix) {
			t.Errorf("record %d is %q, not a handler span", i, s.Name)
		}
		got[s.Name]++
		if i > 0 && s.EndNS < sr.Spans[i-1].EndNS {
			t.Errorf("record %d ended at %d, before record %d at %d", i, s.EndNS, i-1, sr.Spans[i-1].EndNS)
		}
		note := map[string]string{}
		for _, a := range s.Annotations {
			note[a.Key] = a.Value
		}
		for _, k := range []string{"status", "bytes_in", "bytes_out"} {
			if note[k] == "" {
				t.Errorf("record %d (%s) has no %s annotation: %v", i, s.Name, k, s.Annotations)
			}
		}
		if note["status"] != "ok" {
			failed++
			if s.Name != "drive.read" || note["status"] != "auth-failure" {
				t.Errorf("failed record is %s with status %q, want drive.read with auth-failure", s.Name, note["status"])
			}
		}
		if s.TraceID == reqID {
			sharedID++
			if s.Name != "drive.read" {
				t.Errorf("request ID %d is on %s, want drive.read", reqID, s.Name)
			}
		}
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("tail holds %d %s records, want %d (all: %v)", got[name], name, n, got)
		}
	}
	if failed != 1 {
		t.Errorf("%d records have a status other than ok, want the one read sent without Read rights", failed)
	}
	if sharedID != 2 {
		t.Errorf("%d records carry request ID %d, want the 2 reads issued under it", sharedID, reqID)
	}
}
