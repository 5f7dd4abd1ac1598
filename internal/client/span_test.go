package client

import (
	"bytes"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// TestSpanContextRoundTrip checks span propagation across a real TCP
// connection: the client's span context travels in the request header
// and the drive-side span comes back (via the stats RPC and direct
// inspection) as a child of the client span that issued the call, with
// Table 1 phase children beneath it.
func TestSpanContextRoundTrip(t *testing.T) {
	master := crypt.NewRandomKey()
	dev := blockdev.NewMemDisk(4096, 8192)
	driveSpans := telemetry.NewSpanLog(256)
	drv, err := drive.NewFormat(dev, drive.Config{ID: 7, Master: master, Secure: true, Spans: driveSpans})
	if err != nil {
		t.Fatal(err)
	}
	l, err := rpc.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := drv.Serve(l)
	t.Cleanup(srv.Close)
	conn, err := rpc.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	clientSpans := telemetry.NewSpanLog(256)
	cli := New(conn, 7, 1001, WithSecurity(true), WithSpans(clientSpans))
	t.Cleanup(func() { cli.Close() })

	fmKeys := crypt.NewHierarchy(master)
	if err := cli.CreatePartition(testCtx, crypt.KeyID{Type: crypt.MasterKey}, master, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := fmKeys.AddPartition(1); err != nil {
		t.Fatal(err)
	}
	mint := func(obj, ver uint64, rights capability.Rights) capability.Capability {
		kid, key, err := fmKeys.CurrentWorkingKey(1)
		if err != nil {
			t.Fatal(err)
		}
		return capability.Mint(capability.Public{
			DriveID: 7, Partition: 1, Object: obj, ObjVer: ver,
			Rights: rights, Expiry: time.Now().Add(time.Hour).UnixNano(), Key: kid,
		}, key)
	}

	cc := mint(0, 0, capability.CreateObj)
	obj, err := cli.Create(testCtx, &cc, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("span"), 1024)
	wc := mint(obj, 1, capability.Write)
	if err := cli.Write(testCtx, &wc, 1, obj, 0, data); err != nil {
		t.Fatal(err)
	}

	// The traced operation: a read under an explicit root span.
	ctx, root := clientSpans.StartSpan(testCtx, "test.root")
	rc := mint(obj, 1, capability.Read)
	got, err := cli.Read(ctx, &rc, 1, obj, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatch")
	}
	root.End()
	tid := root.Context().TraceID

	// Client side: the read op span is a child of the test root.
	var readSpan telemetry.SpanRecord
	for _, r := range clientSpans.ByTrace(tid) {
		if r.Name == "client.read" {
			readSpan = r
		}
	}
	if readSpan.SpanID == 0 {
		t.Fatalf("no client.read span in trace %d: %+v", tid, clientSpans.ByTrace(tid))
	}
	if readSpan.Parent != root.Context().SpanID {
		t.Fatalf("client.read parent %d, want root span %d", readSpan.Parent, root.Context().SpanID)
	}

	// Drive side: the handler span's parent is the client span ID that
	// crossed the wire, and no synthesized child hangs off the handler.
	sr, err := cli.ServerStats(testCtx, drive.StatsArgs{SpanTrace: tid})
	if err != nil {
		t.Fatal(err)
	}
	serverSpans := sr.Spans
	var driveSpan telemetry.SpanRecord
	for _, r := range serverSpans {
		if r.Name == "drive.read" {
			driveSpan = r
		}
	}
	if driveSpan.SpanID == 0 {
		t.Fatalf("no drive.read span came back over the stats RPC: %+v", serverSpans)
	}
	if driveSpan.Parent != readSpan.SpanID {
		t.Fatalf("drive.read parent %d, want client.read span %d", driveSpan.Parent, readSpan.SpanID)
	}
	for _, r := range serverSpans {
		switch r.Name {
		case "digest", "object-system", "media":
			t.Fatalf("drive emitted a %q span; the cost split is registry counters, not intervals", r.Name)
		}
	}
}
