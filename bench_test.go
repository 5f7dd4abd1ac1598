package nasd_test

// One benchmark per table and figure in the paper's evaluation (each
// regenerates the experiment through internal/experiments), plus
// microbenchmarks of the functional hot paths: keyed digests,
// capability validation, codec, object store, and the full RPC drive
// path. Run with: go test -bench=. -benchmem
//
// Ablations at the bottom quantify the design choices DESIGN.md calls
// out: security on versus off (the paper ran with security disabled),
// and DCE-class versus lean RPC cost models.

import (
	"context"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/experiments"
	"nasd/internal/mining"
	"nasd/internal/object"
	"nasd/internal/qos"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// --- Table/figure regeneration benchmarks ---------------------------------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, true)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig4(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkTable1(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkFig6(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig9(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkAndrew(b *testing.B)      { benchExperiment(b, "andrew") }
func BenchmarkActiveDisks(b *testing.B) { benchExperiment(b, "active") }

// --- Functional microbenchmarks --------------------------------------------

func BenchmarkMACVerify(b *testing.B) {
	key := crypt.NewRandomKey()
	msg := make([]byte, 256)
	d := crypt.MAC(key, msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !crypt.Verify(key, msg, d) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkCapabilityValidate(b *testing.B) {
	h := crypt.NewHierarchy(crypt.NewRandomKey())
	if err := h.AddPartition(1); err != nil {
		b.Fatal(err)
	}
	kid, key, _ := h.CurrentWorkingKey(1)
	pub := capability.Public{
		DriveID: 1, Partition: 1, Object: 42, ObjVer: 1,
		Rights: capability.Read, Expiry: time.Now().Add(time.Hour).UnixNano(), Key: kid,
	}
	cap := capability.Mint(pub, key)
	body := make([]byte, 128)
	dig := cap.SignRequest(body)
	chk := capability.Check{DriveID: 1, Part: 1, Object: 42, ObjVer: 1, Op: capability.Read, Now: time.Now()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := capability.Validate(pub, body, dig, chk, h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRequestCodec(b *testing.B) {
	req := &rpc.Request{
		Proc: 1, Cap: make([]byte, 59), Args: make([]byte, 26),
		Data: make([]byte, 8192), Nonce: crypt.Nonce{Client: 1, Counter: 7},
	}
	b.SetBytes(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire := rpc.EncodeRequest(req)
		if _, err := rpc.DecodeMessage(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func newBenchStore(b *testing.B) *object.Store {
	b.Helper()
	dev := blockdev.NewMemDisk(4096, 1<<16)
	st, err := object.Format(dev, object.Config{CacheBlocks: 4096})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.CreatePartition(1, 0); err != nil {
		b.Fatal(err)
	}
	return st
}

func BenchmarkObjectWrite64K(b *testing.B) {
	st := newBenchStore(b)
	id, _ := st.Create(1)
	data := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i%64) * (64 << 10)
		if err := st.Write(1, id, off, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObjectRead64K(b *testing.B) {
	st := newBenchStore(b)
	id, _ := st.Create(1)
	if err := st.Write(1, id, 0, make([]byte, 4<<20)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i%64) * (64 << 10)
		if _, err := st.Read(1, id, off, 64<<10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeqWriteJournalOn streams 64 KB writes into one object,
// wrapping every 4 MB with a Flush — the metadata journal's worst
// sequential-write case, since every write journals (and group-commits)
// an onode image and every flush journals the refcount batch (DESIGN.md
// §7).
func BenchmarkSeqWriteJournalOn(b *testing.B) {
	dev := blockdev.NewMemDisk(4096, 32768)
	st, err := object.Format(dev, object.Config{CacheBlocks: 4096})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.CreatePartition(1, 0); err != nil {
		b.Fatal(err)
	}
	id, err := st.Create(1)
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 64 << 10
	const passChunks = (4 << 20) / chunk
	data := make([]byte, chunk)
	b.SetBytes(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i%passChunks) * chunk
		if err := st.Write(1, id, off, data); err != nil {
			b.Fatal(err)
		}
		if i%passChunks == passChunks-1 {
			if err := st.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkObjectSnapshot(b *testing.B) {
	st := newBenchStore(b)
	id, _ := st.Create(1)
	if err := st.Write(1, id, 0, make([]byte, 1<<20)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := st.VersionObject(1, id)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := st.Remove(1, snap); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// driveRig serves a drive over the in-process transport for end-to-end
// RPC benchmarks.
func driveRig(b testing.TB, secure bool) (*client.Drive, capability.Capability, uint64) {
	return driveRigWith(b, secure, false)
}

// driveRigWith is driveRig, and with qosFront it is the stack bench/'s
// small_read_8k reads through: a qos.Controller classifying by
// drive.QoSClassify in front of the drive, and an instrumented device
// recording media spans.
func driveRigWith(b testing.TB, secure, qosFront bool) (*client.Drive, capability.Capability, uint64) {
	b.Helper()
	master := crypt.NewRandomKey()
	var dev blockdev.Device = blockdev.NewMemDisk(4096, 1<<16)
	cfg := drive.Config{ID: 1, Master: master, Secure: secure}
	if qosFront {
		cfg.Metrics = telemetry.NewRegistry()
		cfg.Spans = telemetry.NewSpanLog(telemetry.DefaultSpanLogSize)
		idev := blockdev.Instrument(dev, cfg.Metrics).WithSpanLog(cfg.Spans)
		dev, cfg.Media = idev, idev
	}
	drv, err := drive.NewFormat(dev, cfg)
	if err != nil {
		b.Fatal(err)
	}
	l := rpc.NewInProcListener("bench")
	if qosFront {
		ctl := qos.New(drv, qos.Config{Classify: drive.QoSClassify, Shed: true, Metrics: cfg.Metrics})
		srv := rpc.NewServer(ctl, rpc.WithMetrics(cfg.Metrics))
		go srv.Serve(l)
		b.Cleanup(func() { srv.Close(); ctl.Close() })
	} else {
		srv := drv.Serve(l)
		b.Cleanup(srv.Close)
	}
	if err := drv.Store().CreatePartition(1, 0); err != nil {
		b.Fatal(err)
	}
	if err := drv.Keys().AddPartition(1); err != nil {
		b.Fatal(err)
	}
	obj, err := drv.Store().Create(1)
	if err != nil {
		b.Fatal(err)
	}
	if err := drv.Store().Write(1, obj, 0, make([]byte, 4<<20)); err != nil {
		b.Fatal(err)
	}
	conn, err := l.Dial()
	if err != nil {
		b.Fatal(err)
	}
	cli := client.New(conn, 1, 99, client.WithSecurity(secure))
	b.Cleanup(func() { cli.Close() })
	kid, key, _ := drv.Keys().CurrentWorkingKey(1)
	cap := capability.Mint(capability.Public{
		DriveID: 1, Partition: 1, Object: obj, ObjVer: 1,
		Rights: capability.Read | capability.Write,
		Expiry: time.Now().Add(time.Hour).UnixNano(), Key: kid,
	}, key)
	return cli, cap, obj
}

func benchDriveRead(b *testing.B, secure bool, size int) {
	cli, cap, obj := driveRig(b, secure)
	// ReadInto is the steady-state client read path: reply frames are
	// recycled into the buffer pool instead of falling to the GC.
	dst := make([]byte, size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i%32) * uint64(size)
		if _, err := cli.ReadInto(context.Background(), &cap, 1, obj, off, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the full NASD request path with and without the security
// protocol, at the paper's two interesting sizes. The delta is the cost
// of the capability architecture in software — the quantity the paper
// argues belongs in drive ASIC hardware.
func BenchmarkDriveReadSecure8K(b *testing.B)     { benchDriveRead(b, true, 8<<10) }
func BenchmarkDriveReadInsecure8K(b *testing.B)   { benchDriveRead(b, false, 8<<10) }
func BenchmarkDriveReadSecure512K(b *testing.B)   { benchDriveRead(b, true, 512<<10) }
func BenchmarkDriveReadInsecure512K(b *testing.B) { benchDriveRead(b, false, 512<<10) }

// benchDriveWrite overwrites a cached region in size-byte writes: with
// security on, both ends digest the request and tag the payload.
func benchDriveWrite(b *testing.B, secure bool, size int) {
	cli, cap, obj := driveRig(b, secure)
	data := make([]byte, size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i%32) * uint64(size)
		if err := cli.Write(context.Background(), &cap, 1, obj, off, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDriveWriteSecure64K(b *testing.B)   { benchDriveWrite(b, true, 64<<10) }
func BenchmarkDriveWriteInsecure64K(b *testing.B) { benchDriveWrite(b, false, 64<<10) }

// tcpDriveRig serves a drive over real TCP loopback with modeled
// service times — a 300 MB/s media throttle under a deliberately small
// block cache, and a 300 MB/s link throttle on the wire — so the rig
// has the latency structure of real storage instead of loopback's
// memory-speed transfers. Both the serial and pipelined benchmarks run
// over this same stack.
func tcpDriveRig(b *testing.B) (*client.Drive, capability.Capability, uint64) {
	b.Helper()
	// The store re-reads extent metadata under cache pressure (~4x
	// device reads per payload byte at this cache size), so 128 MB/s of
	// raw media bandwidth delivers roughly the link's 32 MB/s in
	// payload terms — a balanced media/wire regime like the paper's
	// (fast-SCSI drives behind OC-3-class links), which is where
	// pipelining pays.
	const mediaBps = 512 << 20
	const linkBps = 256 << 20
	master := crypt.NewRandomKey()
	dev := blockdev.NewThrottle(blockdev.NewMemDisk(4096, 1<<16), mediaBps, 0)
	// A 1 MB cache under a 4 MB working set: metadata stays hot, data
	// reads miss to the (throttled) media like a real streaming scan.
	drv, err := drive.NewFormat(dev, drive.Config{
		ID: 1, Master: master, Secure: true,
		Store: object.Config{CacheBlocks: 256},
	})
	if err != nil {
		b.Fatal(err)
	}
	tl, err := rpc.ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := drv.Serve(rpc.NewThrottledListener(tl, linkBps))
	b.Cleanup(srv.Close)
	if err := drv.Store().CreatePartition(1, 0); err != nil {
		b.Fatal(err)
	}
	if err := drv.Keys().AddPartition(1); err != nil {
		b.Fatal(err)
	}
	obj, err := drv.Store().Create(1)
	if err != nil {
		b.Fatal(err)
	}
	if err := drv.Store().Write(1, obj, 0, make([]byte, 4<<20)); err != nil {
		b.Fatal(err)
	}
	conn, err := rpc.DialTCP(tl.Addr())
	if err != nil {
		b.Fatal(err)
	}
	cli := client.New(rpc.NewThrottledConn(conn, linkBps), 1, 99)
	b.Cleanup(func() { cli.Close() })
	kid, key, _ := drv.Keys().CurrentWorkingKey(1)
	cap := capability.Mint(capability.Public{
		DriveID: 1, Partition: 1, Object: obj, ObjVer: 1,
		Rights: capability.Read | capability.Write,
		Expiry: time.Now().Add(time.Hour).UnixNano(), Key: kid,
	}, key)
	return cli, cap, obj
}

// BenchmarkPipelinedRead: the tentpole number. A large transfer over
// TCP as serial fragment reads, one in flight at a time, versus
// ReadInto's window of the same 64 KB fragments. The serial path pays
// each fragment's media time and then its wire time before it sends the
// next, while the window keeps several fragments in flight so media
// time and wire time overlap (paper §5.3, Figure 9's access-pattern
// argument applied to the RPC plane).
func benchPipelinedRead(b *testing.B, size int, pipelined bool) {
	cli, cap, obj := tcpDriveRig(b)
	ctx := context.Background()
	slots := (4 << 20) / size // rotate so iterations don't reread cached data
	dst := make([]byte, size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i%slots) * uint64(size)
		var got int
		var err error
		if pipelined {
			got, err = cli.ReadInto(ctx, &cap, 1, obj, off, dst)
		} else {
			const frag = client.DefaultFragmentSize
			for start := 0; start < size && err == nil; start += frag {
				var n int
				n, err = cli.ReadInto(ctx, &cap, 1, obj, off+uint64(start), dst[start:start+frag])
				got += n
			}
		}
		if err != nil {
			b.Fatal(err)
		}
		if got != size {
			b.Fatalf("short read: %d", got)
		}
	}
}

func BenchmarkPipelinedRead256K(b *testing.B) { benchPipelinedRead(b, 256<<10, true) }
func BenchmarkSerialRead256K(b *testing.B)    { benchPipelinedRead(b, 256<<10, false) }
func BenchmarkPipelinedRead1M(b *testing.B)   { benchPipelinedRead(b, 1<<20, true) }
func BenchmarkSerialRead1M(b *testing.B)      { benchPipelinedRead(b, 1<<20, false) }

func BenchmarkMiningPass1(b *testing.B) {
	data := mining.Generate(mining.GenConfig{CatalogSize: 1000, TotalBytes: 4 << 20, Seed: 1})
	counts := make([]uint32, 1000)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mining.CountItems(data, counts)
	}
}
