package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// runStats stands up one secure in-process drive over a throttled,
// instrumented device, runs a write-then-read workload against it, and
// prints the drive's measured per-op cost breakdown — the same table
// shape as the paper's Table 1, but measured from this implementation
// rather than modelled. The reads are issued serially so the media
// busy-time delta attributes exactly to each request.
func runStats(w io.Writer, sizeMB int, jsonOut string) error {
	master := crypt.NewRandomKey()
	reg := telemetry.NewRegistry()
	// ~200 MB/s media with a 5 us per-op overhead: fast enough to
	// finish promptly, slow enough that media time dominates large
	// transfers the way Table 1 shows.
	// Device sized at 4x the workload so allocation never thrashes.
	media := blockdev.Instrument(blockdev.NewThrottle(blockdev.NewMemDisk(4096, int64(sizeMB)*1024+4096), 200<<20, 5*time.Microsecond), reg)
	drv, err := drive.NewFormat(media, drive.Config{
		ID: 1, Master: master, Secure: true, Metrics: reg, Media: media,
	})
	if err != nil {
		return err
	}
	l := rpc.NewInProcListener("nasdbench-stats")
	srv := drv.Serve(l)
	defer srv.Close()
	conn, err := l.Dial()
	if err != nil {
		return err
	}
	cli := client.New(conn, 1, 42, client.WithMetrics(reg))
	defer cli.Close()

	ctx, _ := telemetry.WithRequestID(context.Background())
	const part = 1
	if err := cli.CreatePartition(ctx, crypt.KeyID{Type: crypt.MasterKey}, master, part, 0); err != nil {
		return err
	}
	keys := crypt.NewHierarchy(master)
	if err := keys.AddPartition(part); err != nil {
		return err
	}
	mint := func(obj, ver uint64, rights capability.Rights) (capability.Capability, error) {
		kid, key, err := keys.CurrentWorkingKey(part)
		if err != nil {
			return capability.Capability{}, err
		}
		return capability.Mint(capability.Public{
			DriveID: 1, Partition: part, Object: obj, ObjVer: ver,
			Rights: rights, Expiry: time.Now().Add(time.Hour).UnixNano(), Key: kid,
		}, key), nil
	}

	cc, err := mint(0, 0, capability.CreateObj)
	if err != nil {
		return err
	}
	obj, err := cli.Create(ctx, &cc, part)
	if err != nil {
		return err
	}

	// Write sizeMB of data (pipelined, the client's bulk-transfer path),
	// flush it to media, then read it back in serial 64 KB requests.
	data := make([]byte, sizeMB<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	wc, err := mint(obj, 1, capability.Write)
	if err != nil {
		return err
	}
	wctx, _ := telemetry.WithRequestID(context.Background())
	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	writeStart := time.Now()
	if err := cli.WritePipelined(wctx, &wc, part, obj, 0, data); err != nil {
		return err
	}
	writeDur := time.Since(writeStart)
	runtime.ReadMemStats(&msAfter)
	writeFrags := float64((len(data) + client.DefaultFragmentSize - 1) / client.DefaultFragmentSize)
	writeAllocs := float64(msAfter.Mallocs-msBefore.Mallocs) / writeFrags
	writeBytes := float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / writeFrags
	if err := cli.Flush(ctx); err != nil {
		return err
	}
	rc, err := mint(obj, 1, capability.Read)
	if err != nil {
		return err
	}
	const frag = 64 << 10
	got := make([]byte, len(data))
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	readStart := time.Now()
	for off := 0; off < len(data); off += frag {
		rctx, _ := telemetry.WithRequestID(context.Background())
		if _, err := cli.ReadInto(rctx, &rc, part, obj, uint64(off), got[off:off+frag]); err != nil {
			return err
		}
	}
	readDur := time.Since(readStart)
	runtime.ReadMemStats(&msAfter)
	readOps := float64(len(data) / frag)
	readAllocs := float64(msAfter.Mallocs-msBefore.Mallocs) / readOps
	readBytes := float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / readOps
	if !bytes.Equal(got, data) {
		return fmt.Errorf("stats workload: read-back mismatch")
	}

	sr, err := cli.ServerMetrics(ctx, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "nasdbench -workload stats: %d MB written (pipelined) + %d MB read (serial %d KB requests)\n",
		sizeMB, sizeMB, frag>>10)
	fmt.Fprintf(w, "allocation cost: %.0f allocs/%.0f B per read, %.0f allocs/%.0f B per write fragment\n",
		readAllocs, readBytes, writeAllocs, writeBytes)
	fmt.Fprintf(w, "drive %d per-op cost breakdown (measured; cf. paper Table 1):\n\n", sr.DriveID)
	telemetry.WriteOpTable(w, sr.Metrics, "drive.op")
	fmt.Fprintln(w)
	telemetry.WriteText(w, sr.Metrics)
	if jsonOut != "" {
		return writeBenchJSON(jsonOut, benchResult{
			Name:   "stats",
			Config: benchConfig{SizeMB: sizeMB, Workers: 1, Secure: true},
			Throughput: map[string]float64{
				"write": float64(sizeMB) / writeDur.Seconds(),
				"read":  float64(sizeMB) / readDur.Seconds(),
			},
			Latency: latencyFromSnapshot(sr.Metrics),
			AllocsPerOp: map[string]float64{
				"write_frag": writeAllocs,
				"read":       readAllocs,
			},
			BytesPerOp: map[string]float64{
				"write_frag": writeBytes,
				"read":       readBytes,
			},
		})
	}
	return nil
}
