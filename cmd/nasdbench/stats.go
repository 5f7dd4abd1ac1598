package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/telemetry"
)

// runStats stands up one secure in-process drive over a throttled,
// instrumented device, runs a write-then-read workload against it, and
// prints the drive's measured per-op cost breakdown — the same table
// shape as the paper's Table 1, but measured from this implementation
// rather than modelled. The reads are issued serially so the media
// busy-time delta attributes exactly to each request.
func runStats(w io.Writer, sizeMB int, jsonOut string) error {
	// ~200 MB/s media with a 5 us per-op overhead: fast enough to
	// finish promptly, slow enough that media time dominates large
	// transfers the way Table 1 shows. The device is sized at 4x the
	// workload so allocation never thrashes.
	r, err := newSingleDriveRig(rigConfig{
		dev:    blockdev.NewThrottle(blockdev.NewMemDisk(4096, int64(sizeMB)*1024+4096), 200<<20, 5*time.Microsecond),
		secure: true,
	})
	if err != nil {
		return err
	}
	defer r.close()
	cli, ctx := r.admin, r.ctx

	cc := r.mint(0, 0, capability.CreateObj)
	obj, err := cli.Create(ctx, &cc, rigPart)
	if err != nil {
		return err
	}

	// Write sizeMB of data (pipelined, the client's bulk-transfer path),
	// flush it to media, then read it back in serial 64 KB requests.
	data := make([]byte, sizeMB<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	wc := r.mint(obj, 1, capability.Write)
	writeFrags := float64((len(data) + client.DefaultFragmentSize - 1) / client.DefaultFragmentSize)
	wctx, _ := telemetry.WithRequestID(context.Background())
	writeAllocs, writeBytes, writeDur, err := allocDelta(writeFrags, func() error {
		return cli.WritePipelined(wctx, &wc, rigPart, obj, 0, data)
	})
	if err != nil {
		return err
	}
	if err := cli.Flush(ctx); err != nil {
		return err
	}
	rc := r.mint(obj, 1, capability.Read)
	const frag = 64 << 10
	got := make([]byte, len(data))
	readAllocs, readBytes, readDur, err := allocDelta(float64(len(data)/frag), func() error {
		for off := 0; off < len(data); off += frag {
			rctx, _ := telemetry.WithRequestID(context.Background())
			if _, err := cli.ReadInto(rctx, &rc, rigPart, obj, uint64(off), got[off:off+frag]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
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
