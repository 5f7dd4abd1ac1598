package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/object"
)

// The smallobj workload is the Haystack scenario scaled to bench time:
// a population of 4 KiB objects written once and then fetched with a
// Zipf-distributed stat+read mix (the photo-store access pattern: every
// logical GET is an attribute check plus a payload read). It runs the
// identical workload twice — once on a classic-layout partition, once
// on a needle partition — against otherwise identical drives, and
// reports write/read throughput and media I/Os per logical read side by
// side. The classic path pays multiple onode I/Os per operation; the
// needle path serves attributes from memory and payloads from one or
// two log-block reads, which is the entire argument for the engine.

const smallObjSize = 4 << 10

// runSmallObj benchmarks both backends and emits the combined result.
func runSmallObj(w io.Writer, objects int, jsonOut string) error {
	if objects < 16 {
		return fmt.Errorf("-smallobj-objects needs at least 16")
	}
	fmt.Fprintf(w, "nasdbench -workload smallobj: %d x %d KiB objects, Zipf stat+read mix, per-backend drives\n\n",
		objects, smallObjSize>>10)
	classic, err := smallObjRun(object.BackendClassic, objects)
	if err != nil {
		return fmt.Errorf("classic run: %w", err)
	}
	needle, err := smallObjRun(object.BackendNeedle, objects)
	if err != nil {
		return fmt.Errorf("needle run: %w", err)
	}

	fmt.Fprintf(w, "%-8s %14s %14s %18s\n", "backend", "write MB/s", "read MB/s", "media I/Os / read")
	for _, row := range []struct {
		name string
		r    smallObjResult
	}{{"classic", classic}, {"needle", needle}} {
		fmt.Fprintf(w, "%-8s %14.1f %14.1f %18.2f\n",
			row.name, row.r.writeMBps, row.r.readMBps, row.r.mediaPerRead)
	}
	fmt.Fprintf(w, "\nneedle/classic write speedup: %.1fx\n", needle.writeMBps/classic.writeMBps)

	return writeBenchJSON(jsonOut, benchResult{
		Name:   "smallobj",
		Config: benchConfig{SizeMB: objects * smallObjSize >> 20, Workers: 1, Secure: false},
		Throughput: map[string]float64{
			"classic_write": classic.writeMBps,
			"classic_read":  classic.readMBps,
			"needle_write":  needle.writeMBps,
			"needle_read":   needle.readMBps,
		},
		Counters: map[string]uint64{
			"objects":                      uint64(objects),
			"classic_media_per_read_milli": uint64(classic.mediaPerRead * 1000),
			"needle_media_per_read_milli":  uint64(needle.mediaPerRead * 1000),
			"write_speedup_milli":          uint64(needle.writeMBps / classic.writeMBps * 1000),
		},
	})
}

type smallObjResult struct {
	writeMBps    float64
	readMBps     float64
	mediaPerRead float64
}

// smallObjRun stands up one insecure in-process drive whose partition 1
// uses the given backend, writes the object population, then serves the
// Zipf stat+read mix, measuring media I/Os from the instrumented
// device.
func smallObjRun(backend object.BackendKind, objects int) (smallObjResult, error) {
	var res smallObjResult
	// Sized for the population in either layout (classic: data block +
	// onode per object; needle: ~1.1 packed log blocks per object), with
	// a deliberately small cache so the data set does not fit — the
	// regime the backends are meant to be compared in. ~200 MB/s media
	// with a 10 us per-op cost makes per-op media I/O counts dominate,
	// the way seeks dominate a spinning photo store.
	r, err := newSingleDriveRig(rigConfig{
		dev:     blockdev.NewThrottle(blockdev.NewMemDisk(4096, int64(objects)*2+16384), 200<<20, 10*time.Microsecond),
		store:   object.Config{CacheBlocks: 256, OnodeCount: int64(objects) + 1024},
		backend: backend,
	})
	if err != nil {
		return res, err
	}
	defer r.close()
	cli, ctx, reg := r.admin, r.ctx, r.reg
	// The drive is insecure (the paper's measurement mode), so a zero
	// capability satisfies the wire format without minting.
	nocap := &capability.Capability{}

	payload := func(i int) []byte {
		b := make([]byte, smallObjSize)
		for j := range b {
			b[j] = byte(i*131 + j*31)
		}
		return b
	}

	// Phase 1: populate — create + write every object, then flush. This
	// is the small-object ingest path the needle log exists for.
	ids := make([]uint64, objects)
	writeStart := time.Now()
	for i := 0; i < objects; i++ {
		id, err := cli.Create(ctx, nocap, rigPart)
		if err != nil {
			return res, err
		}
		if err := cli.Write(ctx, nocap, rigPart, id, 0, payload(i)); err != nil {
			return res, err
		}
		ids[i] = id
	}
	if err := cli.Flush(ctx); err != nil {
		return res, err
	}
	writeDur := time.Since(writeStart)

	// Phase 2: Zipf stat+read mix. Media I/Os per logical read come
	// from the instrumented device's read counter across the phase.
	reads := reg.Counter("blockdev.reads")
	nReads := objects
	zipf := rand.NewZipf(rand.New(rand.NewPCG(42, 7)), 1.1, 1, uint64(objects-1))
	readsBefore := reads.Load()
	readStart := time.Now()
	for i := 0; i < nReads; i++ {
		idx := int(zipf.Uint64())
		if _, err := cli.GetAttr(ctx, nocap, rigPart, ids[idx]); err != nil {
			return res, err
		}
		got, err := cli.Read(ctx, nocap, rigPart, ids[idx], 0, smallObjSize)
		if err != nil {
			return res, err
		}
		if i%1024 == 0 && !bytes.Equal(got, payload(idx)) {
			return res, fmt.Errorf("object %d: read-back mismatch", ids[idx])
		}
	}
	readDur := time.Since(readStart)
	readIOs := reads.Load() - readsBefore

	mb := float64(objects*smallObjSize) / (1 << 20)
	res.writeMBps = mb / writeDur.Seconds()
	res.readMBps = float64(nReads*smallObjSize) / (1 << 20) / readDur.Seconds()
	res.mediaPerRead = float64(readIOs) / float64(nReads)
	return res, nil
}
