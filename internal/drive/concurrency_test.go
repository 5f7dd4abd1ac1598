package drive

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/crypt"
	"nasd/internal/object"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// newPlainDrive builds a non-secure drive (capability checks off, as in
// the paper's NASD-aware benchmarks) over dev.
func newPlainDrive(t testing.TB, dev blockdev.Device, store object.Config) *Drive {
	t.Helper()
	d, err := NewFormat(dev, Config{ID: 1, Master: crypt.NewRandomKey(), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Handle(&rpc.Request{Proc: uint16(OpCreatePartition),
		Args: (&PartArgs{Partition: 1}).Encode()})
	if rep.Status != rpc.StatusOK {
		t.Fatalf("create partition: %v", rep.Status)
	}
	return d
}

func driveCreate(t testing.TB, d *Drive) uint64 {
	t.Helper()
	rep := d.Handle(&rpc.Request{Proc: uint16(OpCreateObject),
		Args: (&ObjArgs{Partition: 1}).Encode()})
	if rep.Status != rpc.StatusOK {
		t.Fatalf("create: %v %s", rep.Status, rep.Data)
	}
	id, err := DecodeIDReply(rep.Args)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestConcurrentDriveMixedOps drives one drive's Handle entry point —
// what every rpc worker-pool goroutine calls — from many goroutines with a
// mix of create/write/read/resize/remove plus shared-object reads.
// Run under -race by scripts/check.sh; correctness checks catch lost
// updates and torn reads.
func TestConcurrentDriveMixedOps(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 16384)
	d := newPlainDrive(t, dev, object.Config{CacheBlocks: 64})
	shared := driveCreate(t, d)
	sharedData := bytes.Repeat([]byte{1}, 1024)
	if rep := d.Handle(&rpc.Request{Proc: uint16(OpWriteObject),
		Args: (&WriteArgs{Partition: 1, Object: shared}).Encode(),
		Data: sharedData}); rep.Status != rpc.StatusOK {
		t.Fatalf("seed shared: %v", rep.Status)
	}

	const workers = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tag := byte(w + 2)
			for i := 0; i < iters; i++ {
				id := driveCreate(t, d)
				payload := bytes.Repeat([]byte{tag}, 1300)
				rep := d.Handle(&rpc.Request{Proc: uint16(OpWriteObject),
					Args: (&WriteArgs{Partition: 1, Object: id}).Encode(), Data: payload})
				if rep.Status != rpc.StatusOK {
					errs <- fmt.Errorf("worker %d: write: %v", w, rep.Status)
					return
				}
				rep = d.Handle(&rpc.Request{Proc: uint16(OpReadObject),
					Args: (&ReadArgs{Partition: 1, Object: id, Length: uint64(len(payload))}).Encode()})
				if rep.Status != rpc.StatusOK {
					errs <- fmt.Errorf("worker %d: read: %v", w, rep.Status)
					return
				}
				if !bytes.Equal(rep.Data, payload) {
					errs <- fmt.Errorf("worker %d: lost update: read back wrong bytes", w)
					return
				}
				rep = d.Handle(&rpc.Request{Proc: uint16(OpSetAttr),
					Args: (&SetAttrArgs{Partition: 1, Object: id, Mask: uint32(object.SetSize),
						Attrs: object.Attributes{Size: 500}}).Encode()})
				if rep.Status != rpc.StatusOK {
					errs <- fmt.Errorf("worker %d: resize: %v", w, rep.Status)
					return
				}
				rep = d.Handle(&rpc.Request{Proc: uint16(OpRemoveObject),
					Args: (&ObjArgs{Partition: 1, Object: id}).Encode()})
				if rep.Status != rpc.StatusOK {
					errs <- fmt.Errorf("worker %d: remove: %v", w, rep.Status)
					return
				}
				// Shared-object read: must never tear.
				rep = d.Handle(&rpc.Request{Proc: uint16(OpReadObject),
					Args: (&ReadArgs{Partition: 1, Object: shared, Length: uint64(len(sharedData))}).Encode()})
				if rep.Status != rpc.StatusOK {
					errs <- fmt.Errorf("worker %d: shared read: %v", w, rep.Status)
					return
				}
				if !bytes.Equal(rep.Data, sharedData) {
					errs <- fmt.Errorf("worker %d: torn shared read", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Accounting must have survived the storm.
	rep := d.Handle(&rpc.Request{Proc: uint16(OpGetPartition),
		Args: (&PartArgs{Partition: 1}).Encode()})
	if rep.Status != rpc.StatusOK {
		t.Fatalf("getpartition: %v", rep.Status)
	}
	p, err := DecodePartReply(rep.Args)
	if err != nil {
		t.Fatal(err)
	}
	if p.ObjectCount != 1 { // only the shared object remains
		t.Fatalf("object count = %d, want 1", p.ObjectCount)
	}
	// Lock telemetry flowed into the drive's shared registry.
	snap := d.tel.reg.Snapshot()
	if snap.Counters["object.lock.acquire"] == 0 {
		t.Fatal("object.lock.acquire counter never incremented")
	}
}

// latencyDev models a command-queued disk: every data-block read costs
// fixed service latency, but requests from different callers overlap
// freely (no shared lock around the sleep). Only marker-tagged data
// blocks pay the latency, so metadata reads (onode table, pointer
// blocks) stay fast — the point of the benchmark is object data
// concurrency, not metadata traffic. On a single-CPU host, throughput
// scaling with workers can only come from overlapping these sleeps,
// which the old global store mutex made impossible.
type latencyDev struct {
	blockdev.Device
	latency time.Duration
}

const benchMarker = 0xA5

func (d *latencyDev) ReadBlocks(start int64, buf []byte) error {
	if err := d.Device.ReadBlocks(start, buf); err != nil {
		return err
	}
	if len(buf) >= 2 && buf[0] == benchMarker && buf[len(buf)-1] == benchMarker {
		time.Sleep(d.latency)
	}
	return nil
}

// BenchmarkConcurrentDrive measures drive read throughput with N
// concurrent workers on N distinct objects over a 100µs-latency device.
// workers=1 is the serialized baseline — exactly the throughput the old
// single-store-mutex design would deliver at any worker count, since it
// admitted one object operation at a time. The acceptance bar is ≥2x
// the baseline at 4 workers; EXPERIMENTS.md records measured runs.
func BenchmarkConcurrentDrive(b *testing.B) {
	const (
		blockSize      = 4096
		blocksPerObj   = 64
		deviceLatency  = 100 * time.Microsecond
		maxWorkerCount = 8
	)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			mem := blockdev.NewMemDisk(blockSize, 8192)
			dev := &latencyDev{Device: mem, latency: deviceLatency}
			d := newPlainDrive(b, dev, object.Config{
				CacheBlocks:     8,  // far below the working set: reads miss
				ReadaheadBlocks: -1, // no prefetch: one media read per request
				Metrics:         telemetry.NewRegistry(),
			})
			ids := make([]uint64, maxWorkerCount)
			payload := bytes.Repeat([]byte{benchMarker}, blockSize)
			for i := range ids {
				ids[i] = driveCreate(b, d)
				for fb := 0; fb < blocksPerObj; fb++ {
					rep := d.Handle(&rpc.Request{Proc: uint16(OpWriteObject),
						Args: (&WriteArgs{Partition: 1, Object: ids[i], Offset: uint64(fb) * blockSize}).Encode(),
						Data: payload})
					if rep.Status != rpc.StatusOK {
						b.Fatalf("seed write: %v", rep.Status)
					}
				}
			}
			var next atomic.Int64
			b.SetBytes(blockSize)
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					id := ids[w]
					for {
						n := next.Add(1)
						if n > int64(b.N) {
							return
						}
						off := uint64(n%blocksPerObj) * blockSize
						rep := d.Handle(&rpc.Request{Proc: uint16(OpReadObject),
							Args: (&ReadArgs{Partition: 1, Object: id, Offset: off, Length: blockSize}).Encode()})
						if rep.Status != rpc.StatusOK {
							b.Errorf("read: %v", rep.Status)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
