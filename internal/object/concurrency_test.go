package object

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/telemetry"
)

// rendezvousDev proves two reads are truly concurrent: a read of a
// marker data block (filled with 0xA5) parks until a second marker read
// arrives. If the store serialized reads of one object, the second
// reader could never arrive and the barrier would time out unmet.
type rendezvousDev struct {
	blockdev.Device
	mu      sync.Mutex
	waiting chan struct{}
	met     atomic.Bool
}

const markerByte = 0xA5

func (d *rendezvousDev) ReadBlock(b int64, buf []byte) error {
	if err := d.Device.ReadBlock(b, buf); err != nil {
		return err
	}
	if len(buf) < 3 || buf[0] != markerByte || buf[1] != markerByte || buf[len(buf)-1] != markerByte {
		return nil
	}
	d.mu.Lock()
	if d.waiting == nil {
		ch := make(chan struct{})
		d.waiting = ch
		d.mu.Unlock()
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
		}
		return nil
	}
	ch := d.waiting
	d.mu.Unlock()
	close(ch)
	d.met.Store(true)
	return nil
}

// TestConcurrentReadsOfOneObjectOverlap drives two readers at two
// blocks of the same object, on the same (only) cache shard, through a
// rendezvous device. Both must be inside the media read at the same
// time, which requires (a) the per-object lock to be shared between
// readers and (b) the cache to fill misses without holding its shard
// lock. (Two readers of the same block no longer both reach the
// device: the second waits on the first's claim.)
func TestConcurrentReadsOfOneObjectOverlap(t *testing.T) {
	mem := blockdev.NewMemDisk(512, 1024)
	dev := &rendezvousDev{Device: mem}
	s, err := Format(dev, Config{
		CacheBlocks:     1,  // evictable: the marker block must miss
		ReadaheadBlocks: -1, // no prefetch: exactly one read per caller
		WriteThrough:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartition(1, 0); err != nil {
		t.Fatal(err)
	}
	id, err := s.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, id, 0, fillBytes(markerByte, 1024)); err != nil {
		t.Fatal(err)
	}
	// Evict the marker block from the one-block cache.
	spoiler, err := s.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, spoiler, 0, fillBytes(0x11, 512)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(1, spoiler, 0, 512); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		off := uint64(i) * 512
		go func() {
			defer wg.Done()
			got, err := s.Read(1, id, off, 512)
			if err != nil {
				errs <- err
				return
			}
			for _, b := range got {
				if b != markerByte {
					errs <- fmt.Errorf("read returned corrupt data %#x", b)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !dev.met.Load() {
		t.Fatal("concurrent reads of one object did not overlap at the device")
	}
}

func fillBytes(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// TestConcurrentMixedOps hammers one store with create/write/read/
// resize/remove across many objects plus shared-object readers, then
// checks that no update was lost: every private read sees exactly what
// its worker wrote, shared reads always see a complete write (the
// per-object lock makes writes atomic), and partition accounting drains
// to zero after everything is removed. Run under -race via
// scripts/check.sh.
func TestConcurrentMixedOps(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 16384)
	s, err := Format(dev, Config{CacheBlocks: 64, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartition(1, 0); err != nil {
		t.Fatal(err)
	}

	// A shared object that every worker reads while worker 0 rewrites
	// it with uniform patterns.
	shared, err := s.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	const sharedLen = 3 * 512
	if err := s.Write(1, shared, 0, fillBytes(1, sharedLen)); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tag := byte(w + 2)
			for i := 0; i < iters; i++ {
				id, err := s.Create(1)
				if err != nil {
					errs <- fmt.Errorf("worker %d: create: %w", w, err)
					return
				}
				data := fillBytes(tag, 1300) // crosses block boundaries
				if err := s.Write(1, id, 0, data); err != nil {
					errs <- fmt.Errorf("worker %d: write: %w", w, err)
					return
				}
				got, err := s.Read(1, id, 0, len(data))
				if err != nil {
					errs <- fmt.Errorf("worker %d: read: %w", w, err)
					return
				}
				for j, b := range got {
					if b != tag {
						errs <- fmt.Errorf("worker %d: lost update at byte %d: %#x != %#x", w, j, b, tag)
						return
					}
				}
				// Shrink, then regrow past the old end: the regrown range
				// must read back as zeros.
				if err := s.SetAttr(1, id, Attributes{Size: 600}, SetSize); err != nil {
					errs <- fmt.Errorf("worker %d: truncate: %w", w, err)
					return
				}
				if err := s.SetAttr(1, id, Attributes{Size: 2000}, SetSize); err != nil {
					errs <- fmt.Errorf("worker %d: extend: %w", w, err)
					return
				}
				got, err = s.Read(1, id, 600, 1400)
				if err != nil {
					errs <- fmt.Errorf("worker %d: read tail: %w", w, err)
					return
				}
				for j, b := range got {
					if b != 0 {
						errs <- fmt.Errorf("worker %d: truncated range byte %d = %#x, want 0", w, j, b)
						return
					}
				}
				if err := s.Remove(1, id); err != nil {
					errs <- fmt.Errorf("worker %d: remove: %w", w, err)
					return
				}

				// Shared-object traffic: worker 0 rewrites, others read and
				// require a uniform (never torn) buffer.
				if w == 0 {
					if err := s.Write(1, shared, 0, fillBytes(byte(i%7+1), sharedLen)); err != nil {
						errs <- fmt.Errorf("worker %d: shared write: %w", w, err)
						return
					}
				} else {
					got, err := s.Read(1, shared, 0, sharedLen)
					if err != nil {
						errs <- fmt.Errorf("worker %d: shared read: %w", w, err)
						return
					}
					first := got[0]
					for j, b := range got {
						if b != first {
							errs <- fmt.Errorf("worker %d: torn shared read at byte %d: %#x vs %#x", w, j, b, first)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := s.Remove(1, shared); err != nil {
		t.Fatal(err)
	}
	p, err := s.GetPartition(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.ObjectCount != 0 {
		t.Fatalf("object count after drain = %d, want 0", p.ObjectCount)
	}
	if p.UsedBlocks != 0 {
		t.Fatalf("used blocks after drain = %d, want 0 (accounting lost an update)", p.UsedBlocks)
	}
	// Removed objects' lock entries are purged; nothing should linger.
	if n := s.LockEntries(); n != 0 {
		t.Fatalf("lock table holds %d entries after drain, want 0", n)
	}
}

// TestQuotaUnderConcurrentWriters checks that the reserve-then-settle
// quota admission cannot be jointly overshot: many writers race to fill
// a small partition, and usage must never exceed the quota.
func TestQuotaUnderConcurrentWriters(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 16384)
	s, err := Format(dev, Config{CacheBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	const quota = 40
	if err := s.CreatePartition(1, quota); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	ids := make([]uint64, workers)
	for w := range ids {
		id, err := s.Create(1)
		if err != nil {
			t.Fatal(err)
		}
		ids[w] = id
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// Each write may pass or hit the quota; both are fine. What
				// is not fine is usage exceeding the quota (checked below).
				_ = s.Write(1, ids[w], uint64(i)*512, fillBytes(byte(w+1), 512))
			}
		}(w)
	}
	wg.Wait()
	p, err := s.GetPartition(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.UsedBlocks > quota {
		t.Fatalf("usage %d exceeds quota %d under concurrent writers", p.UsedBlocks, quota)
	}
	// Settled accounting must match reality: re-add the charges by hand.
	var want int64
	for _, id := range ids {
		_, o, err := s.classic.lookup(1, id)
		if err != nil {
			t.Fatal(err)
		}
		want += s.classic.chargeOf(&o)
	}
	if p.UsedBlocks != want {
		t.Fatalf("used blocks = %d, recomputed charge = %d", p.UsedBlocks, want)
	}
}

// TestLockEntriesLiveOnlyForReadaheadState: an entry outlives its last
// holder only while its tracker remembers a read. Objects that are only
// written, and every object of a needle partition, leave nothing in the
// table; a classic object being read keeps its entry and its streak.
func TestLockEntriesLiveOnlyForReadaheadState(t *testing.T) {
	s, _ := newExtentStore(t, Config{})
	if err := s.CreatePartitionBackend(2, 0, BackendNeedle); err != nil {
		t.Fatal(err)
	}
	data := pattern(3, 8*4096)
	for i := 0; i < 50; i++ {
		for _, part := range []uint16{1, 2} {
			id, err := s.Create(part)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Write(part, id, 0, data); err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetAttr(part, id); err != nil {
				t.Fatal(err)
			}
			if part == 2 {
				got, err := s.Read(part, id, 0, len(data))
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("needle read: %v", err)
				}
			}
		}
	}
	if n := s.LockEntries(); n != 0 {
		t.Fatalf("lock table holds %d entries for 100 objects nobody is reading, want 0", n)
	}
	id, _ := s.Create(1)
	if err := s.Write(1, id, 0, data); err != nil {
		t.Fatal(err)
	}
	mustRead(t, s, id, 0, data[:4096])
	mustRead(t, s, id, 4096, data[4096:8192])
	if n := s.LockEntries(); n != 1 {
		t.Fatalf("lock table holds %d entries with one object mid-scan, want 1", n)
	}
	l := s.locks.acquire(objKey{1, id}, false)
	streak := l.seq.streak
	s.locks.release(objKey{1, id}, l, false, false)
	if streak != 1 {
		t.Fatalf("the scan's streak is %d after two sequential reads, want 1: the entry was dropped between them", streak)
	}
	if err := s.Remove(1, id); err != nil {
		t.Fatal(err)
	}
	if n := s.LockEntries(); n != 0 {
		t.Fatalf("lock table holds %d entries after the remove, want 0", n)
	}
}
