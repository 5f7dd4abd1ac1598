package cache

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/bufpool"
)

// countingDev counts device read and write calls (MemDisk.Stats counts
// the blocks they move) and can park the first ranged read, or the
// first write, until the test releases it. With check set it also holds
// every call to the cache's locking and write-ordering rules.
type countingDev struct {
	*blockdev.MemDisk
	calls      atomic.Int64
	parkOnce   sync.Once
	parked     chan struct{} // closed when the parked call is inside the device
	release    chan struct{} // nil: never park
	parkWrites bool

	writeCalls atomic.Int64
	mu         sync.Mutex
	writeRuns  [][2]int64 // {start, blocks} of every write call, in order

	// check, when set, is the cache under test; t receives violations.
	check    *BlockCache
	t        *testing.T
	heldSeen atomic.Bool
	inFlight [256]atomic.Int32 // writes of the block inside the device now
	last     [256]atomic.Int32 // version (byte 0) of the block's latest write
}

func (d *countingDev) park() {
	if d.release != nil {
		d.parkOnce.Do(func() {
			close(d.parked)
			<-d.release
		})
	}
}

func (d *countingDev) ReadBlock(b int64, buf []byte) error {
	d.calls.Add(1)
	d.locksFree("read")
	return d.MemDisk.ReadBlock(b, buf)
}

func (d *countingDev) ReadBlocks(start int64, buf []byte) error {
	d.calls.Add(1)
	d.locksFree("ranged read")
	if !d.parkWrites {
		d.park()
	}
	return d.MemDisk.ReadBlocks(start, buf)
}

func (d *countingDev) WriteBlock(b int64, data []byte) error {
	return d.WriteBlocks(b, data)
}

func (d *countingDev) WriteBlocks(start int64, data []byte) error {
	bs := d.BlockSize()
	d.writeCalls.Add(1)
	d.mu.Lock()
	d.writeRuns = append(d.writeRuns, [2]int64{start, int64(len(data) / bs)})
	d.mu.Unlock()
	if d.parkWrites {
		d.park()
	}
	if d.check == nil {
		return d.MemDisk.WriteBlocks(start, data)
	}
	d.locksFree("write")
	for i := 0; i < len(data)/bs; i++ {
		b := start + int64(i)
		if n := d.inFlight[b].Add(1); n != 1 {
			d.t.Errorf("block %d is in %d device writes at once", b, n)
		}
		if v, old := int32(data[i*bs]), d.last[b].Load(); v < old {
			d.t.Errorf("block %d received version %d after version %d", b, v, old)
		} else {
			d.last[b].Store(v)
		}
	}
	time.Sleep(20 * time.Microsecond) // a slow medium: keep write-backs in flight
	err := d.MemDisk.WriteBlocks(start, data)
	for i := 0; i < len(data)/bs; i++ {
		d.inFlight[start+int64(i)].Add(-1)
	}
	return err
}

func (d *countingDev) resetWrites() {
	d.writeCalls.Store(0)
	d.mu.Lock()
	d.writeRuns = nil
	d.mu.Unlock()
}

// locksFree fails the test if a shard lock of the checked cache cannot
// be taken while this device call is in progress: the caller held it
// across the call. Other goroutines hold a shard lock only for a few
// instructions, never while blocked.
func (d *countingDev) locksFree(call string) {
	if d.check == nil || d.heldSeen.Load() { // one report is enough, each costs a second
		return
	}
	if k := heldShard(d.check, -1); k >= 0 {
		d.heldSeen.Store(true)
		d.t.Errorf("shard %d was locked for the whole of a device %s", k, call)
	}
}

// heldShard tries to take every shard lock of c but skip, in turn, and
// returns the first it cannot get within a second, or -1.
func heldShard(c *BlockCache, skip int) int {
	for k, sh := range c.shards {
		if k == skip {
			continue
		}
		deadline := time.Now().Add(time.Second)
		for !sh.mu.TryLock() {
			if time.Now().After(deadline) {
				return k
			}
			runtime.Gosched()
		}
		sh.mu.Unlock()
	}
	return -1
}

// TestExtentReadModel drives random writes, extent reads, prefetches
// and flushes through caches of several shapes (one smaller than the
// longest run) and compares every byte an extent read returns with a
// per-block model of what the device or a newer cached write holds, and
// after every Flush the device itself with that model.
func TestExtentReadModel(t *testing.T) {
	const bs, nblocks = 64, 96
	shapes := []struct{ capacity, shards int }{{4, 1}, {4, 4}, {16, 4}, {64, 16}, {256, 16}}
	for _, shape := range shapes {
		rng := rand.New(rand.NewSource(int64(shape.capacity*100 + shape.shards)))
		dev := blockdev.NewMemDisk(bs, nblocks)
		model := make([][]byte, nblocks)
		for b := range model {
			model[b] = make([]byte, bs)
			rng.Read(model[b])
			if err := dev.WriteBlock(int64(b), model[b]); err != nil {
				t.Fatal(err)
			}
		}
		c := NewSharded(dev, shape.capacity, shape.shards)
		before := bufpool.Outstanding()
		for op := 0; op < 4000; op++ {
			switch k := rng.Intn(10); {
			case k < 2: // a dirty (or, resident, rewritten) block
				b := rng.Intn(nblocks)
				rng.Read(model[b])
				if err := c.WriteBlock(int64(b), model[b]); err != nil {
					t.Fatal(err)
				}
			case k < 3:
				c.Prefetch(int64(rng.Intn(nblocks-16)), 1+rng.Intn(16), nil)
			case k == 3 && op%50 == 0:
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				onDev := make([]byte, bs)
				for b := range model {
					if err := dev.ReadBlock(int64(b), onDev); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(onDev, model[b]) {
						t.Fatalf("cache %d/%d op %d: block %d on the device after Flush is not its last write", shape.capacity, shape.shards, op, b)
					}
				}
				if c.DirtyCount() != 0 {
					t.Fatalf("%d blocks dirty after Flush", c.DirtyCount())
				}
			default: // an extent of up to 16 blocks with unaligned ends
				start := rng.Intn(nblocks - 16)
				off := rng.Intn(bs)
				n := 1 + rng.Intn(16*bs-off)
				got := make([]byte, n)
				if err := c.ReadRange(int64(start), off, got); err != nil {
					t.Fatal(err)
				}
				var want []byte
				for b := start; len(want) < off+n; b++ {
					want = append(want, model[b]...)
				}
				if !bytes.Equal(got, want[off:off+n]) {
					t.Fatalf("cache %d/%d op %d: extent at block %d off %d len %d differs from the per-block model",
						shape.capacity, shape.shards, op, start, off, n)
				}
			}
			if c.Len() > shape.capacity {
				t.Fatalf("cache holds %d blocks, capacity %d", c.Len(), shape.capacity)
			}
		}
		// Everything the cache took from the pool it still holds as an
		// entry: every staging buffer went back.
		if grew := bufpool.Outstanding() - before; grew != int64(c.Len()) {
			t.Fatalf("cache %d/%d: pool outstanding grew by %d with %d blocks cached", shape.capacity, shape.shards, grew, c.Len())
		}
	}
}

// TestExtentReadConcurrentWriters runs extent readers and prefetchers
// against block writers, a flusher and, in the small cache, constant
// dirty evictions, on a slow device. Block b always holds its own number
// in odd bytes and one version in every even byte; a writer publishes
// the version it is about to write and the one it has written, so a
// reader can bound what each block of its extent may legally contain: a
// block evicted and refilled while its write-back was in flight would
// read below that bound. The device checks that a block is in one write
// at a time, that its versions never go backwards, and that no shard
// lock is held across a device call; a goroutine that sits on one shard
// lock checks that nobody holding another is blocked behind it.
func TestExtentReadConcurrentWriters(t *testing.T) {
	const bs, nblocks, writers, versions = 64, 48, 3, 200
	block := func(b int, v byte) []byte {
		p := make([]byte, bs)
		for i := range p {
			if i%2 == 0 {
				p[i] = v
			} else {
				p[i] = byte(b)
			}
		}
		return p
	}
	for _, shape := range []struct{ capacity, shards int }{{4, 2}, {32, 8}} {
		dev := &countingDev{MemDisk: blockdev.NewMemDisk(bs, nblocks), t: t}
		for b := 0; b < nblocks; b++ {
			if err := dev.WriteBlock(int64(b), block(b, 0)); err != nil {
				t.Fatal(err)
			}
		}
		c := NewSharded(dev, shape.capacity, shape.shards)
		dev.check = c
		var begun, done [nblocks]atomic.Int32
		var wg, background sync.WaitGroup
		stop := make(chan struct{})
		running := func() bool {
			select {
			case <-stop:
				return false
			default:
				return true
			}
		}
		background.Add(2)
		go func() { // the flusher
			defer background.Done()
			for running() {
				if err := c.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() { // sits on one shard lock at a time
			defer background.Done()
			for k := 0; running(); k = (k + 1) % len(c.shards) {
				c.shards[k].mu.Lock()
				if j := heldShard(c, k); j >= 0 {
					t.Errorf("a goroutine holding shard %d is blocked on shard %d", j, k)
				}
				c.shards[k].mu.Unlock()
				time.Sleep(100 * time.Microsecond)
			}
		}()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < versions; i++ {
					b := w + writers*rng.Intn(nblocks/writers) // writer w owns blocks = w mod writers
					v := begun[b].Add(1)
					if err := c.WriteBlock(int64(b), block(b, byte(v))); err != nil {
						t.Error(err)
						return
					}
					done[b].Store(v)
				}
			}(w)
		}
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + r)))
				got := make([]byte, 16*bs)
				for i := 0; i < 400; i++ {
					start := rng.Intn(nblocks - 16)
					if r == 3 {
						c.Prefetch(int64(start), 3, nil)
						c.Prefetch(int64(start+5), 1, nil)
						continue
					}
					off := rng.Intn(bs)
					n := 1 + rng.Intn(16*bs-off)
					var floor [17]int32
					for k := range floor {
						floor[k] = done[start+k].Load()
					}
					if err := c.ReadRange(int64(start), off, got[:n]); err != nil {
						t.Error(err)
						return
					}
					seen := int32(-1) // the version of the block j is in
					for j := 0; j < n; j++ {
						k := (off + j) / bs
						b := start + k
						if (off+j)%bs == 0 {
							seen = -1
						}
						if (off+j)%2 == 1 {
							if got[j] != byte(b) {
								t.Errorf("byte %d of extent at %d+%d belongs to block %d, want %d", j, start, off, got[j], b)
								return
							}
							continue
						}
						v := int32(got[j])
						if seen < 0 {
							seen = v
						}
						if v != seen || v < floor[k] || v > begun[b].Load() {
							t.Errorf("block %d read at version %d (first byte %d), want one version in [%d, %d]",
								b, v, seen, floor[k], begun[b].Load())
							return
						}
					}
				}
			}(r)
		}
		wg.Wait()
		close(stop)
		background.Wait()
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); shape.capacity < nblocks/4 && st.Evictions == 0 {
			t.Fatalf("no evictions in a cache of %d blocks: %+v", shape.capacity, st)
		}
		buf := make([]byte, bs)
		for b := 0; b < nblocks; b++ {
			if err := dev.ReadBlock(int64(b), buf); err != nil {
				t.Fatal(err)
			}
			if want := block(b, byte(done[b].Load())); !bytes.Equal(buf, want) {
				t.Fatalf("block %d on the device after Flush is version %d, want %d", b, buf[0], want[0])
			}
		}
	}
}

// TestExtentFillIsOneCallPerAbsentRun: resident blocks split an extent
// into absent runs, and each run is one device call.
func TestExtentFillIsOneCallPerAbsentRun(t *testing.T) {
	const bs = 512
	dev := &countingDev{MemDisk: blockdev.NewMemDisk(bs, 64)}
	for b := int64(0); b < 16; b++ {
		if err := dev.WriteBlock(b, fill(byte(b+1), bs)); err != nil {
			t.Fatal(err)
		}
	}
	c := New(dev, 64)
	if err := c.WriteBlock(3, fill(0xEE, bs)); err != nil { // dirty, newer than the device
		t.Fatal(err)
	}
	buf := make([]byte, bs)
	if err := c.ReadBlock(7, buf); err != nil {
		t.Fatal(err)
	}
	dev.calls.Store(0)
	blocks0, _ := dev.Stats()
	got := make([]byte, 10*bs)
	if err := c.ReadRange(0, 0, got); err != nil {
		t.Fatal(err)
	}
	// [0,3) [4,7) [8,10): three calls, eight blocks.
	blocks, _ := dev.Stats()
	if calls, blocks := dev.calls.Load(), blocks-blocks0; calls != 3 || blocks != 8 {
		t.Fatalf("extent with two resident blocks cost %d calls for %d blocks, want 3 for 8", calls, blocks)
	}
	for b := 0; b < 10; b++ {
		want := byte(b + 1)
		if b == 3 {
			want = 0xEE
		}
		if got[b*bs] != want || got[(b+1)*bs-1] != want {
			t.Fatalf("block %d read as %#x, want %#x", b, got[b*bs], want)
		}
	}
	if st := c.Stats(); st.Misses != 9 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 9 block misses (1 + 8) and 2 hits", st)
	}
	if err := c.ReadRange(0, 100, got[:9*bs]); err != nil {
		t.Fatal(err)
	}
	if calls := dev.calls.Load(); calls != 3 {
		t.Fatalf("a fully resident extent went to the device (%d calls)", calls-3)
	}
	dev.calls.Store(0)
	if n := c.Prefetch(20, 4, nil) + c.Prefetch(30, 2, nil); n != 6 || dev.calls.Load() != 2 {
		t.Fatalf("prefetch of two runs installed %d blocks in %d calls, want 6 in 2", n, dev.calls.Load())
	}
}

// TestClaimedBlocksAreNotReadTwice: while one fill is inside the device
// call, a prefetch of the same blocks leaves them alone and a demand
// read of them waits for the fill instead of issuing its own.
func TestClaimedBlocksAreNotReadTwice(t *testing.T) {
	const bs = 512
	dev := &countingDev{MemDisk: blockdev.NewMemDisk(bs, 64), parked: make(chan struct{}), release: make(chan struct{})}
	for b := int64(0); b < 16; b++ {
		if err := dev.WriteBlock(b, fill(byte(b+1), bs)); err != nil {
			t.Fatal(err)
		}
	}
	c := New(dev, 64)
	read := func(start int64, n int) error {
		got := make([]byte, n*bs)
		if err := c.ReadRange(start, 0, got); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if got[i*bs] != byte(start)+byte(i)+1 {
				return errors.New("extent read returned the wrong block")
			}
		}
		return nil
	}
	errs := make(chan error, 2)
	go func() { errs <- read(4, 8) }()
	<-dev.parked
	if n := c.Prefetch(4, 8, nil); n != 0 || dev.calls.Load() != 1 {
		t.Fatalf("prefetch of claimed blocks installed %d and made the device calls %d", n, dev.calls.Load())
	}
	// Blocks 2-3 and 12-13 are this reader's own; 4-11 it must wait for.
	go func() { errs <- read(2, 12) }()
	close(dev.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if blocks, _ := dev.Stats(); blocks != 12 {
		t.Fatalf("device read %d blocks for 12 distinct ones", blocks)
	}
}

// TestDemandExtentReadKeepsDeviceError: a failed ranged fill returns
// the device's own error, leaves no claim behind (the good neighbours
// can still be read) and returns every pooled buffer.
func TestDemandExtentReadKeepsDeviceError(t *testing.T) {
	const bs = 512
	dev := blockdev.NewMemDisk(bs, 64)
	dev.CorruptBlock(5)
	c := New(dev, 16)
	before := bufpool.Outstanding()
	err := c.ReadRange(2, 0, make([]byte, 8*bs))
	if !errors.Is(err, blockdev.ErrCorrupt) || !strings.Contains(err.Error(), "block 5") {
		t.Fatalf("extent read over a corrupt block: %v, want ErrCorrupt naming block 5", err)
	}
	if grew := bufpool.Outstanding() - before; grew != 0 || c.Len() != 0 {
		t.Fatalf("failed fill left %d pooled buffers out and %d blocks cached", grew, c.Len())
	}
	if err := c.ReadRange(2, 0, make([]byte, 3*bs)); err != nil {
		t.Fatalf("blocks beside the corrupt one unreadable after the failed fill: %v", err)
	}
	// The same run as a prefetch keeps every good block.
	if n := c.Prefetch(2, 6, nil); n != 2 || !c.Contains(6) || !c.Contains(7) || c.Contains(5) {
		t.Fatalf("prefetch over a corrupt block installed %d new blocks, want 6 and 7", n)
	}
}

// dirtyBlocks writes blocks [lo, hi) through c, block b filled with
// base+b.
func dirtyBlocks(t *testing.T, c *BlockCache, lo, hi int64, base byte) {
	t.Helper()
	for b := lo; b < hi; b++ {
		if err := c.WriteBlock(b, fill(base+byte(b), c.dev.BlockSize())); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriteBackFlushIsOneCallPerDirtyRun pins the unit of Flush: dirty
// blocks go out in ascending order, one device call per run of
// consecutive block numbers, at most blockdev.RunLimit blocks each.
func TestWriteBackFlushIsOneCallPerDirtyRun(t *testing.T) {
	const bs = 512
	dev := &countingDev{MemDisk: blockdev.NewMemDisk(bs, 1024)}
	c := New(dev, 512)
	flush := func(want ...[2]int64) {
		t.Helper()
		dev.resetWrites()
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dev.writeRuns, want) {
			t.Fatalf("Flush issued write calls {start, blocks} %v, want %v", dev.writeRuns, want)
		}
		if c.DirtyCount() != 0 {
			t.Fatalf("%d blocks dirty after Flush", c.DirtyCount())
		}
	}
	dirtyBlocks(t, c, 100, 116, 0)
	flush([2]int64{100, 16})
	flush() // nothing dirty, nothing written

	// Written in descending order, with a clean resident block between.
	dirtyBlocks(t, c, 40, 44, 1)
	if err := c.ReadBlock(39, make([]byte, bs)); err != nil {
		t.Fatal(err)
	}
	dirtyBlocks(t, c, 30, 39, 1)
	dirtyBlocks(t, c, 7, 8, 1)
	flush([2]int64{7, 1}, [2]int64{30, 9}, [2]int64{40, 4})

	dirtyBlocks(t, c, 200, 200+blockdev.RunLimit+44, 2)
	flush([2]int64{200, blockdev.RunLimit}, [2]int64{200 + blockdev.RunLimit, 44})
	buf := make([]byte, bs)
	for b, base := range map[int64]byte{7: 1, 38: 1, 43: 1, 115: 0, 200: 2, 499: 2} {
		if err := dev.ReadBlock(b, buf); err != nil {
			t.Fatal(err)
		}
		if want := base + byte(b); buf[0] != want || buf[bs-1] != want {
			t.Fatalf("block %d on the device holds %#x, want %#x", b, buf[0], want)
		}
	}
	if st := c.Stats(); st.WriteBacks != 16+14+blockdev.RunLimit+44 {
		t.Fatalf("WriteBacks = %d, want one per block written", st.WriteBacks)
	}
}

// TestWriteBackDirtyEvictionWritesItsRun: evicting a dirty block writes
// the whole run of consecutive dirty blocks around it, across shards, in
// one device call, and leaves the others resident and clean.
func TestWriteBackDirtyEvictionWritesItsRun(t *testing.T) {
	const bs = 512
	dev := &countingDev{MemDisk: blockdev.NewMemDisk(bs, 64)}
	c := NewSharded(dev, 8, 4)
	dirtyBlocks(t, c, 10, 18, 0) // fills the cache, two blocks a shard
	before := bufpool.Outstanding()
	// Block 40 needs room in shard 0, whose oldest entry is block 12.
	if err := c.ReadBlock(40, make([]byte, bs)); err != nil {
		t.Fatal(err)
	}
	if want := [][2]int64{{10, 8}}; !slices.Equal(dev.writeRuns, want) {
		t.Fatalf("dirty eviction issued write calls {start, blocks} %v, want %v", dev.writeRuns, want)
	}
	if c.Contains(12) || c.DirtyCount() != 0 || c.Len() != 8 {
		t.Fatalf("after the eviction: block 12 resident %v, %d dirty, %d cached", c.Contains(12), c.DirtyCount(), c.Len())
	}
	if st := c.Stats(); st.WriteBacks != 8 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 8 blocks written back for 1 eviction", st)
	}
	if grew := bufpool.Outstanding() - before; grew != 0 {
		t.Fatalf("pool outstanding moved by %d over an eviction that replaced one block", grew)
	}
}

// TestWriteBackFailureKeepsTheRunDirty: a failed ranged write-back
// returns the device's error, leaves every block of the run dirty and
// resident, and returns the staging buffer; the next Flush writes them.
func TestWriteBackFailureKeepsTheRunDirty(t *testing.T) {
	const bs = 512
	dev := &countingDev{MemDisk: blockdev.NewMemDisk(bs, 64)}
	c := NewSharded(dev, 8, 4)
	dirtyBlocks(t, c, 10, 18, 0)
	before := bufpool.Outstanding()
	boom := errors.New("medium error")
	dev.FailNext(13, boom)
	if err := c.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush over a failing block: %v, want the device's error", err)
	}
	dev.FailNext(13, boom)
	if err := c.WriteBlock(40, fill(1, bs)); !errors.Is(err, boom) { // evicts 12
		t.Fatalf("write needing a failing write-back: %v, want the device's error", err)
	}
	if c.DirtyCount() != 8 || c.Len() != 8 || c.Contains(40) {
		t.Fatalf("after failed write-backs: %d dirty, %d cached", c.DirtyCount(), c.Len())
	}
	if grew := bufpool.Outstanding() - before; grew != 0 {
		t.Fatalf("failed write-backs left %d pooled buffers checked out", grew)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, bs)
	for b := int64(10); b < 18; b++ {
		if err := dev.ReadBlock(b, buf); err != nil || buf[0] != byte(b) {
			t.Fatalf("block %d after the retried Flush: %#x (%v)", b, buf[0], err)
		}
	}
}

// TestWriteBackInFlight parks a Flush inside its device write and
// checks what the rest of the cache may do meanwhile: a write to a block
// of the run does not wait and leaves it dirty; the entries of the run
// are not evicted (a refill would read the device before the write
// lands), so a reader needing their room waits; a second Flush waits for
// the first instead of writing the block again.
func TestWriteBackInFlight(t *testing.T) {
	const bs = 512
	dev := &countingDev{MemDisk: blockdev.NewMemDisk(bs, 64), parkWrites: true,
		parked: make(chan struct{}), release: make(chan struct{})}
	c := NewSharded(dev, 2, 1)
	dirtyBlocks(t, c, 5, 7, 0x10)
	flushed := make(chan error, 2)
	go func() { flushed <- c.Flush() }()
	<-dev.parked

	wrote := make(chan error, 1)
	go func() { wrote <- c.WriteBlock(5, fill(0x77, bs)) }()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a write waited for the write-back of its block")
	}
	if c.DirtyCount() != 1 {
		t.Fatalf("%d blocks dirty after rewriting one in flight, want 1", c.DirtyCount())
	}

	read := make(chan error, 1)
	go func() { read <- c.ReadBlock(9, make([]byte, bs)) }() // needs an entry's room
	go func() { flushed <- c.Flush() }()
	select {
	case <-read:
		t.Fatal("a block was evicted while its write-back was in flight")
	case <-flushed:
		t.Fatal("a second Flush returned before the in-flight write-back landed")
	case <-time.After(50 * time.Millisecond):
	}
	if !c.Contains(5) || !c.Contains(6) {
		t.Fatal("a block in flight left the cache")
	}

	close(dev.release)
	for i := 0; i < 2; i++ {
		if err := <-flushed; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// {5,6} by the first Flush; 5 again, once, by whichever came next.
	want := [][2]int64{{5, 2}, {5, 1}}
	if !slices.Equal(dev.writeRuns, want) {
		t.Fatalf("write calls {start, blocks} %v, want %v", dev.writeRuns, want)
	}
	buf := make([]byte, bs)
	if err := dev.ReadBlock(5, buf); err != nil || buf[0] != 0x77 {
		t.Fatalf("block 5 on the device holds %#x (%v), want the rewrite", buf[0], err)
	}
}
