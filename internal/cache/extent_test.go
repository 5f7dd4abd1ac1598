package cache

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nasd/internal/blockdev"
	"nasd/internal/bufpool"
)

// countingDev counts device read calls (MemDisk.Stats counts the
// blocks they move) and can park the first ranged read until the test
// releases it.
type countingDev struct {
	*blockdev.MemDisk
	calls    atomic.Int64
	parkOnce sync.Once
	parked   chan struct{} // closed when the first ranged read is inside the device
	release  chan struct{} // nil: never park
}

func (d *countingDev) ReadBlock(b int64, buf []byte) error {
	d.calls.Add(1)
	return d.MemDisk.ReadBlock(b, buf)
}

func (d *countingDev) ReadBlocks(start int64, buf []byte) error {
	d.calls.Add(1)
	if d.release != nil {
		d.parkOnce.Do(func() {
			close(d.parked)
			<-d.release
		})
	}
	return d.MemDisk.ReadBlocks(start, buf)
}

// TestExtentReadModel drives random writes, extent reads, prefetches
// and flushes through caches of several shapes (one smaller than the
// longest run) and compares every byte an extent read returns with a
// per-block model of what the device or a newer cached write holds.
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
				start := rng.Intn(nblocks - 16)
				run := make([]int64, 1+rng.Intn(16))
				for i := range run {
					run[i] = int64(start + i)
				}
				c.Prefetch(run)
			case k == 3 && op%50 == 0:
				if err := c.Flush(); err != nil {
					t.Fatal(err)
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
// against block writers. Block b always holds its own number in odd
// bytes and one version in every even byte; a writer publishes the
// version it is about to write and the one it has written, so a reader
// can bound what each block of its extent may legally contain.
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
		dev := blockdev.NewMemDisk(bs, nblocks)
		for b := 0; b < nblocks; b++ {
			if err := dev.WriteBlock(int64(b), block(b, 0)); err != nil {
				t.Fatal(err)
			}
		}
		c := NewSharded(dev, shape.capacity, shape.shards)
		var begun, done [nblocks]atomic.Int32
		var wg sync.WaitGroup
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
						c.Prefetch([]int64{int64(start), int64(start + 1), int64(start + 2), int64(start + 5)})
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
		if err := c.Flush(); err != nil {
			t.Fatal(err)
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
	if n := c.Prefetch([]int64{20, 21, 22, 23, 30, 31}); n != 6 || dev.calls.Load() != 2 {
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
	if n := c.Prefetch([]int64{4, 5, 6, 7, 8, 9, 10, 11}); n != 0 || dev.calls.Load() != 1 {
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
	if n := c.Prefetch([]int64{2, 3, 4, 5, 6, 7}); n != 2 || !c.Contains(6) || !c.Contains(7) || c.Contains(5) {
		t.Fatalf("prefetch over a corrupt block installed %d new blocks, want 6 and 7", n)
	}
}
