package object

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"nasd/internal/blockdev"
	"nasd/internal/bufpool"
)

// countingRanger counts read calls on a ranged device and how often
// each block was read.
type countingRanger struct {
	*blockdev.MemDisk
	mu       sync.Mutex
	calls    int
	perBlock map[int64]int
}

func (d *countingRanger) count(start int64, n int) {
	d.mu.Lock()
	d.calls++
	for b := start; b < start+int64(n); b++ {
		d.perBlock[b]++
	}
	d.mu.Unlock()
}

func (d *countingRanger) ReadBlock(b int64, buf []byte) error {
	d.count(b, 1)
	return d.MemDisk.ReadBlock(b, buf)
}

func (d *countingRanger) ReadBlocks(start int64, buf []byte) error {
	d.count(start, len(buf)/d.BlockSize())
	return d.MemDisk.ReadBlocks(start, buf)
}

func (d *countingRanger) reset() {
	d.mu.Lock()
	d.calls, d.perBlock = 0, map[int64]int{}
	d.mu.Unlock()
}

func newExtentStore(t *testing.T, cfg Config) (*Store, *countingRanger) {
	t.Helper()
	dev := &countingRanger{MemDisk: blockdev.NewMemDisk(4096, 4096), perBlock: map[int64]int{}}
	s, err := Format(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartition(1, 0); err != nil {
		t.Fatal(err)
	}
	return s, dev
}

// chill flushes the store and drops the object's data blocks from the
// cache, leaving layout metadata warm: the next read of the object is
// cold at the device and nothing else is.
func chill(t *testing.T, s *Store, dev *countingRanger, id uint64) {
	t.Helper()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	_, o, err := s.classic.lookup(1, id)
	if err != nil {
		t.Fatal(err)
	}
	err = s.classic.lay.ForEachBlock(&o, func(phys int64, isPtr bool) error {
		if !isPtr {
			s.classic.cache.Invalidate(phys)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dev.reset()
}

func pattern(seed byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i/4096) + byte(i%251)
	}
	return p
}

func mustRead(t *testing.T, s *Store, id uint64, off uint64, want []byte) {
	t.Helper()
	got, err := s.Read(1, id, off, len(want))
	if err != nil {
		t.Fatal(err)
	}
	defer bufpool.Put(got)
	if !bytes.Equal(got, want) {
		t.Fatalf("read of %d bytes at %d returned different bytes", len(want), off)
	}
}

// TestExtentReadDeviceCalls pins the unit of a classic cache fill: one
// device call per physically consecutive run of absent blocks.
func TestExtentReadDeviceCalls(t *testing.T) {
	const k64 = 64 << 10
	s, dev := newExtentStore(t, Config{ReadaheadBlocks: -1})

	// Contiguous: 16 blocks, one call; then resident, none.
	a, _ := s.Create(1)
	data := pattern(1, k64)
	if err := s.Write(1, a, 0, data); err != nil {
		t.Fatal(err)
	}
	chill(t, s, dev, a)
	mustRead(t, s, a, 0, data)
	if dev.calls != 1 {
		t.Fatalf("cold 64 KiB read of a contiguous object cost %d device calls, want 1", dev.calls)
	}
	mustRead(t, s, a, 100, data[100:k64-100])
	if dev.calls != 1 {
		t.Fatalf("resident read went to the device (%d calls)", dev.calls-1)
	}

	// A hole: blocks [0,4) and [8,12) are mapped, [4,8) reads as zeros.
	h, _ := s.Create(1)
	holed := make([]byte, 12*4096)
	copy(holed, pattern(2, 4*4096))
	copy(holed[8*4096:], pattern(3, 4*4096))
	if err := s.Write(1, h, 0, holed[:4*4096]); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, h, 8*4096, holed[8*4096:]); err != nil {
		t.Fatal(err)
	}
	chill(t, s, dev, h)
	mustRead(t, s, h, 0, holed)
	if dev.calls != 2 {
		t.Fatalf("read across a hole cost %d device calls, want one per mapped run (2)", dev.calls)
	}

	// An allocation discontinuity: x and y grow in alternation, so x is
	// three physical runs of four blocks.
	x, _ := s.Create(1)
	y, _ := s.Create(1)
	xdata := pattern(4, 12*4096)
	for i := 0; i < 3; i++ {
		if err := s.Write(1, x, uint64(i*4*4096), xdata[i*4*4096:(i+1)*4*4096]); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(1, y, uint64(i*4*4096), pattern(5, 4*4096)); err != nil {
			t.Fatal(err)
		}
	}
	chill(t, s, dev, x)
	mustRead(t, s, x, 2048, xdata[2048:len(xdata)-2048]) // unaligned ends
	if dev.calls != 3 {
		t.Fatalf("read across two discontinuities cost %d device calls, want 3", dev.calls)
	}
	for b, n := range dev.perBlock {
		if n != 1 {
			t.Fatalf("block %d read %d times", b, n)
		}
	}
}

// TestConcurrentExtentReadsReadEachBlockOnce: eight readers at
// consecutive 64 KiB offsets of one object, readahead on, the pattern
// of a pipelined client read. Demand fills and readahead overlap on the
// same blocks; claims must keep every block to one device read.
func TestConcurrentExtentReadsReadEachBlockOnce(t *testing.T) {
	const k64 = 64 << 10
	s, dev := newExtentStore(t, Config{})
	id, _ := s.Create(1)
	data := pattern(7, 10*k64)
	if err := s.Write(1, id, 0, data); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		chill(t, s, dev, id)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := s.Read(1, id, uint64(i*k64), k64)
				if err != nil {
					t.Error(err)
					return
				}
				defer bufpool.Put(got)
				if !bytes.Equal(got, data[i*k64:(i+1)*k64]) {
					t.Errorf("fragment %d returned different bytes", i)
				}
			}(i)
		}
		wg.Wait()
		for b, n := range dev.perBlock {
			if n > 1 {
				t.Fatalf("round %d: block %d read from the device %d times", round, b, n)
			}
		}
	}
}

// TestExtentReadsRecyclePooledBuffers: cold extent reads, and a failed
// one, return every pooled buffer they take (the staging buffer, the
// result on the error path); only the cache's own entries stay out.
func TestExtentReadsRecyclePooledBuffers(t *testing.T) {
	const k64 = 64 << 10
	s, dev := newExtentStore(t, Config{CacheBlocks: 32}) // half the object: every read is cold
	id, _ := s.Create(1)
	data := pattern(9, 4*k64)
	if err := s.Write(1, id, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // fill the cache and warm the pool's classes
		mustRead(t, s, id, uint64(i%4*k64), data[i%4*k64:(i%4+1)*k64])
	}
	dev.reset()
	before := bufpool.Outstanding()
	const reads = 1000
	for i := 0; i < reads; i++ {
		mustRead(t, s, id, uint64(i%4*k64), data[i%4*k64:(i%4+1)*k64])
	}
	if grew := bufpool.Outstanding() - before; grew != 0 {
		t.Fatalf("bufpool.Outstanding moved by %d over %d cold extent reads", grew, reads)
	}
	if dev.calls < reads {
		t.Fatalf("only %d device calls in %d reads: the reads were not cold", dev.calls, reads)
	}

	// A corrupt block in the middle of the extent: the device's error
	// comes back unchanged and nothing stays checked out. The cache may
	// have evicted to make room before the error, so compare against the
	// blocks it holds.
	_, o, err := s.classic.lookup(1, id)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := s.classic.lay.BMap(&o, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.classic.cache.Invalidate(bad)
	dev.CorruptBlock(bad)
	held := int64(s.classic.cache.Len())
	before = bufpool.Outstanding()
	_, err = s.Read(1, id, 0, k64)
	if !errors.Is(err, blockdev.ErrCorrupt) || !strings.Contains(err.Error(), "block") {
		t.Fatalf("read over a corrupt block: %v, want the device's ErrCorrupt", err)
	}
	if grew := bufpool.Outstanding() - before - (int64(s.classic.cache.Len()) - held); grew != 0 {
		t.Fatalf("failed extent read left %d pooled buffers checked out", grew)
	}
}
