package object

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/bufpool"
	"nasd/internal/layout"
	"nasd/internal/telemetry"
)

// countingRanger counts read calls on a ranged device and how often
// each block was read, and the same for writes.
type countingRanger struct {
	*blockdev.MemDisk
	mu         sync.Mutex
	calls      int
	perBlock   map[int64]int
	writeCalls int
	written    map[int64]int
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

func (d *countingRanger) WriteBlock(b int64, data []byte) error {
	return d.WriteBlocks(b, data)
}

func (d *countingRanger) WriteBlocks(start int64, data []byte) error {
	d.mu.Lock()
	d.writeCalls++
	for b := start; b < start+int64(len(data)/d.BlockSize()); b++ {
		d.written[b]++
	}
	d.mu.Unlock()
	return d.MemDisk.WriteBlocks(start, data)
}

// wrote returns how many block writes landed in [start, start+n).
func (d *countingRanger) wrote(start, n int64) (blocks int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for b, k := range d.written {
		if b >= start && b < start+n {
			blocks += k
		}
	}
	return blocks
}

func (d *countingRanger) reset() {
	d.mu.Lock()
	d.calls, d.perBlock = 0, map[int64]int{}
	d.writeCalls, d.written = 0, map[int64]int{}
	d.mu.Unlock()
}

func newCountingRanger(bs int, blocks int64) *countingRanger {
	return &countingRanger{MemDisk: blockdev.NewMemDisk(bs, blocks), perBlock: map[int64]int{}, written: map[int64]int{}}
}

func newExtentStore(t *testing.T, cfg Config) (*Store, *countingRanger) {
	t.Helper()
	dev := newCountingRanger(4096, 4096)
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
// cold at the device and nothing else is. Readahead still in flight
// finishes first.
func chill(t *testing.T, s *Store, dev *countingRanger, id uint64) {
	t.Helper()
	settle(s, id)
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
		settle(s, id)
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
	bad, err := mapOne(s.classic.lay, &o, 5)
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

// TestExtentWriteDeviceCalls pins the unit of the classic write path. A
// fresh object written in 16 appends of 64 KiB touches its indirect
// block in 15 of them: the block is written once per append, after its
// last update in that append, plus the zeroing write when it is born.
// The Flush that follows writes the object's 256 contiguous data blocks
// in one call.
func TestExtentWriteDeviceCalls(t *testing.T) {
	const k64 = 64 << 10
	s, dev := newExtentStore(t, Config{ReadaheadBlocks: -1})
	id, _ := s.Create(1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	dev.reset()
	data := pattern(11, 16*k64)
	for i := 0; i < 16; i++ {
		if err := s.Write(1, id, uint64(i*k64), data[i*k64:(i+1)*k64]); err != nil {
			t.Fatal(err)
		}
	}
	_, o, err := s.classic.lookup(1, id)
	if err != nil {
		t.Fatal(err)
	}
	if o.Indirect == 0 {
		t.Fatal("a 1 MiB object has no indirect block")
	}
	if n := dev.written[o.Indirect]; n > 15+1 {
		t.Fatalf("indirect block written %d times over 15 appends that touch it, want at most 16", n)
	}
	// Nothing but metadata has reached the device yet: per append the
	// pointer block, the journal record and the onode block.
	if dev.writeCalls > 16*3+1 {
		t.Fatalf("%d device write calls for 16 appends, want at most 3 each and the zeroing write", dev.writeCalls)
	}
	first, err := mapOne(s.classic.lay, &o, 0)
	if err != nil {
		t.Fatal(err)
	}
	for fb := int64(1); fb < 256; fb++ {
		want := first + fb
		if fb >= layout.NumDirect {
			want++ // the indirect block was allocated in between
		}
		if phys, _ := mapOne(s.classic.lay, &o, fb); phys != want {
			t.Fatalf("file block %d is at %d, want %d: the object is not contiguous around its indirect block", fb, phys, want)
		}
	}
	dev.reset()
	if err := s.classic.cache.Flush(); err != nil {
		t.Fatal(err)
	}
	// Two runs, split by the indirect block allocated after block 19.
	if dev.writeCalls != 2 || len(dev.written) != 256 {
		t.Fatalf("cache flush of 256 dirty blocks in two runs cost %d write calls for %d blocks, want 2 for 256", dev.writeCalls, len(dev.written))
	}
	chill(t, s, dev, id)
	mustRead(t, s, id, 0, data)
}

// TestExtentAppendWritesOnodeAtFlush pins what a classic append sends to
// a journaled device: one journal write (the onode record with the slots
// of its pointer block, committed before the write returns), and nothing
// to the pointer block or the onode table: the next Flush writes the
// onode block once for every object that shares it, and each object's
// pointer block once. An overwrite that changes nothing in the onode (same
// size, same second) commits nothing, and Create and Remove commit the
// object's onode and the partition table, not the control object's
// unchanged onode as well.
func TestExtentAppendWritesOnodeAtFlush(t *testing.T) {
	const k64 = 64 << 10
	reg := telemetry.NewRegistry()
	s, dev := newExtentStore(t, Config{ReadaheadBlocks: -1, Metrics: reg, Clock: func() time.Time { return time.Unix(1000, 0) }})
	commits := reg.Counter("journal.commits")
	sb := s.classic.lay.Superblock()
	var ids [3]uint64
	data := pattern(21, 2*k64)
	for i := range ids { // 128 KiB each: past the 20 direct slots
		ids[i], _ = s.Create(1)
		if err := s.Write(1, ids[i], 0, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	_, o, err := s.classic.lookup(1, ids[0])
	if err != nil {
		t.Fatal(err)
	}

	dev.reset()
	before := commits.Load()
	if err := s.Write(1, ids[0], 2*k64, data[:k64]); err != nil {
		t.Fatal(err)
	}
	jw, ow := dev.wrote(sb.JournalStart, sb.JournalBlocks), dev.wrote(sb.OnodeStart, sb.OnodeBlocks)
	if dev.writeCalls != 1 || jw != 1 || dev.written[o.Indirect] != 0 || ow != 0 || commits.Load()-before != 1 {
		t.Fatalf("a 64 KiB append cost %d device writes (%d journal blocks, %d of its pointer block, %d onode blocks) and %d commits, want 1 (1, 0, 0) and 1",
			dev.writeCalls, jw, dev.written[o.Indirect], ow, commits.Load()-before)
	}
	for i := 3; i < 8; i++ {
		for _, id := range ids {
			if err := s.Write(1, id, uint64(i*k64), data[:k64]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ow := dev.wrote(sb.OnodeStart, sb.OnodeBlocks); ow != 0 {
		t.Fatalf("%d onode blocks written before the Flush", ow)
	}
	dev.reset()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if ow := dev.wrote(sb.OnodeStart, sb.OnodeBlocks); ow != 1 {
		t.Fatalf("Flush after 16 appends to 3 objects of one onode block wrote %d onode blocks, want 1", ow)
	}
	for _, id := range ids {
		if _, o, err := s.classic.lookup(1, id); err != nil || dev.written[o.Indirect] != 1 {
			t.Fatalf("Flush after appends to object %d wrote its pointer block %d times (%v), want 1", id, dev.written[o.Indirect], err)
		}
	}

	dev.reset()
	before = commits.Load()
	if err := s.Write(1, ids[1], 0, data); err != nil {
		t.Fatal(err)
	}
	if dev.writeCalls != 0 || commits.Load() != before {
		t.Fatalf("an overwrite that leaves the onode as it was cost %d device writes and %d commits", dev.writeCalls, commits.Load()-before)
	}
	id, err := s.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	created := commits.Load() - before
	if err := s.Remove(1, id); err != nil {
		t.Fatal(err)
	}
	if removed := commits.Load() - before - created; created != 2 || removed != 2 {
		t.Fatalf("Create cost %d commits and Remove %d, want 2 each: the object's onode and the partition table", created, removed)
	}
	for _, id := range ids {
		chill(t, s, dev, id)
		mustRead(t, s, id, 0, data)
	}
}

// TestExtentWritesRecyclePooledBuffers: write/flush rounds, and a
// failed write-back, return every pooled buffer they take (pointer-block
// images, the partial-block bounce buffer, the staging buffer); only the
// cache's own entries stay out.
func TestExtentWritesRecyclePooledBuffers(t *testing.T) {
	const k64 = 64 << 10
	s, dev := newExtentStore(t, Config{ReadaheadBlocks: -1})
	id, _ := s.Create(1)
	data := pattern(13, 4*k64)
	if err := s.Write(1, id, 0, data); err != nil {
		t.Fatal(err)
	}
	round := func(i int) {
		t.Helper()
		// Unaligned ends, and a tail that grows the object through its
		// indirect block.
		off := uint64(100 + i%3*k64)
		if err := s.Write(1, id, off, data[:k64+i%7]); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // warm the pool's classes
		round(i)
	}
	held := int64(s.classic.cache.Len())
	before := bufpool.Outstanding()
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		round(i)
	}
	if grew := bufpool.Outstanding() - before - (int64(s.classic.cache.Len()) - held); grew != 0 {
		t.Fatalf("bufpool.Outstanding moved by %d over %d write/flush rounds", grew, rounds)
	}

	_, o, err := s.classic.lookup(1, id)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := mapOne(s.classic.lay, &o, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, id, 0, data[:k64]); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("medium error")
	dev.FailNext(bad, boom)
	before = bufpool.Outstanding()
	if err := s.Flush(); !errors.Is(err, boom) {
		t.Fatalf("flush over a failing block: %v, want the device's error", err)
	}
	if grew := bufpool.Outstanding() - before; grew != 0 {
		t.Fatalf("failed write-back left %d pooled buffers checked out", grew)
	}
	if n := s.classic.cache.DirtyCount(); n < 16 {
		t.Fatalf("%d blocks dirty after the failed write-back of a 16-block run, want all 16 still", n)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	chill(t, s, dev, id)
	mustRead(t, s, id, 0, data[:k64])
}

// TestExtentWritePartialFailure keeps classic.Write's partial-failure
// rule under the ranged mapping: when the allocator runs dry in the
// middle of a write that has crossed into the indirect block, the
// pointer block for the file blocks already mapped is written before the
// onode is persisted. After a remount nothing is orphaned (no refcount
// repair) and the onode points at a pointer block that was issued.
func TestExtentWritePartialFailure(t *testing.T) {
	s, dev := newExtentStore(t, Config{ReadaheadBlocks: -1})
	lay := s.classic.lay
	filler, _ := s.Create(1)
	for off := uint64(0); lay.FreeBlocks() > 30; {
		n := min(int(lay.FreeBlocks())-30, 16) * 4096
		if lay.FreeBlocks() < 64 {
			n = 4096 // the filler's own pointer blocks come out of the same space
		}
		if err := s.Write(1, filler, off, pattern(1, n)); err != nil {
			t.Fatal(err)
		}
		off += uint64(n)
	}
	free := lay.FreeBlocks()
	id, _ := s.Create(1)
	data := pattern(17, 40*4096)
	if err := s.Write(1, id, 0, data); !errors.Is(err, layout.ErrNoSpace) {
		t.Fatalf("write of 40 blocks with %d free: %v, want ErrNoSpace", free, err)
	}
	if lay.FreeBlocks() != 0 {
		t.Fatalf("%d blocks still free after the write ran out of space", lay.FreeBlocks())
	}
	if a, err := s.GetAttr(1, id); err != nil || a.Size != 0 {
		t.Fatalf("size after the failed write = %d (%v), want 0", a.Size, err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if repairs, err := s2.verifyRefs(); err != nil || repairs != 0 {
		t.Fatalf("remount repaired %d refcounts (%v): the failed write orphaned blocks", repairs, err)
	}
	_, o, err := s2.classic.lookup(1, id)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.classic.footprint(&o); got != free || o.Indirect == 0 {
		t.Fatalf("object holds %d blocks after remount (indirect %d), want the %d the write mapped", got, o.Indirect, free)
	}
	// The mapped prefix carries this write's bytes.
	if err := s2.SetAttr(1, id, Attributes{Size: uint64(free-1) * 4096}, SetSize); err != nil {
		t.Fatal(err)
	}
	mustRead(t, s2, id, 0, data[:(free-1)*4096])
}

// mapOne is the one-block layout.Map: the physical block of fb, 0 for
// a hole.
func mapOne(lay *layout.Store, o *layout.Onode, fb int64) (int64, error) {
	phys, _, err := lay.Map(o, fb, 1)
	return phys, err
}
