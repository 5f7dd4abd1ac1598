package layout

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"nasd/internal/blockdev"
)

func newStore(t *testing.T, blocks int64) (*Store, *blockdev.MemDisk) {
	t.Helper()
	dev := blockdev.NewMemDisk(4096, blocks)
	s, err := Format(dev, FormatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s, dev
}

func TestFormatAndOpen(t *testing.T) {
	s, dev := newStore(t, 1024)
	sb := s.Superblock()
	if sb.Magic != Magic || sb.TotalBlocks != 1024 {
		t.Fatalf("superblock = %+v", sb)
	}
	if sb.DataStart <= 0 || sb.DataStart >= 1024 {
		t.Fatalf("data start = %d", sb.DataStart)
	}
	s2, err := Open(dev, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Superblock() != sb {
		t.Fatalf("reopened superblock differs: %+v vs %+v", s2.Superblock(), sb)
	}
}

func TestOpenUnformatted(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 64)
	if _, err := Open(dev, OpenOptions{}); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("open unformatted: %v", err)
	}
}

func TestFormatTooSmall(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 10)
	if _, err := Format(dev, FormatOptions{OnodeCount: 4096}); err == nil {
		t.Fatal("format of too-small device succeeded")
	}
}

func TestAllocUniqueAndInDataRegion(t *testing.T) {
	s, _ := newStore(t, 1024)
	seen := make(map[int64]bool)
	sb := s.Superblock()
	for i := 0; i < 50; i++ {
		blks, err := s.Alloc(10, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blks {
			if seen[b] {
				t.Fatalf("block %d allocated twice", b)
			}
			seen[b] = true
			if b < sb.DataStart || b >= sb.TotalBlocks {
				t.Fatalf("block %d outside data region", b)
			}
		}
	}
}

func TestAllocExhaustionAndFree(t *testing.T) {
	s, _ := newStore(t, 256)
	free := s.FreeBlocks()
	blks, err := s.Alloc(int(free), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(1, 0); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overallocation: %v", err)
	}
	if err := s.Free(blks[0]); err != nil {
		t.Fatal(err)
	}
	again, err := s.Alloc(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != blks[0] {
		t.Fatalf("freed block not reused: got %d want %d", again[0], blks[0])
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	s, _ := newStore(t, 256)
	blks, _ := s.Alloc(1, 0)
	if err := s.Free(blks[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(blks[0]); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestFreeMetadataRejected(t *testing.T) {
	s, _ := newStore(t, 256)
	if err := s.Free(0); err == nil {
		t.Fatal("freeing superblock accepted")
	}
}

func TestRefCounting(t *testing.T) {
	s, _ := newStore(t, 256)
	blks, _ := s.Alloc(1, 0)
	b := blks[0]
	if s.RefCount(b) != 1 {
		t.Fatalf("refcount = %d", s.RefCount(b))
	}
	if err := s.IncRef(b); err != nil {
		t.Fatal(err)
	}
	if s.RefCount(b) != 2 {
		t.Fatalf("refcount = %d", s.RefCount(b))
	}
	_ = s.Free(b)
	if s.RefCount(b) != 1 {
		t.Fatal("free did not decrement")
	}
	_ = s.Free(b)
	if s.RefCount(b) != 0 {
		t.Fatal("block not freed at zero")
	}
	if err := s.IncRef(b); err == nil {
		t.Fatal("IncRef on free block accepted")
	}
}

func TestOnodeRoundTrip(t *testing.T) {
	s, _ := newStore(t, 1024)
	idx, err := s.AllocOnode()
	if err != nil {
		t.Fatal(err)
	}
	o := Onode{
		ObjectID: 42, Partition: 3, Version: 7, Size: 123456,
		CreateSec: 111, ModSec: 222, AttrModSec: 333,
		Prealloc: 1 << 20, Cluster: 41,
	}
	copy(o.Uninterp[:], []byte("filesystem private attribute data"))
	o.Direct[0] = 100
	o.Direct[19] = 200
	o.Indirect = 300
	o.Indirect2 = 400
	if err := s.WriteOnode(idx, &o); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadOnode(idx)
	if err != nil {
		t.Fatal(err)
	}
	if got != o {
		t.Fatalf("onode round trip mismatch:\n got %+v\nwant %+v", got, o)
	}
}

func TestOnodeIndexMaintained(t *testing.T) {
	s, _ := newStore(t, 1024)
	idx, _ := s.AllocOnode()
	o := Onode{ObjectID: 42}
	if err := s.WriteOnode(idx, &o); err != nil {
		t.Fatal(err)
	}
	got, ok := s.FindOnode(42)
	if !ok || got != idx {
		t.Fatalf("FindOnode = %d, %v", got, ok)
	}
	// Releasing the slot removes the index entry.
	if err := s.WriteOnode(idx, &Onode{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.FindOnode(42); ok {
		t.Fatal("freed object still indexed")
	}
}

func TestOnodeExhaustion(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 512)
	s, err := Format(dev, FormatOptions{OnodeCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.AllocOnode(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AllocOnode(); !errors.Is(err, ErrNoOnodes) {
		t.Fatalf("onode overallocation: %v", err)
	}
}

func TestOnodeBounds(t *testing.T) {
	s, _ := newStore(t, 1024)
	if _, err := s.ReadOnode(-1); !errors.Is(err, ErrBadOnode) {
		t.Fatal("negative onode read accepted")
	}
	if err := s.WriteOnode(1<<30, &Onode{}); !errors.Is(err, ErrBadOnode) {
		t.Fatal("huge onode write accepted")
	}
}

func TestBMapDirectIndirectDouble(t *testing.T) {
	s, _ := newStore(t, 4096)
	var o Onode
	p := s.ptrsPerBlock

	// Direct.
	b0, err := s.BMapAlloc(&o, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s.BMap(&o, 0); got != b0 {
		t.Fatalf("direct bmap = %d want %d", got, b0)
	}
	// Single indirect.
	bi, err := s.BMapAlloc(&o, NumDirect+5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.Indirect == 0 {
		t.Fatal("indirect block not allocated")
	}
	if got, _ := s.BMap(&o, NumDirect+5); got != bi {
		t.Fatalf("indirect bmap = %d want %d", got, bi)
	}
	// Double indirect.
	fb := NumDirect + p + 3*p + 7
	bd, err := s.BMapAlloc(&o, fb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.Indirect2 == 0 {
		t.Fatal("double indirect block not allocated")
	}
	if got, _ := s.BMap(&o, fb); got != bd {
		t.Fatalf("double indirect bmap = %d want %d", got, bd)
	}
}

func TestBMapHolesReadZero(t *testing.T) {
	s, _ := newStore(t, 1024)
	var o Onode
	if got, err := s.BMap(&o, 5); err != nil || got != 0 {
		t.Fatalf("hole bmap = %d, %v", got, err)
	}
	buf := make([]byte, 4096)
	buf[0] = 0xFF
	if err := s.ReadDataBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatal("hole read nonzero")
	}
}

func TestBMapTooBig(t *testing.T) {
	s, _ := newStore(t, 1024)
	var o Onode
	huge := int64(NumDirect) + s.ptrsPerBlock + s.ptrsPerBlock*s.ptrsPerBlock
	if _, err := s.BMap(&o, huge); !errors.Is(err, ErrTooBig) {
		t.Fatalf("oversized bmap: %v", err)
	}
	if _, err := s.BMapAlloc(&o, huge, 0); !errors.Is(err, ErrTooBig) {
		t.Fatalf("oversized bmap alloc: %v", err)
	}
}

func TestCloneAndCOW(t *testing.T) {
	s, _ := newStore(t, 4096)
	var orig Onode
	orig.ObjectID = 1

	// Write identifiable data to a direct and an indirect block.
	blkA, err := s.BMapAlloc(&orig, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dataA := bytes.Repeat([]byte{0xA1}, 4096)
	if err := s.WriteDataBlock(blkA, dataA); err != nil {
		t.Fatal(err)
	}
	blkB, err := s.BMapAlloc(&orig, NumDirect+2, 0)
	if err != nil {
		t.Fatal(err)
	}
	dataB := bytes.Repeat([]byte{0xB2}, 4096)
	if err := s.WriteDataBlock(blkB, dataB); err != nil {
		t.Fatal(err)
	}

	// Clone: incref every block, copy the onode.
	if err := s.CloneOnodeBlocks(&orig); err != nil {
		t.Fatal(err)
	}
	clone := orig
	clone.ObjectID = 2

	if s.RefCount(blkA) != 2 || s.RefCount(blkB) != 2 {
		t.Fatalf("refcounts after clone: %d, %d", s.RefCount(blkA), s.RefCount(blkB))
	}

	// Writing through the clone must not disturb the original.
	nb, err := s.BMapAlloc(&clone, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nb == blkA {
		t.Fatal("COW did not copy shared block")
	}
	if err := s.WriteDataBlock(nb, bytes.Repeat([]byte{0xCC}, 4096)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	origBlk, _ := s.BMap(&orig, 0)
	if err := s.ReadDataBlock(origBlk, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, dataA) {
		t.Fatal("original data disturbed by clone write")
	}
	if s.RefCount(blkA) != 1 {
		t.Fatalf("old shared block refcount = %d, want 1", s.RefCount(blkA))
	}

	// COW through the indirect path: the indirect block itself must be
	// copied before the clone's pointer is updated.
	origInd := orig.Indirect
	nbi, err := s.BMapAlloc(&clone, NumDirect+2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nbi == blkB {
		t.Fatal("indirect COW did not copy data block")
	}
	if clone.Indirect == origInd {
		t.Fatal("indirect pointer block still shared after write")
	}
	got, _ := s.BMap(&orig, NumDirect+2)
	if got != blkB {
		t.Fatalf("original indirect mapping changed: %d want %d", got, blkB)
	}
}

func TestFreeObjectBlocks(t *testing.T) {
	s, _ := newStore(t, 4096)
	var o Onode
	for _, fb := range []int64{0, 5, NumDirect + 1, NumDirect + s.ptrsPerBlock + 10} {
		if _, err := s.BMapAlloc(&o, fb, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := s.FreeBlocks()
	if err := s.FreeObjectBlocks(&o); err != nil {
		t.Fatal(err)
	}
	after := s.FreeBlocks()
	// 4 data blocks + 1 indirect + 1 double-indirect + 1 L1 block = 7.
	if after-before != 7 {
		t.Fatalf("freed %d blocks, want 7", after-before)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 1024)
	s, err := Format(dev, FormatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := s.AllocOnode()
	o := Onode{ObjectID: 99, Partition: 2, Size: 8192}
	blk, err := s.BMapAlloc(&o, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x5A}, 4096)
	if err := s.WriteDataBlock(blk, want); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteOnode(idx, &o); err != nil {
		t.Fatal(err)
	}
	_ = s.NextObjectID()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dev, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idx2, ok := s2.FindOnode(99)
	if !ok || idx2 != idx {
		t.Fatalf("object lost across reopen: %d %v", idx2, ok)
	}
	o2, err := s2.ReadOnode(idx2)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Size != 8192 || o2.Partition != 2 {
		t.Fatalf("onode = %+v", o2)
	}
	blk2, _ := s2.BMap(&o2, 0)
	if blk2 != blk {
		t.Fatalf("block map lost: %d want %d", blk2, blk)
	}
	if s2.RefCount(blk) != 1 {
		t.Fatal("refcounts lost across reopen")
	}
	buf := make([]byte, 4096)
	if err := s2.ReadDataBlock(blk2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("data lost across reopen")
	}
	// The allocator must not hand out the persisted block again.
	got, err := s2.Alloc(1, blk)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == blk {
		t.Fatal("reopened allocator reallocated a live block")
	}
}

func TestObjectIDs(t *testing.T) {
	s, _ := newStore(t, 1024)
	for i := uint64(1); i <= 5; i++ {
		idx, _ := s.AllocOnode()
		part := uint16(1)
		if i > 3 {
			part = 2
		}
		if err := s.WriteOnode(idx, &Onode{ObjectID: i, Partition: part}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.ObjectIDs(0)); got != 5 {
		t.Fatalf("all objects = %d", got)
	}
	if got := len(s.ObjectIDs(1)); got != 3 {
		t.Fatalf("partition 1 objects = %d", got)
	}
	if got := len(s.ObjectIDs(2)); got != 2 {
		t.Fatalf("partition 2 objects = %d", got)
	}
}

func TestNextObjectIDMonotonic(t *testing.T) {
	s, _ := newStore(t, 256)
	a := s.NextObjectID()
	b := s.NextObjectID()
	if b != a+1 {
		t.Fatalf("ids = %d, %d", a, b)
	}
}

func TestMaxObjectSize(t *testing.T) {
	s, _ := newStore(t, 256)
	want := uint64(4096) * (NumDirect + 512 + 512*512)
	if got := s.MaxObjectSize(); got != want {
		t.Fatalf("max size = %d want %d", got, want)
	}
}

// Property: a random sequence of alloc/free operations never
// double-allocates a block and never exceeds the data region.
func TestAllocatorInvariantProperty(t *testing.T) {
	s, _ := newStore(t, 512)
	sb := s.Superblock()
	rng := rand.New(rand.NewSource(11))
	live := make(map[int64]bool)
	for i := 0; i < 2000; i++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			blks, err := s.Alloc(1, int64(rng.Intn(512)))
			if errors.Is(err, ErrNoSpace) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			b := blks[0]
			if live[b] {
				t.Fatalf("double allocation of %d", b)
			}
			if b < sb.DataStart || b >= sb.TotalBlocks {
				t.Fatalf("allocated %d outside data region", b)
			}
			live[b] = true
		} else {
			for b := range live {
				if err := s.Free(b); err != nil {
					t.Fatal(err)
				}
				delete(live, b)
				break
			}
		}
	}
}
