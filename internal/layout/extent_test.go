package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"nasd/internal/blockdev"
	"nasd/internal/bufpool"
)

// writeLog records every device write: how often each block was
// written, and per call where, how many blocks, and the bytes. onWrite,
// when set, runs before a write is passed on.
type writeLog struct {
	*blockdev.MemDisk
	mu      sync.Mutex
	written map[int64]int
	calls   []string
	runs    [][2]int64
	onWrite func(start int64)
}

func newWriteLog(bs int, blocks int64) *writeLog {
	return &writeLog{MemDisk: blockdev.NewMemDisk(bs, blocks), written: map[int64]int{}}
}

func (d *writeLog) WriteBlock(b int64, data []byte) error { return d.WriteBlocks(b, data) }

func (d *writeLog) WriteBlocks(start int64, data []byte) error {
	n := int64(len(data) / d.BlockSize())
	d.mu.Lock()
	for b := start; b < start+n; b++ {
		d.written[b]++
	}
	d.runs = append(d.runs, [2]int64{start, n})
	d.calls = append(d.calls, fmt.Sprintf("%d:%x", start, data))
	d.mu.Unlock()
	if d.onWrite != nil {
		d.onWrite(start)
	}
	return d.MemDisk.WriteBlocks(start, data)
}

func (d *writeLog) reset() {
	d.written, d.calls, d.runs = map[int64]int{}, nil, nil
}

// slotOnDevice reads slot idx of pointer block blk from the device.
func slotOnDevice(t *testing.T, dev blockdev.Device, blk, idx int64) int64 {
	t.Helper()
	buf := make([]byte, dev.BlockSize())
	if err := dev.ReadBlock(blk, buf); err != nil {
		t.Fatal(err)
	}
	return int64(binary.LittleEndian.Uint64(buf[idx*8:]))
}

// TestExtentBMapAllocRange maps a range that runs from the direct slots
// through the indirect block into two first-level blocks under the
// double-indirect one. Every pointer block is written once for the whole
// range, after the zeroing write of its birth, and the device then holds
// the mapping the store reports.
func TestExtentBMapAllocRange(t *testing.T) {
	dev := newWriteLog(4096, 8192)
	s, err := Format(dev, FormatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := s.ptrsPerBlock
	var o Onode
	first, n := int64(NumDirect-4), int(4+p+p+8)
	before := bufpool.Outstanding()
	dev.reset()
	blks, gained, err := s.BMapAllocRange(&o, first, n, 0)
	if err != nil || len(blks) != n {
		t.Fatalf("BMapAllocRange mapped %d of %d blocks: %v", len(blks), n, err)
	}
	if want := walked(t, s, &o); gained != want || want != int64(n)+4 {
		t.Fatalf("gained %d references, a walk of the object counts %d, want %d holes filled and 4 pointer blocks born", gained, want, n)
	}
	if grew := bufpool.Outstanding() - before; grew != 4 { // the metadata cache's copies
		t.Fatalf("pool outstanding grew by %d over a range with 4 pointer blocks: their images were not returned", grew)
	}
	seen := map[int64]bool{}
	for i, b := range blks {
		if got, err := s.BMap(&o, first+int64(i)); err != nil || got != b || seen[b] {
			t.Fatalf("file block %d: BMap = %d (%v), range returned %d (seen before: %v)", first+int64(i), got, err, b, seen[b])
		}
		seen[b] = true
	}
	l1a := slotOnDevice(t, dev, o.Indirect2, 0)
	l1b := slotOnDevice(t, dev, o.Indirect2, 1)
	for _, ptr := range []int64{o.Indirect, o.Indirect2, l1a, l1b} {
		if ptr == 0 || dev.written[ptr] != 2 {
			t.Fatalf("pointer block %d written %d times over one range, want the zeroing write and one more", ptr, dev.written[ptr])
		}
	}
	if got := slotOnDevice(t, dev, o.Indirect, p-1); got != blks[4+p-1] {
		t.Fatalf("last indirect slot on the device = %d, want %d", got, blks[4+p-1])
	}
	if got := slotOnDevice(t, dev, l1b, 7); got != blks[n-1] {
		t.Fatalf("last mapped slot on the device = %d, want %d", got, blks[n-1])
	}

	// The one-block case issues the device writes it always did.
	dev.reset()
	if _, err := s.BMapAlloc(&o, NumDirect+p+p+8, 0); err != nil {
		t.Fatal(err)
	}
	if len(dev.written) != 1 || dev.written[l1b] != 1 {
		t.Fatalf("one-block BMapAlloc wrote %v, want its pointer block once", dev.written)
	}

	// A copy-on-write version mapping the same range unshares every data
	// and pointer block and gains nothing; one block more gains one.
	clone := o
	if err := s.CloneOnodeBlocks(&o); err != nil {
		t.Fatal(err)
	}
	size := walked(t, s, &clone)
	cblks, gained, err := s.BMapAllocRange(&clone, first, n+2, 0)
	if err != nil || cblks[0] == blks[0] || clone.Indirect2 == o.Indirect2 {
		t.Fatalf("range over a shared map: %v, first block %d (was %d), double-indirect %d (was %d)", err, cblks[0], blks[0], clone.Indirect2, o.Indirect2)
	}
	if now := walked(t, s, &clone); gained != 1 || now != size+1 {
		t.Fatalf("unsharing %d blocks and filling 1 hole gained %d references, the walk went from %d to %d", n+1, gained, size, now)
	}
}

// walked counts the block references of o the slow way.
func walked(t *testing.T, s *Store, o *Onode) (n int64) {
	t.Helper()
	if err := s.ForEachBlock(o, func(int64, bool) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestExtentBMapAllocRangeOutOfSpace: when the allocator runs dry in the
// middle of a range, the mapped prefix is returned with the error and
// its pointer block has still been written, so an onode persisted next
// points at nothing that was not issued.
func TestExtentBMapAllocRangeOutOfSpace(t *testing.T) {
	dev := newWriteLog(4096, 512)
	s, err := Format(dev, FormatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(int(s.FreeBlocks())-30, 0); err != nil { // leave 30 blocks
		t.Fatal(err)
	}
	var o Onode
	blks, gained, err := s.BMapAllocRange(&o, 0, 40, 0)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("range of 40 blocks on 30 free: %v, want ErrNoSpace", err)
	}
	if gained != 30 || walked(t, s, &o) != 30 {
		t.Fatalf("failed range gained %d references, a walk counts %d, want 30 both", gained, walked(t, s, &o))
	}
	if len(blks) != 29 || s.FreeBlocks() != 0 { // 29 data blocks and the indirect block
		t.Fatalf("mapped %d blocks with %d left free, want 29 and 0", len(blks), s.FreeBlocks())
	}
	for i := NumDirect; i < len(blks); i++ {
		if got := slotOnDevice(t, dev, o.Indirect, int64(i-NumDirect)); got != blks[i] {
			t.Fatalf("slot of file block %d on the device = %d, want %d", i, got, blks[i])
		}
	}
}

// TestExtentSyncWriteOrder: what Sync sends to the device is a function
// of the changes made, not of map iteration. The refcount region goes
// out in ascending order, consecutive blocks in one ranged call, and two
// stores given the same changes issue byte-identical writes (the
// KindRefUpdate payload included).
func TestExtentSyncWriteOrder(t *testing.T) {
	run := func() *writeLog {
		dev := newWriteLog(512, 8192)
		s, err := Format(dev, FormatOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dev.reset()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ { // refcount blocks hold 256 counts here
			if _, err := s.Alloc(1, s.sb.DataStart+rng.Int63n(4*256)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Alloc(1, s.sb.TotalBlocks-300); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		return dev
	}
	a, b := run(), run()
	if !slices.Equal(a.calls, b.calls) {
		t.Fatal("two stores given the same changes issued different device writes")
	}
	var ref [][2]int64
	sb := Superblock{}
	if s, err := Open(a.MemDisk, OpenOptions{}); err != nil {
		t.Fatal(err)
	} else {
		sb = s.Superblock()
	}
	for _, r := range a.runs {
		if r[0] >= sb.RefStart && r[0] < sb.RefStart+sb.RefBlocks {
			ref = append(ref, r)
		}
	}
	if len(ref) != 2 || ref[0][1] < 4 || ref[0][0] > ref[1][0] || ref[1][1] != 1 {
		t.Fatalf("refcount region written as {start, blocks} %v, want one run over the low blocks, then the high one", ref)
	}
}

// TestForEachBlockReadsEachPointerBlockOnce: a walk takes one image per
// pointer block (here cold: one device read each), visits a pointer
// block before what it maps, and still turns a wild slot, which a torn
// pointer block can hold after a crash, into a hole.
func TestForEachBlockReadsEachPointerBlockOnce(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 2048)
	s, err := Format(dev, FormatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := s.ptrsPerBlock
	var o Onode
	n := int(NumDirect + p + p + 3) // the indirect block, the double-indirect one, two below it
	if _, _, err := s.BMapAllocRange(&o, 0, n, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := dev.ReadBlock(o.Indirect, buf); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(buf[8*5:], uint64(s.sb.TotalBlocks+99))
	if err := dev.WriteBlock(o.Indirect, buf); err != nil {
		t.Fatal(err)
	}
	s.meta = newMetaCache(&s.sb)
	before := s.DevReads()
	var order []bool
	if err := s.ForEachBlock(&o, func(phys int64, isPtr bool) error {
		if phys < s.sb.DataStart || phys >= s.sb.TotalBlocks {
			t.Errorf("walk visited block %d outside the data region", phys)
		}
		order = append(order, isPtr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.DevReads() - before; got != 4 {
		t.Fatalf("walk over 4 pointer blocks cost %d metadata reads", got)
	}
	if len(order) != n+4-1 || !order[NumDirect] || order[NumDirect+1] {
		t.Fatalf("walk visited %d blocks, want %d; pointer block first: %v", len(order), n+4-1, order[NumDirect])
	}
}
