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
// written, and per call where, how many blocks, and the bytes.
type writeLog struct {
	*blockdev.MemDisk
	mu      sync.Mutex
	written map[int64]int
	calls   []string
	runs    [][2]int64
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
	blks, err := s.BMapAllocRange(&o, first, n, 0)
	if err != nil || len(blks) != n {
		t.Fatalf("BMapAllocRange mapped %d of %d blocks: %v", len(blks), n, err)
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
	blks, err := s.BMapAllocRange(&o, 0, 40, 0)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("range of 40 blocks on 30 free: %v, want ErrNoSpace", err)
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
	if s, err := Open(a.MemDisk); err != nil {
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
