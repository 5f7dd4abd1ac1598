package layout

import (
	"bytes"
	"sync"
	"testing"

	"nasd/internal/bufpool"
)

// Pointer blocks are journaled: a block-map update changes them in the
// metadata cache, the object's onode record carries the slot changes,
// and the blocks are written in place at the next write-back. These
// tests pin what the device holds at each step and what a mount
// replays.

// TestPointerBlockWriteBackWritesCommittedImage: a pointer block with a
// committed change and a newer uncommitted one is written back as of its
// commit; the newer change reaches the device only after its own commit
// and write-back.
func TestPointerBlockWriteBackWritesCommittedImage(t *testing.T) {
	dev := newWriteLog(4096, 8192)
	s, err := Format(dev, FormatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o := Onode{ObjectID: 5}
	first, err := allocOne(s, &o, NumDirect, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustWriteOnode(t, s, 0, &o)
	second, err := allocOne(s, &o, NumDirect+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got0, got1 := slotOnDevice(t, dev, o.Indirect, 0), slotOnDevice(t, dev, o.Indirect, 1); got0 != first || got1 != 0 {
		t.Fatalf("write-back before the second commit put slots %d, %d on the device, want %d, 0", got0, got1, first)
	}
	if m, err := mapOne(s, &o, NumDirect+1); err != nil || m != second {
		t.Fatalf("Map of the uncommitted slot = %d (%v), want %d", m, err, second)
	}
	mustWriteOnode(t, s, 0, &o)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := slotOnDevice(t, dev, o.Indirect, 1); got != second {
		t.Fatalf("slot 1 on the device after its commit and write-back = %d, want %d", got, second)
	}
	if len(s.meta.open) != 0 || len(s.meta.dirty) != 0 {
		t.Fatalf("after the write-back: %d blocks open, %d dirty", len(s.meta.open), len(s.meta.dirty))
	}
}

// TestFreedDirtyPointerBlockWrittenBeforeReuse: removing an object whose
// pointer block holds committed changes the device lacks writes that
// image in place as the block is freed, so no later write-back can land
// on the block after it is reallocated.
func TestFreedDirtyPointerBlockWrittenBeforeReuse(t *testing.T) {
	dev := newWriteLog(4096, 8192)
	s, err := Format(dev, FormatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o := Onode{ObjectID: 5}
	blk, err := allocOne(s, &o, NumDirect+3, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustWriteOnode(t, s, 0, &o)
	ind := o.Indirect
	dev.reset()
	if err := s.FreeObjectBlocks(&o); err != nil {
		t.Fatal(err)
	}
	if dev.written[ind] != 1 || slotOnDevice(t, dev, ind, 3) != blk {
		t.Fatalf("freeing a dirty pointer block wrote it %d times, slot 3 on the device %d, want once and %d", dev.written[ind], slotOnDevice(t, dev, ind, 3), blk)
	}
	mustWriteOnode(t, s, 0, &Onode{})
	data := bytes.Repeat([]byte{0xD7}, 4096)
	if got, err := s.Alloc(1, ind); err != nil || got[0] != ind {
		t.Fatalf("Alloc near the freed pointer block = %v (%v), want it back", got, err)
	}
	if err := s.WriteDataBlock(ind, data); err != nil {
		t.Fatal(err)
	}
	dev.reset()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if dev.written[ind] != 0 {
		t.Fatal("a write-back wrote the freed pointer block's image over its new contents")
	}
}

// TestMountReplaysPointerSlots: a mount with no write-back since the
// commits patches the journaled slots onto the pointer blocks a live
// onode reaches (a fresh indirect block, a double-indirect block and the
// first-level block under it) and leaves a block that was freed and
// reused as data alone.
func TestMountReplaysPointerSlots(t *testing.T) {
	dev := newWriteLog(4096, 8192)
	s, err := Format(dev, FormatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := s.ptrsPerBlock
	live := Onode{ObjectID: 5}
	blks, _, err := s.MapAlloc(&live, NumDirect+p-2, 4, 0) // two under the indirect block, two under the double-indirect one
	if err != nil {
		t.Fatal(err)
	}
	mustWriteOnode(t, s, 0, &live)
	gone := Onode{ObjectID: 6}
	if _, err := allocOne(s, &gone, NumDirect, 0); err != nil {
		t.Fatal(err)
	}
	mustWriteOnode(t, s, 1, &gone)
	reused := gone.Indirect
	if err := s.Sync(); err != nil { // the write-back before the crash window
		t.Fatal(err)
	}
	// In the window: a change to the live object's blocks is committed,
	// the other object is removed and its pointer block reallocated and
	// written as data. Then the power goes.
	if _, err := unmapOne(s, &live, NumDirect+p-2); err != nil {
		t.Fatal(err)
	}
	mustWriteOnode(t, s, 0, &live)
	if _, err := allocOne(s, &gone, NumDirect+1, 0); err != nil {
		t.Fatal(err)
	}
	mustWriteOnode(t, s, 1, &gone)
	if err := s.FreeObjectBlocks(&gone); err != nil {
		t.Fatal(err)
	}
	mustWriteOnode(t, s, 1, &Onode{})
	if got, err := s.Alloc(1, reused); err != nil || got[0] != reused {
		t.Fatalf("Alloc near the freed pointer block = %v (%v), want it back", got, err)
	}
	data := bytes.Repeat([]byte{0xD7}, 4096)
	if err := s.WriteDataBlock(reused, data); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dev.MemDisk, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := s2.FindOnode(5)
	if !ok {
		t.Fatal("live object lost")
	}
	o, err := s2.ReadOnode(idx)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{0, blks[1], blks[2], blks[3]} {
		if got, err := mapOne(s2, &o, NumDirect+p-2+int64(i)); err != nil || got != want {
			t.Fatalf("file block %d after the mount maps %d (%v), want %d", NumDirect+p-2+int64(i), got, err, want)
		}
	}
	got := make([]byte, 4096)
	if err := dev.ReadBlock(reused, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("the mount patched a freed pointer block that now holds data (%v)", err)
	}
}

// TestPointerBlockImagesRecycled: objects whose pointer blocks are
// born, changed, committed or not, written back or not, and freed give
// back every pooled buffer the metadata cache took for them (images and
// committed bases) once the blocks leave the cache.
func TestPointerBlockImagesRecycled(t *testing.T) {
	s, _ := newStore(t, 4096)
	held := func() int64 {
		n := int64(len(s.meta.blocks))
		for _, o := range s.meta.open {
			if o.base != nil {
				n++
			}
		}
		return n
	}
	before := bufpool.Outstanding() - held()
	for i := 0; i < 200; i++ {
		o := Onode{ObjectID: uint64(10 + i)}
		idx, err := s.AllocOnode()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.MapAlloc(&o, NumDirect-1, 3, 0); err != nil {
			t.Fatal(err)
		}
		mustWriteOnode(t, s, idx, &o)
		if _, err := allocOne(s, &o, NumDirect+5, 0); err != nil { // opens the block against its committed image
			t.Fatal(err)
		}
		if i%2 == 0 {
			mustWriteOnode(t, s, idx, &o)
		}
		if i%3 == 0 {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.FreeObjectBlocks(&o); err != nil {
			t.Fatal(err)
		}
		mustWriteOnode(t, s, idx, &Onode{})
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if grew := bufpool.Outstanding() - held() - before; grew != 0 {
		t.Fatalf("bufpool.Outstanding moved by %d over 200 objects beyond the cache's own entries", grew)
	}
	if len(s.meta.open) != 0 || len(s.meta.dirty) != 0 {
		t.Fatalf("%d blocks open and %d dirty after every object was removed and synced", len(s.meta.open), len(s.meta.dirty))
	}
}

// TestPointerBlocksUnderConcurrentWritersAndSync: writers map, unmap and
// free through their objects' pointer blocks, each committing with its
// onode, while Syncs write the blocks back in between. Afterwards a
// remount reads every object's block map exactly as the store held it.
func TestPointerBlocksUnderConcurrentWritersAndSync(t *testing.T) {
	s, dev := newStore(t, 8192)
	const writers = 4
	stop := make(chan struct{})
	var syncer sync.WaitGroup
	syncer.Add(1)
	go func() {
		defer syncer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Sync(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	final := make([]Onode, writers)
	idxs := make([]int64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			idx, err := s.AllocOnode()
			if err != nil {
				t.Error(err)
				return
			}
			o := Onode{ObjectID: uint64(100 + w)}
			for i := 0; i < 60 && err == nil; i++ {
				fb := int64(NumDirect + i%40)
				_, _, err = s.MapAlloc(&o, fb, 3, 0)
				if err == nil {
					err = s.WriteOnode(idx, &o)
				}
				if err == nil && i%5 == 4 {
					if _, err = unmapOne(s, &o, fb+1); err == nil {
						err = s.WriteOnode(idx, &o)
					}
				}
				if err == nil && i%17 == 16 {
					if err = s.FreeObjectBlocks(&o); err == nil {
						o = Onode{ObjectID: o.ObjectID}
						err = s.WriteOnode(idx, &o)
					}
				}
			}
			if err != nil {
				t.Error(err)
			}
			final[w], idxs[w] = o, idx
		}(w)
	}
	wg.Wait()
	close(stop)
	syncer.Wait()
	if t.Failed() {
		return
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dev, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for w := range final {
		o2, err := s2.ReadOnode(idxs[w])
		if err != nil {
			t.Fatal(err)
		}
		for fb := int64(0); fb < NumDirect+45; fb++ {
			want, err1 := mapOne(s, &final[w], fb)
			got, err2 := mapOne(s2, &o2, fb)
			if err1 != nil || err2 != nil || got != want {
				t.Fatalf("object %d file block %d maps %d after the remount (%v), %d before (%v)", w, fb, got, err2, want, err1)
			}
		}
	}
}
