package layout

import (
	"testing"
)

func TestUnmapDirectBlock(t *testing.T) {
	s, _ := newStore(t, 1024)
	var o Onode
	blk, err := allocOne(s, &o, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmapOne(s, &o, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != blk {
		t.Fatalf("unmapped %d, want %d", got, blk)
	}
	if o.Direct[3] != 0 {
		t.Fatal("direct pointer not cleared")
	}
	if s.RefCount(blk) != 0 {
		t.Fatal("block not freed")
	}
	if m, _ := mapOne(s, &o, 3); m != 0 {
		t.Fatal("bmap still resolves")
	}
}

func TestUnmapHole(t *testing.T) {
	s, _ := newStore(t, 1024)
	var o Onode
	if got, err := unmapOne(s, &o, 5); err != nil || got != 0 {
		t.Fatalf("unmap hole = %d, %v", got, err)
	}
	if got, err := unmapOne(s, &o, NumDirect+5); err != nil || got != 0 {
		t.Fatalf("unmap indirect hole = %d, %v", got, err)
	}
}

func TestUnmapIndirectBlock(t *testing.T) {
	s, _ := newStore(t, 2048)
	var o Onode
	fb := int64(NumDirect + 7)
	blk, err := allocOne(s, &o, fb, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmapOne(s, &o, fb)
	if err != nil || got != blk {
		t.Fatalf("unmap = %d, %v", got, err)
	}
	if s.RefCount(blk) != 0 {
		t.Fatal("block not freed")
	}
	if m, _ := mapOne(s, &o, fb); m != 0 {
		t.Fatal("indirect mapping survives")
	}
}

func TestUnmapDoubleIndirect(t *testing.T) {
	s, _ := newStore(t, 4096)
	var o Onode
	fb := NumDirect + s.ptrsPerBlock + 2*s.ptrsPerBlock + 3
	blk, err := allocOne(s, &o, fb, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmapOne(s, &o, fb)
	if err != nil || got != blk {
		t.Fatalf("unmap = %d, %v", got, err)
	}
	if m, _ := mapOne(s, &o, fb); m != 0 {
		t.Fatal("double-indirect mapping survives")
	}
}

func TestUnmapSharedDoesNotDisturbClone(t *testing.T) {
	s, _ := newStore(t, 2048)
	var orig Onode
	fb := int64(NumDirect + 4)
	blk, err := allocOne(s, &orig, fb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CloneOnodeBlocks(&orig); err != nil {
		t.Fatal(err)
	}
	clone := orig

	// Unmap through the clone: orig's mapping must be untouched and the
	// data block must retain orig's reference.
	if _, err := unmapOne(s, &clone, fb); err != nil {
		t.Fatal(err)
	}
	if m, _ := mapOne(s, &clone, fb); m != 0 {
		t.Fatal("clone mapping survives unmap")
	}
	if m, _ := mapOne(s, &orig, fb); m != blk {
		t.Fatalf("orig mapping disturbed: %d want %d", m, blk)
	}
	if s.RefCount(blk) != 1 {
		t.Fatalf("data block refcount = %d, want 1", s.RefCount(blk))
	}
}

func TestFreeCountConsistency(t *testing.T) {
	s, _ := newStore(t, 512)
	baseline := s.FreeBlocks()
	blks, err := s.Alloc(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.FreeBlocks(); got != baseline-10 {
		t.Fatalf("free = %d, want %d", got, baseline-10)
	}
	// IncRef/Free pairs on live blocks do not change the count.
	if err := s.IncRef(blks[0]); err != nil {
		t.Fatal(err)
	}
	if got := s.FreeBlocks(); got != baseline-10 {
		t.Fatalf("free after incref = %d", got)
	}
	_ = s.Free(blks[0])
	if got := s.FreeBlocks(); got != baseline-10 {
		t.Fatalf("free after deref = %d", got)
	}
	for _, b := range blks {
		_ = s.Free(b)
	}
	if got := s.FreeBlocks(); got != baseline {
		t.Fatalf("free after release = %d, want %d", got, baseline)
	}
}
