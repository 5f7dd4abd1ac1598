package cache

import (
	"testing"

	"nasd/internal/blockdev"
)

// TestMissAllocs pins what a miss costs the cache's bookkeeping. On a
// full cache every block installed takes its entry from the shard's
// free list and its buffer from the clean victim it replaces, so a cold
// extent read, a prefetch and a write of an absent block allocate
// nothing. The race detector allocates on its own: scripts/check.sh
// runs this on a plain binary.
func TestMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const bs, n = 512, 16
	dev := blockdev.NewMemDisk(bs, 4096)
	c := NewSharded(dev, 64, 16)
	next := int64(0) // the lowest block never touched yet
	dst := make([]byte, n*bs)
	cold := func() {
		if err := c.ReadRange(next, 0, dst); err != nil {
			t.Fatal(err)
		}
		next += n
	}
	for next < 128 { // full, and every shard has evicted
		cold()
	}
	if got := testing.AllocsPerRun(20, cold); got != 0 {
		t.Errorf("a cold %d-block ReadRange allocates %v objects, want 0", n, got)
	}
	prefetch := func() {
		if k := c.Prefetch(next, n, nil); k != n {
			t.Fatalf("prefetch installed %d of %d blocks", k, n)
		}
		next += n
	}
	if got := testing.AllocsPerRun(20, prefetch); got != 0 {
		t.Errorf("a %d-block Prefetch allocates %v objects, want 0", n, got)
	}
	// Fewer writes than the cache holds: every victim is a clean block
	// the prefetches installed.
	buf := make([]byte, bs)
	write := func() {
		if err := c.WriteBlock(next, buf); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if got := testing.AllocsPerRun(40, write); got != 0 {
		t.Errorf("a WriteBlock to an absent block with a clean victim allocates %v objects, want 0", got)
	}
	if st := c.Stats(); c.DirtyCount() != 41 || st.WriteBacks != 0 {
		t.Fatalf("%d dirty blocks and %d write-backs after 41 writes, want 41 and 0", c.DirtyCount(), st.WriteBacks)
	}
}
