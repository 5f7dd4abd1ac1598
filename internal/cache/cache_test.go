package cache

import (
	"bytes"
	"testing"

	"nasd/internal/blockdev"
)

func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func TestReadThroughAndHit(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 64)
	if err := dev.WriteBlock(5, fill(7, 512)); err != nil {
		t.Fatal(err)
	}
	c := New(dev, 8)
	buf := make([]byte, 512)
	if err := c.ReadBlock(5, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 {
		t.Fatal("read wrong data")
	}
	if err := c.ReadBlock(5, buf); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteBehindDefersDeviceWrite(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 64)
	c := New(dev, 8)
	if err := c.WriteBlock(3, fill(9, 512)); err != nil {
		t.Fatal(err)
	}
	_, w := dev.Stats()
	if w != 0 {
		t.Fatal("write-behind wrote through immediately")
	}
	if c.DirtyCount() != 1 {
		t.Fatalf("dirty = %d", c.DirtyCount())
	}
	// Read returns cached copy.
	buf := make([]byte, 512)
	if err := c.ReadBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Fatal("cached write not visible")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	_, w = dev.Stats()
	if w != 1 {
		t.Fatalf("flush wrote %d blocks", w)
	}
	if c.DirtyCount() != 0 {
		t.Fatal("dirty after flush")
	}
	// Device now has the data.
	if err := dev.ReadBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Fatal("flushed data wrong")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 64)
	// One shard: the test asserts exact global LRU order.
	c := NewSharded(dev, 3, 1)
	buf := make([]byte, 512)
	for _, b := range []int64{1, 2, 3} {
		if err := c.ReadBlock(b, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 so 2 becomes LRU.
	if err := c.ReadBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadBlock(4, buf); err != nil {
		t.Fatal(err)
	}
	if c.Contains(2) {
		t.Fatal("LRU block 2 not evicted")
	}
	for _, b := range []int64{1, 3, 4} {
		if !c.Contains(b) {
			t.Fatalf("block %d wrongly evicted", b)
		}
	}
}

func TestShardedCapacitySplit(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 64)
	c := NewSharded(dev, 10, 4)
	if c.Shards() != 4 {
		t.Fatalf("shards = %d", c.Shards())
	}
	if c.Capacity() != 10 {
		t.Fatalf("capacity = %d", c.Capacity())
	}
	// Shard count clamps to capacity so every shard can hold a block.
	if c := NewSharded(dev, 2, 16); c.Shards() != 2 {
		t.Fatalf("clamped shards = %d", c.Shards())
	}
	// Default constructor shards DefaultShards ways when capacity allows.
	if c := New(dev, 64); c.Shards() != DefaultShards {
		t.Fatalf("default shards = %d", c.Shards())
	}
}

func TestShardedEvictionIsPerShard(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 64)
	c := NewSharded(dev, 4, 4) // one block per shard
	buf := make([]byte, 512)
	for _, b := range []int64{0, 1, 2, 3} {
		if err := c.ReadBlock(b, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Block 4 shares shard 0 with block 0: only block 0 may be evicted.
	if err := c.ReadBlock(4, buf); err != nil {
		t.Fatal(err)
	}
	if c.Contains(0) {
		t.Fatal("same-shard LRU block 0 not evicted")
	}
	for _, b := range []int64{1, 2, 3, 4} {
		if !c.Contains(b) {
			t.Fatalf("block %d wrongly evicted", b)
		}
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 64)
	c := New(dev, 1)
	if err := c.WriteBlock(1, fill(5, 512)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := c.ReadBlock(2, buf); err != nil { // evicts dirty block 1
		t.Fatal(err)
	}
	if err := dev.ReadBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 5 {
		t.Fatal("dirty block lost on eviction")
	}
	st := c.Stats()
	if st.WriteBacks != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPrefetch(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 64)
	for i := int64(0); i < 8; i++ {
		if err := dev.WriteBlock(i, fill(byte(i), 512)); err != nil {
			t.Fatal(err)
		}
	}
	c := New(dev, 16)
	n := c.Prefetch(1, 3, nil)
	if n != 3 {
		t.Fatalf("prefetched %d", n)
	}
	r0, _ := dev.Stats()
	buf := make([]byte, 512)
	for _, b := range []int64{1, 2, 3} {
		if err := c.ReadBlock(b, buf); err != nil {
			t.Fatal(err)
		}
	}
	r1, _ := dev.Stats()
	if r1 != r0 {
		t.Fatal("reads after prefetch hit the device")
	}
	st := c.Stats()
	if st.Hits != 3 || st.Prefetches != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Prefetching cached blocks is a no-op.
	if n := c.Prefetch(1, 3, nil); n != 0 {
		t.Fatalf("re-prefetch fetched %d", n)
	}
}

func TestPrefetchIgnoresBadBlocks(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 64)
	dev.CorruptBlock(2)
	c := New(dev, 16)
	if n := c.Prefetch(1, 3, nil); n != 2 {
		t.Fatalf("prefetched %d, want 2", n)
	}
}

func TestInvalidate(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 64)
	c := New(dev, 8)
	if err := c.WriteBlock(1, fill(9, 512)); err != nil {
		t.Fatal(err)
	}
	c.Invalidate(1)
	if c.Contains(1) {
		t.Fatal("invalidated block still cached")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := dev.ReadBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatal("invalidated dirty block reached device")
	}
}

func TestWriteDoesNotAliasCaller(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 64)
	c := New(dev, 8)
	data := fill(1, 512)
	if err := c.WriteBlock(0, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 99
	buf := make([]byte, 512)
	if err := c.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatal("cache aliased caller buffer")
	}
}

func TestReadErrorPropagates(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 64)
	dev.CorruptBlock(4)
	c := New(dev, 8)
	buf := make([]byte, 512)
	if err := c.ReadBlock(4, buf); err == nil {
		t.Fatal("corrupt read succeeded")
	}
}

func TestCapacityOne(t *testing.T) {
	dev := blockdev.NewMemDisk(512, 64)
	c := New(dev, 1)
	buf := make([]byte, 512)
	for i := int64(0); i < 10; i++ {
		if err := c.WriteBlock(i, fill(byte(i), 512)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := dev.ReadBlock(i, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("block %d lost", i)
		}
	}
}
