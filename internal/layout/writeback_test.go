package layout

import (
	"errors"
	"testing"

	"nasd/internal/journal"
	"nasd/internal/telemetry"
)

// onodeRuns returns the device write calls, as {start, blocks}, that
// landed in the onode table.
func onodeRuns(s *Store, dev *writeLog) (runs [][2]int64) {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	for _, r := range dev.runs {
		if r[0] >= s.sb.OnodeStart && r[0] < s.sb.OnodeStart+s.sb.OnodeBlocks {
			runs = append(runs, r)
		}
	}
	return runs
}

func mustWriteOnode(t *testing.T, s *Store, idx int64, o *Onode) {
	t.Helper()
	if err := s.WriteOnode(idx, o); err != nil {
		t.Fatal(err)
	}
}

// onodeOnDevice reads slot idx of the onode table from the device.
func onodeOnDevice(t *testing.T, s *Store, idx int64) Onode {
	t.Helper()
	per := int64(s.sb.BlockSize) / OnodeSize
	buf := make([]byte, s.sb.BlockSize)
	if err := s.dev.ReadBlock(s.sb.OnodeStart+idx/per, buf); err != nil {
		t.Fatal(err)
	}
	return decodeOnode(buf[(idx%per)*OnodeSize:][:OnodeSize])
}

// TestWriteBackOnodesOncePerSync pins the unit of the onode path on a
// journaled volume. A WriteOnode is one journal write and no onode-table
// write; the image it returns with is committed and is what readers see.
// Sync then writes every changed onode block once, ascending, blocks
// that are neighbours in one ranged call, and only after its flush are
// the records applied. The same image again costs nothing at all.
func TestWriteBackOnodesOncePerSync(t *testing.T) {
	dev := newWriteLog(4096, 8192)
	reg := telemetry.NewRegistry()
	s, err := Format(dev, FormatOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	commits := reg.Counter("journal.commits")
	dev.reset()
	// Slots 0..15 share two neighbouring blocks, slot 40 is on its own.
	for round := uint64(1); round <= 4; round++ {
		for _, idx := range []int64{40, 9, 1, 2, 3} {
			mustWriteOnode(t, s, idx, &Onode{ObjectID: uint64(idx) + 1, Size: round})
		}
	}
	if n := commits.Load(); n != 20 || len(dev.runs) != 20 || s.jnl.Outstanding() != 20 {
		t.Fatalf("20 onode writes: %d commits, %d device writes, %d records outstanding, want 20 each", n, len(dev.runs), s.jnl.Outstanding())
	}
	if runs := onodeRuns(s, dev); len(runs) != 0 {
		t.Fatalf("onode table written %v before any Sync", runs)
	}
	if o, err := s.ReadOnode(9); err != nil || o.Size != 4 {
		t.Fatalf("ReadOnode before the write-back = size %d (%v), want 4", o.Size, err)
	}
	if o := onodeOnDevice(t, s, 9); o.Allocated() {
		t.Fatalf("device already holds onode 9: %+v", o)
	}
	dev.reset()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{s.sb.OnodeStart, 2}, {s.sb.OnodeStart + 5, 1}}
	if runs := onodeRuns(s, dev); len(runs) != 2 || runs[0] != want[0] || runs[1] != want[1] {
		t.Fatalf("Sync wrote the onode table as %v, want %v", runs, want)
	}
	if o := onodeOnDevice(t, s, 9); o.Size != 4 || s.jnl.Outstanding() != 0 || len(s.meta.dirty) != 0 {
		t.Fatalf("after Sync: size %d on the device, %d records outstanding, %d blocks dirty", o.Size, s.jnl.Outstanding(), len(s.meta.dirty))
	}

	dev.reset()
	mustWriteOnode(t, s, 9, &Onode{ObjectID: 10, Size: 4})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if commits.Load() != 20 || len(onodeRuns(s, dev)) != 0 {
		t.Fatalf("rewriting an identical onode cost %d commits and onode-table writes %v", commits.Load()-20, onodeRuns(s, dev))
	}
}

// TestWriteBackOnJournalFull drives the journal to ErrFull with no Sync
// at all, as a drive that is never flushed does. The full journal writes
// the dirty onode blocks back, checkpoints and keeps accepting writes,
// so the records outstanding stay bounded by one journal half, and a
// mount of the device at any such moment recovers the newest images.
func TestWriteBackOnJournalFull(t *testing.T) {
	dev := newWriteLog(4096, 8192)
	reg := telemetry.NewRegistry()
	s, err := Format(dev, FormatOptions{JournalBlocks: 16, Metrics: reg}) // 7 blocks a half
	if err != nil {
		t.Fatal(err)
	}
	dev.reset()
	formatted := reg.Counter("journal.checkpoints").Load()
	const n = 100
	for i := uint64(1); i <= n; i++ {
		idx := int64(i % 8)
		mustWriteOnode(t, s, idx, &Onode{ObjectID: uint64(idx) + 1, Size: i})
		if out := s.jnl.Outstanding(); out > 7 {
			t.Fatalf("%d records outstanding after %d writes on a journal of 7-block halves", out, i)
		}
		// Refcounts reach the device at Sync only, so the journal must
		// never read as empty, which a mount takes for a clean volume:
		// the write that compacted it is in the new generation.
		if _, recs, _, err := journal.Open(dev.MemDisk, s.sb.JournalStart, s.sb.JournalBlocks, nil); err != nil || len(recs) == 0 {
			t.Fatalf("a mount after write %d would find %d journal records (%v)", i, len(recs), err)
		}
	}
	if cp, runs := reg.Counter("journal.checkpoints").Load()-formatted, onodeRuns(s, dev); cp < n/7 || len(runs) != int(cp) {
		t.Fatalf("%d checkpoints and %d onode-table writes over %d commits, want one write-back of the block per checkpoint", cp, len(runs), n)
	}
	s2, err := Open(dev.MemDisk, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(n - 7); i <= n; i++ {
		if o, err := s2.ReadOnode(int64(i % 8)); err != nil || o.Size != i {
			t.Fatalf("onode %d after a mount = size %d (%v), want %d", i%8, o.Size, err, i)
		}
	}
}

// TestWriteBackFailureKeepsBlockDirty: a failed in-place write leaves
// the block dirty and its records unapplied, so no checkpoint can drop
// them, and the next Sync writes the block.
func TestWriteBackFailureKeepsBlockDirty(t *testing.T) {
	dev := newWriteLog(4096, 8192)
	s, err := Format(dev, FormatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustWriteOnode(t, s, 3, &Onode{ObjectID: 7, Size: 1})
	mustWriteOnode(t, s, 3, &Onode{ObjectID: 7, Size: 2})
	boom := errors.New("medium error")
	dev.FailNext(s.sb.OnodeStart, boom)
	if err := s.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync over a failing onode block: %v, want the device's error", err)
	}
	if out, dirty := s.jnl.Outstanding(), len(s.meta.dirty[s.sb.OnodeStart]); out != 2 || dirty != 2 {
		t.Fatalf("after the failed write-back: %d records outstanding, %d held by the dirty block, want 2 and 2", out, dirty)
	}
	if o, err := s.ReadOnode(3); err != nil || o.Size != 2 {
		t.Fatalf("ReadOnode after the failed write-back = size %d (%v), want 2", o.Size, err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if o := onodeOnDevice(t, s, 3); o.Size != 2 || s.jnl.Outstanding() != 0 {
		t.Fatalf("after the retry: size %d on the device, %d records outstanding", o.Size, s.jnl.Outstanding())
	}
}

// TestWriteBackConcurrentRedirty: a writer that changes a block between
// the write-back's snapshot and its flush keeps the block dirty and its
// own record unapplied: the device holds the older image, so the record
// is the only durable copy of the newer one. Run under -race.
func TestWriteBackConcurrentRedirty(t *testing.T) {
	dev := newWriteLog(4096, 8192)
	s, err := Format(dev, FormatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustWriteOnode(t, s, 3, &Onode{ObjectID: 7, Size: 1})
	mustWriteOnode(t, s, 4, &Onode{ObjectID: 8, Size: 1})
	dev.onWrite = func(start int64) {
		if start != s.sb.OnodeStart {
			return
		}
		dev.onWrite = nil
		done := make(chan error)
		go func() { done <- s.WriteOnode(3, &Onode{ObjectID: 7, Size: 2}) }()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	if err := s.flushDevice(); err != nil {
		t.Fatal(err)
	}
	if out, dirty := s.jnl.Outstanding(), len(s.meta.dirty[s.sb.OnodeStart]); out != 1 || dirty != 1 {
		t.Fatalf("after the overlapped write-back: %d records outstanding, %d held by the block, want the newer one only", out, dirty)
	}
	if dev, cached := onodeOnDevice(t, s, 3), mustReadOnode(t, s, 3); dev.Size != 1 || cached.Size != 2 {
		t.Fatalf("sizes: %d on the device, %d read, want 1 and 2", dev.Size, cached.Size)
	}
	if err := s.flushDevice(); err != nil {
		t.Fatal(err)
	}
	if o := onodeOnDevice(t, s, 3); o.Size != 2 || s.jnl.Outstanding() != 0 || len(s.meta.dirty) != 0 {
		t.Fatalf("after the second write-back: size %d on the device, %d records outstanding, %d blocks dirty", o.Size, s.jnl.Outstanding(), len(s.meta.dirty))
	}
}

func mustReadOnode(t *testing.T, s *Store, idx int64) Onode {
	t.Helper()
	o, err := s.ReadOnode(idx)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestMetaCacheKeepsDirtyEntries: eviction passes over dirty entries,
// which do not count against the bound, and takes the oldest clean one.
func TestMetaCacheKeepsDirtyEntries(t *testing.T) {
	c := newMetaCache(&Superblock{BlockSize: 512, OnodeBlocks: 2, OnodeCount: 2}) // 4 clean entries
	blk := make([]byte, 512)
	c.fill(100, blk, 1)
	c.fill(101, blk, 2)
	for b := int64(1); b <= 6; b++ {
		c.fill(b, blk, 0)
	}
	for _, b := range []int64{100, 101, 3, 4, 5, 6} {
		if !c.view(b, func([]byte) {}) {
			t.Fatalf("block %d not resident; cache holds %d blocks", b, len(c.blocks))
		}
	}
	if len(c.blocks) != 6 {
		t.Fatalf("cache holds %d blocks, want 2 dirty and 4 clean", len(c.blocks))
	}
	if lsns := c.retire([]int64{100, 101}, []int{1, 1}); len(lsns) != 2 || len(c.dirty) != 0 {
		t.Fatalf("retire returned %v and left %d blocks dirty", lsns, len(c.dirty))
	}
	c.fill(7, blk, 0)
	c.fill(8, blk, 0)
	if len(c.blocks) > 4+1 {
		t.Fatalf("cache holds %d blocks after its dirty ones were cleaned, want them evictable", len(c.blocks))
	}
}

// TestWriteBackCommitsUnchangedOnodeAfterPointerWrite: a write that only
// fills a hole through the indirect block (a pipelined fragment landing
// below the size a later fragment already set) leaves the onode as it
// was, and is committed all the same: what a write sends to the device
// must not depend on the order its fragments arrive in, and the commit's
// flush is what carries the pointer block. The next unchanged write,
// with no pointer block written, commits nothing.
func TestWriteBackCommitsUnchangedOnodeAfterPointerWrite(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Format(newWriteLog(4096, 8192), FormatOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	commits := reg.Counter("journal.commits")
	o := Onode{ObjectID: 7, Size: 64 << 12}
	if _, _, err := s.BMapAllocRange(&o, NumDirect+8, 4, 0); err != nil {
		t.Fatal(err)
	}
	mustWriteOnode(t, s, 3, &o)
	before, was := commits.Load(), o
	if _, _, err := s.BMapAllocRange(&o, NumDirect, 4, 0); err != nil || o != was {
		t.Fatalf("filling a hole through the indirect block: %v, onode changed: %v", err, o != was)
	}
	mustWriteOnode(t, s, 3, &o)
	mustWriteOnode(t, s, 3, &o)
	if n := commits.Load() - before; n != 1 {
		t.Fatalf("an unchanged onode after a pointer-block write, then once more: %d commits, want 1", n)
	}
}
