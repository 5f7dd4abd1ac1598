package object

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"nasd/internal/blockdev"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	dev := blockdev.NewMemDisk(4096, 4096)
	s, err := Format(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartition(1, 0); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	s := newTestStore(t)
	id, err := s.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	if id < FirstUserObject {
		t.Fatalf("user object id %d collides with well-known space", id)
	}
	data := []byte("hello, network-attached secure disk")
	if err := s.Write(1, id, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(1, id, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q want %q", got, data)
	}
}

func TestReadClippedAtSize(t *testing.T) {
	s := newTestStore(t)
	id, _ := s.Create(1)
	if err := s.Write(1, id, 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(1, id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("got %q", got)
	}
	got, err = s.Read(1, id, 10, 5)
	if err != nil || got != nil {
		t.Fatalf("read past EOF = %q, %v", got, err)
	}
}

func TestWriteAtOffsetExtends(t *testing.T) {
	s := newTestStore(t)
	id, _ := s.Create(1)
	if err := s.Write(1, id, 10000, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	a, err := s.GetAttr(1, id)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size != 10004 {
		t.Fatalf("size = %d", a.Size)
	}
	// The hole reads as zeros.
	got, err := s.Read(1, id, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("hole = %v", got)
	}
	got, _ = s.Read(1, id, 10000, 4)
	if string(got) != "tail" {
		t.Fatalf("tail = %q", got)
	}
}

func TestSparseHolePartialFillZeroes(t *testing.T) {
	s := newTestStore(t)
	// Create garbage in a block then free it, so reuse would expose it.
	tmp, _ := s.Create(1)
	if err := s.Write(1, tmp, 0, bytes.Repeat([]byte{0xEE}, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(1, tmp); err != nil {
		t.Fatal(err)
	}
	id, _ := s.Create(1)
	// Size extends over block 1 but block 1 stays a hole.
	if err := s.Write(1, id, 9000, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Partial write into the hole block 0.
	if err := s.Write(1, id, 100, []byte("y")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(1, id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 100)) {
		t.Fatalf("hole fill leaked previous contents: %v", got[:8])
	}
}

func TestLargeObjectMultiBlock(t *testing.T) {
	s := newTestStore(t)
	id, _ := s.Create(1)
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 300*1024) // spans direct + indirect blocks
	rng.Read(data)
	if err := s.Write(1, id, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(1, id, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large object round trip failed")
	}
	// Unaligned mid-object read.
	got, err = s.Read(1, id, 12345, 54321)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[12345:12345+54321]) {
		t.Fatal("unaligned read mismatch")
	}
}

func TestOverwriteInPlace(t *testing.T) {
	s := newTestStore(t)
	id, _ := s.Create(1)
	if err := s.Write(1, id, 0, bytes.Repeat([]byte{1}, 10000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, id, 5000, bytes.Repeat([]byte{2}, 1000)); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Read(1, id, 4999, 3)
	if got[0] != 1 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("boundary = %v", got)
	}
	got, _ = s.Read(1, id, 5999, 3)
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("boundary = %v", got)
	}
	a, _ := s.GetAttr(1, id)
	if a.Size != 10000 {
		t.Fatalf("overwrite changed size to %d", a.Size)
	}
}

func TestRemoveFreesSpace(t *testing.T) {
	s := newTestStore(t)
	before := s.FreeBlocks()
	id, _ := s.Create(1)
	if err := s.Write(1, id, 0, make([]byte, 100*1024)); err != nil {
		t.Fatal(err)
	}
	if s.FreeBlocks() >= before {
		t.Fatal("write did not consume blocks")
	}
	if err := s.Remove(1, id); err != nil {
		t.Fatal(err)
	}
	if got := s.FreeBlocks(); got != before {
		t.Fatalf("free = %d, want %d", got, before)
	}
	if _, err := s.GetAttr(1, id); !errors.Is(err, ErrNoObject) {
		t.Fatalf("removed object still readable: %v", err)
	}
}

func TestPartitionLifecycle(t *testing.T) {
	s := newTestStore(t)
	if err := s.CreatePartition(1, 0); !errors.Is(err, ErrPartitionExists) {
		t.Fatalf("duplicate partition: %v", err)
	}
	if err := s.CreatePartition(0, 0); err == nil {
		t.Fatal("partition 0 creation accepted")
	}
	if err := s.CreatePartition(2, 100); err != nil {
		t.Fatal(err)
	}
	p, err := s.GetPartition(2)
	if err != nil || p.QuotaBlocks != 100 {
		t.Fatalf("partition = %+v, %v", p, err)
	}
	id, err := s.Create(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RemovePartition(2); !errors.Is(err, ErrPartitionBusy) {
		t.Fatalf("remove of non-empty partition: %v", err)
	}
	if err := s.Remove(2, id); err != nil {
		t.Fatal(err)
	}
	if err := s.RemovePartition(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetPartition(2); !errors.Is(err, ErrNoPartition) {
		t.Fatal("removed partition still present")
	}
}

func TestPartitionIsolation(t *testing.T) {
	s := newTestStore(t)
	if err := s.CreatePartition(2, 0); err != nil {
		t.Fatal(err)
	}
	id, _ := s.Create(1)
	// The object is not visible through partition 2.
	if _, err := s.GetAttr(2, id); !errors.Is(err, ErrNoObject) {
		t.Fatalf("cross-partition access: %v", err)
	}
	if _, err := s.Read(2, id, 0, 10); !errors.Is(err, ErrNoObject) {
		t.Fatalf("cross-partition read: %v", err)
	}
}

func TestQuotaEnforcedAndResize(t *testing.T) {
	s := newTestStore(t)
	if err := s.CreatePartition(3, 10); err != nil { // 10 blocks = 40 KB
		t.Fatal(err)
	}
	id, _ := s.Create(3)
	if err := s.Write(3, id, 0, make([]byte, 16*1024)); err != nil { // 4 blocks
		t.Fatal(err)
	}
	if err := s.Write(3, id, 16*1024, make([]byte, 64*1024)); !errors.Is(err, ErrQuota) {
		t.Fatalf("quota breach: %v", err)
	}
	// Resize up, then the write fits.
	if err := s.ResizePartition(3, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(3, id, 16*1024, make([]byte, 64*1024)); err != nil {
		t.Fatal(err)
	}
	// Shrinking below usage fails.
	if err := s.ResizePartition(3, 5); !errors.Is(err, ErrQuota) {
		t.Fatalf("shrink below usage: %v", err)
	}
	p, _ := s.GetPartition(3)
	if p.UsedBlocks < 20 {
		t.Fatalf("used = %d, want >= 20", p.UsedBlocks)
	}
}

func TestQuotaReleasedOnRemove(t *testing.T) {
	s := newTestStore(t)
	if err := s.CreatePartition(3, 50); err != nil {
		t.Fatal(err)
	}
	id, _ := s.Create(3)
	if err := s.Write(3, id, 0, make([]byte, 100*1024)); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(3, id); err != nil {
		t.Fatal(err)
	}
	p, _ := s.GetPartition(3)
	if p.UsedBlocks != 0 {
		t.Fatalf("used after remove = %d", p.UsedBlocks)
	}
}

func TestAttributes(t *testing.T) {
	clock := time.Unix(1000, 0)
	dev := blockdev.NewMemDisk(4096, 2048)
	s, err := Format(dev, Config{Clock: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartition(1, 0); err != nil {
		t.Fatal(err)
	}
	id, _ := s.Create(1)
	a, _ := s.GetAttr(1, id)
	if a.CreateTime.Unix() != 1000 || a.Version != 1 || a.Size != 0 {
		t.Fatalf("initial attrs = %+v", a)
	}
	clock = time.Unix(2000, 0)
	if err := s.Write(1, id, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	a, _ = s.GetAttr(1, id)
	if a.ModTime.Unix() != 2000 {
		t.Fatalf("mod time = %v", a.ModTime)
	}
	if a.CreateTime.Unix() != 1000 {
		t.Fatal("create time changed by write")
	}

	var set Attributes
	set.Prealloc = 1 << 20
	set.Cluster = 99
	copy(set.Uninterp[:], []byte("mode=0644 uid=12"))
	if err := s.SetAttr(1, id, set, SetPrealloc|SetCluster|SetUninterp); err != nil {
		t.Fatal(err)
	}
	a, _ = s.GetAttr(1, id)
	if a.Prealloc != 1<<20 || a.Cluster != 99 {
		t.Fatalf("attrs = %+v", a)
	}
	if !bytes.HasPrefix(a.Uninterp[:], []byte("mode=0644")) {
		t.Fatal("uninterpreted attrs lost")
	}
	if a.Size != 1 {
		t.Fatal("SetAttr without SetSize changed size")
	}
}

func TestTruncateViaSetAttr(t *testing.T) {
	s := newTestStore(t)
	id, _ := s.Create(1)
	if err := s.Write(1, id, 0, bytes.Repeat([]byte{7}, 20000)); err != nil {
		t.Fatal(err)
	}
	free := s.FreeBlocks()
	if err := s.SetAttr(1, id, Attributes{Size: 100}, SetSize); err != nil {
		t.Fatal(err)
	}
	if s.FreeBlocks() <= free {
		t.Fatal("truncate freed no blocks")
	}
	a, _ := s.GetAttr(1, id)
	if a.Size != 100 {
		t.Fatalf("size = %d", a.Size)
	}
	// Grow again: the region beyond 100 must read as zeros, even within
	// the partially-kept block.
	if err := s.SetAttr(1, id, Attributes{Size: 20000}, SetSize); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Read(1, id, 100, 400)
	if !bytes.Equal(got, make([]byte, 400)) {
		t.Fatalf("regrown region nonzero: %v", got[:8])
	}
	got, _ = s.Read(1, id, 0, 100)
	if !bytes.Equal(got, bytes.Repeat([]byte{7}, 100)) {
		t.Fatal("kept prefix lost")
	}
}

func TestBumpVersion(t *testing.T) {
	s := newTestStore(t)
	id, _ := s.Create(1)
	v, err := s.BumpVersion(1, id)
	if err != nil || v != 2 {
		t.Fatalf("bump = %d, %v", v, err)
	}
	a, _ := s.GetAttr(1, id)
	if a.Version != 2 {
		t.Fatalf("version = %d", a.Version)
	}
}

func TestVersionObjectCOW(t *testing.T) {
	s := newTestStore(t)
	id, _ := s.Create(1)
	orig := bytes.Repeat([]byte{0xAA}, 50000)
	if err := s.Write(1, id, 0, orig); err != nil {
		t.Fatal(err)
	}
	freeBefore := s.FreeBlocks()
	snap, err := s.VersionObject(1, id)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot shares blocks: almost no new space consumed.
	if d := freeBefore - s.FreeBlocks(); d != 0 {
		t.Fatalf("snapshot consumed %d blocks", d)
	}
	// Snapshot reads the original data.
	got, err := s.Read(1, snap, 0, len(orig))
	if err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("snapshot read mismatch: %v", err)
	}
	// Writing the original does not disturb the snapshot.
	if err := s.Write(1, id, 0, bytes.Repeat([]byte{0xBB}, 10000)); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Read(1, snap, 0, 10000)
	if !bytes.Equal(got, orig[:10000]) {
		t.Fatal("snapshot disturbed by write to original")
	}
	// Writing the snapshot does not disturb the original.
	if err := s.Write(1, snap, 20000, bytes.Repeat([]byte{0xCC}, 5000)); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Read(1, id, 20000, 5000)
	for _, b := range got {
		if b != 0xAA && b != 0xBB {
			t.Fatal("original disturbed by snapshot write")
		}
	}
}

func TestVersionObjectQuota(t *testing.T) {
	s := newTestStore(t)
	if err := s.CreatePartition(4, 30); err != nil {
		t.Fatal(err)
	}
	id, _ := s.Create(4)
	if err := s.Write(4, id, 0, make([]byte, 80*1024)); err != nil { // 20 blocks
		t.Fatal(err)
	}
	// Snapshot would double the charged footprint past the quota.
	if _, err := s.VersionObject(4, id); !errors.Is(err, ErrQuota) {
		t.Fatalf("snapshot past quota: %v", err)
	}
}

func TestList(t *testing.T) {
	s := newTestStore(t)
	want := map[uint64]bool{}
	for i := 0; i < 5; i++ {
		id, err := s.Create(1)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = true
	}
	ids, err := s.List(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Fatalf("list = %v", ids)
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected id %d", id)
		}
	}
	if _, err := s.List(9); !errors.Is(err, ErrNoPartition) {
		t.Fatal("list of unknown partition succeeded")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 4096)
	s, err := Format(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartition(1, 500); err != nil {
		t.Fatal(err)
	}
	id, _ := s.Create(1)
	data := bytes.Repeat([]byte("nasd"), 5000)
	if err := s.Write(1, id, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s2.GetPartition(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.QuotaBlocks != 500 || p.ObjectCount != 1 {
		t.Fatalf("partition = %+v", p)
	}
	got, err := s2.Read(1, id, 0, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data lost across reopen: %v", err)
	}
	// New objects get fresh IDs.
	id2, err := s2.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatal("object ID reused after reopen")
	}
}

func TestWriteBehindVisibleBeforeFlush(t *testing.T) {
	s := newTestStore(t)
	id, _ := s.Create(1)
	if err := s.Write(1, id, 0, []byte("behind")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(1, id, 0, 6)
	if err != nil || string(got) != "behind" {
		t.Fatalf("write-behind not visible: %q %v", got, err)
	}
}

func TestReadaheadPopulatesCache(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 4096)
	s, err := Format(dev, Config{ReadaheadBlocks: 8, CacheBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartition(1, 0); err != nil {
		t.Fatal(err)
	}
	id, _ := s.Create(1)
	if err := s.Write(1, id, 0, make([]byte, 256*1024)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Reopen so nothing is cached, then read sequentially.
	s2, err := Open(dev, Config{ReadaheadBlocks: 8, CacheBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 64*1024; off += 4096 {
		if _, err := s2.Read(1, id, off, 4096); err != nil {
			t.Fatal(err)
		}
		settle(s2, id)
	}
	st := s2.CacheStats()
	if st.Prefetches == 0 {
		t.Fatal("sequential read triggered no readahead")
	}
	if st.Hits < st.Misses {
		t.Fatalf("readahead ineffective: %d hits, %d misses", st.Hits, st.Misses)
	}
}

func TestErrorsOnMissingObjects(t *testing.T) {
	s := newTestStore(t)
	if err := s.Write(1, 999, 0, []byte("x")); !errors.Is(err, ErrNoObject) {
		t.Fatalf("write: %v", err)
	}
	if _, err := s.Read(1, 999, 0, 1); !errors.Is(err, ErrNoObject) {
		t.Fatalf("read: %v", err)
	}
	if err := s.Remove(1, 999); !errors.Is(err, ErrNoObject) {
		t.Fatalf("remove: %v", err)
	}
	if _, err := s.Create(9); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("create: %v", err)
	}
	if _, err := s.Read(1, 999, 0, -1); !errors.Is(err, ErrBadRange) {
		t.Fatalf("negative read: %v", err)
	}
}

// Property: a random sequence of writes at random offsets, mirrored in
// an in-memory model, always reads back identically (read-after-write
// across block boundaries, extensions, and overwrites).
func TestRandomWriteReadEquivalence(t *testing.T) {
	s := newTestStore(t)
	id, _ := s.Create(1)
	rng := rand.New(rand.NewSource(99))
	model := make([]byte, 0)

	for i := 0; i < 100; i++ {
		off := uint64(rng.Intn(200_000))
		n := rng.Intn(10_000) + 1
		data := make([]byte, n)
		rng.Read(data)
		if err := s.Write(1, id, off, data); err != nil {
			t.Fatal(err)
		}
		if int(off)+n > len(model) {
			model = append(model, make([]byte, int(off)+n-len(model))...)
		}
		copy(model[off:], data)

		// Verify a random window.
		roff := rng.Intn(len(model))
		rn := rng.Intn(20_000) + 1
		got, err := s.Read(1, id, uint64(roff), rn)
		if err != nil {
			t.Fatal(err)
		}
		want := model[roff:]
		if len(want) > rn {
			want = want[:rn]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("iteration %d: window (%d,%d) mismatch", i, roff, rn)
		}
	}
	// Full content check after flush + reopen path.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(1, id, 0, len(model))
	if err != nil || !bytes.Equal(got, model) {
		t.Fatalf("final content mismatch: %v", err)
	}
}
