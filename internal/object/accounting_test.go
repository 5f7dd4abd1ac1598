package object

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nasd/internal/blockdev"
	"nasd/internal/layout"
)

// checkAccounting asserts that the live quota accounting of every
// partition is what recovery's census recomputes by walking every object.
func checkAccounting(t *testing.T, s *Store, when string) {
	t.Helper()
	_, _, census, err := s.onodeRefs()
	if err != nil {
		t.Fatalf("%s: census: %v", when, err)
	}
	for _, p := range s.Partitions() {
		if c := census[p.ID]; p.UsedBlocks != c.charge || p.ObjectCount != c.objects {
			t.Fatalf("%s: partition %d accounts %d blocks in %d objects, the census walks %d in %d",
				when, p.ID, p.UsedBlocks, p.ObjectCount, c.charge, c.objects)
		}
	}
}

// TestAccountingMatchesCensus drives a seeded random workload over a
// quota'd and an unquota'd classic partition and checks after every
// operation, failed ones included, that each partition's UsedBlocks is
// exactly the charge recovery's census (onodeRefs) computes by walking:
// whatever way the write path learns its charge, it must agree with the
// walk. 512-byte blocks put the single-indirect range at 10 KiB and the
// double-indirect range at 42 KiB, so small writes reach all three.
func TestAccountingMatchesCensus(t *testing.T) {
	const bs = 512
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dev := blockdev.NewMemDisk(bs, 3072)
			s, err := Format(dev, Config{CacheBlocks: 256})
			if err != nil {
				t.Fatal(err)
			}
			const quota = 600
			if err := s.CreatePartition(1, quota); err != nil {
				t.Fatal(err)
			}
			if err := s.CreatePartition(2, 0); err != nil {
				t.Fatal(err)
			}
			objs := map[uint16][]uint64{}
			create := func(part uint16) uint64 {
				id, err := s.Create(part)
				if err != nil {
					t.Fatal(err)
				}
				objs[part] = append(objs[part], id)
				return id
			}
			// offset picks a block in the direct, single-indirect or
			// double-indirect range, at a random byte within it.
			offset := func() uint64 {
				fb := [...]int{rng.Intn(layout.NumDirect), layout.NumDirect + rng.Intn(64), layout.NumDirect + 64 + rng.Intn(3*64)}[rng.Intn(3)]
				return uint64(fb*bs + rng.Intn(bs))
			}
			var sawQuota, sawNoSpace bool
			for step := 0; step < 250; step++ {
				part := uint16(1 + rng.Intn(2))
				if len(objs[part]) == 0 {
					create(part)
				}
				k := rng.Intn(len(objs[part]))
				id := objs[part][k]
				var op string
				var err error
				switch r := rng.Intn(20); {
				case r < 1:
					op = "create"
					create(part)
				case r < 9:
					op = "write"
					err = s.Write(part, id, offset(), make([]byte, 1+rng.Intn(6*bs)))
				case r < 11:
					at, _ := s.GetAttr(part, id)
					op = "append"
					err = s.Write(part, id, at.Size, make([]byte, 1+rng.Intn(4*bs)))
				case r < 13:
					op = "setattr size"
					err = s.SetAttr(part, id, Attributes{Size: offset()}, SetSize)
				case r < 15:
					op = "setattr prealloc"
					// On (up to 60 blocks, above and below typical
					// footprints) and off.
					err = s.SetAttr(part, id, Attributes{Prealloc: uint64(rng.Intn(2) * rng.Intn(60*bs))}, SetPrealloc)
				case r < 17:
					// Both sides are written by later steps, so data and
					// pointer blocks unshare.
					op = "version"
					var clone uint64
					if clone, err = s.VersionObject(part, id); err == nil {
						objs[part] = append(objs[part], clone)
					}
				case r < 18:
					op = "remove"
					err = s.Remove(part, id)
					objs[part] = append(objs[part][:k], objs[part][k+1:]...)
				case r < 19:
					// More than the quota has left, into a hole: refused
					// whole.
					op = "write over quota"
					p, _ := s.GetPartition(1)
					err = s.Write(1, create(1), 0, make([]byte, (quota-p.UsedBlocks+1)*bs))
					if !errors.Is(err, ErrQuota) {
						t.Fatalf("step %d: write over quota: %v", step, err)
					}
					sawQuota = true
				default:
					// More than the device has left: fails part-way, the
					// blocks mapped until then stay with the object.
					op = "write over device"
					big := create(2)
					err = s.Write(2, big, 0, make([]byte, (s.classic.lay.FreeBlocks()+8)*bs))
					if !errors.Is(err, layout.ErrNoSpace) {
						t.Fatalf("step %d: write over device: %v", step, err)
					}
					sawNoSpace = true
					checkAccounting(t, s, fmt.Sprintf("step %d (%s, before its remove)", step, op))
					if err := s.Remove(2, big); err != nil {
						t.Fatal(err)
					}
					objs[2] = objs[2][:len(objs[2])-1]
				}
				checkAccounting(t, s, fmt.Sprintf("step %d (%s: %v)", step, op, err))
			}
			if !sawQuota || !sawNoSpace {
				t.Fatalf("workload never hit ErrQuota (%v) or ErrNoSpace (%v)", sawQuota, sawNoSpace)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dev, Config{CacheBlocks: 256})
			if err != nil {
				t.Fatal(err)
			}
			checkAccounting(t, s2, "after flush and reopen")
		})
	}
}

// TestChargeCostsThePathNotTheObject: overwriting, appending or
// truncating one block of a large object reads the pointer blocks on
// that block's path, not the object's whole map. The object holds 130
// pointer blocks (1 KiB blocks: 128 slots each), more than the layout's
// metadata cache keeps (128), so a walk of it misses on every one; it
// carries no reservation, the one case that still needs the walk.
func TestChargeCostsThePathNotTheObject(t *testing.T) {
	const bs, p = 1024, 128
	s, err := Format(blockdev.NewMemDisk(bs, 4096), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartition(1, 2048); err != nil {
		t.Fatal(err)
	}
	id, err := s.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse: two blocks under every one of the 128 second-level pointer
	// blocks, and one in the single-indirect range.
	block := make([]byte, bs)
	if err := s.Write(1, id, layout.NumDirect*bs, block); err != nil {
		t.Fatal(err)
	}
	for l1 := 0; l1 < p; l1++ {
		if err := s.Write(1, id, uint64(layout.NumDirect+p+l1*p+7)*bs, make([]byte, 2*bs)); err != nil {
			t.Fatal(err)
		}
	}
	_, o, err := s.classic.lookup(1, id)
	if err != nil {
		t.Fatal(err)
	}
	ptrs := 0
	_ = s.classic.lay.ForEachBlock(&o, func(_ int64, isPtr bool) error {
		if isPtr {
			ptrs++
		}
		return nil
	})
	if ptrs != p+2 {
		t.Fatalf("object has %d pointer blocks, want %d", ptrs, p+2)
	}
	for _, op := range []struct {
		name string
		do   func() error
	}{
		{"overwrite", func() error { return s.Write(1, id, uint64(layout.NumDirect+p+40*p+8)*bs, block) }},
		{"append", func() error { return s.Write(1, id, o.Size, block) }},
		{"truncate", func() error { return s.SetAttr(1, id, Attributes{Size: o.Size}, SetSize) }},
	} {
		before := s.classic.lay.DevReads()
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if got := s.classic.lay.DevReads() - before; got > 4 {
			t.Errorf("%s of one block cost %d metadata reads, want at most the 4 on its path", op.name, got)
		}
		checkAccounting(t, s, op.name)
	}
}
