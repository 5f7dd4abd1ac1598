package object

import (
	"fmt"
	"testing"
)

// blockRuns lists the blocks ForEachBlock visits for object id (data
// and pointer blocks, in walk order) as runs of consecutive numbers.
func blockRuns(t *testing.T, s *Store, id uint64) [][2]int64 {
	t.Helper()
	_, o, err := s.classic.lookup(1, id)
	if err != nil {
		t.Fatal(err)
	}
	var runs [][2]int64
	err = s.classic.lay.ForEachBlock(&o, func(phys int64, _ bool) error {
		if n := len(runs); n > 0 && runs[n-1][0]+runs[n-1][1] == phys {
			runs[n-1][1]++
		} else {
			runs = append(runs, [2]int64{phys, 1})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestSingleWriterPlacement pins where one writer's blocks land: a 1 MiB
// object written in 64 KiB appends around a hole, the hole filled by an
// unaligned write, a version, an overwrite across the direct/indirect
// boundary (file block 20) and a truncate into the shared range. The
// physical blocks of both objects are those the block map placed before
// it answered in runs.
func TestSingleWriterPlacement(t *testing.T) {
	s := newTestStore(t)
	id, err := s.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 64 << 10
	for off := 0; off < 1<<20; off += chunk {
		if off == 3*chunk {
			continue
		}
		if err := s.Write(1, id, uint64(off), pattern(byte(off/chunk), chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Write(1, id, 3*chunk+100, pattern(3, chunk-200)); err != nil {
		t.Fatal(err)
	}
	ver, err := s.VersionObject(1, id)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, id, 18*4096+7, pattern(9, 5*4096)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetAttr(1, id, Attributes{Size: 700<<10 + 123}, SetSize); err != nil {
		t.Fatal(err)
	}
	// Recorded from the one-block-at-a-time map: the object's direct
	// blocks, the overwrite's unshared blocks 18 and 19, pointer block
	// and blocks 20 to 23, the filled hole, and the unshared tail block.
	if got, want := fmt.Sprint(blockRuns(t, s, id)), "[[148 18] [405 7] [173 24] [389 16] [197 111] [412 1]]"; got != want {
		t.Errorf("object blocks %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(blockRuns(t, s, ver)), "[[148 49] [389 16] [197 192]]"; got != want {
		t.Errorf("version blocks %s, want %s", got, want)
	}
}
