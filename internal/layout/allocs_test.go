package layout

import "testing"

// TestMapAllocs pins what the block map allocates: a 16-block MapAlloc
// over fresh blocks of the single-indirect range allocates only the
// slice it returns (17 objects when it was a loop of one-block calls,
// each returning its allocator result), and a 16-block Map walk nothing.
func TestMapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own; run without -race")
	}
	s, _ := newStore(t, 8192)
	o := Onode{ObjectID: 5}
	if _, _, err := s.MapAlloc(&o, NumDirect, 1, 0); err != nil {
		t.Fatal(err)
	}
	fb := int64(NumDirect + 1)
	if avg := testing.AllocsPerRun(20, func() {
		if blks, _, err := s.MapAlloc(&o, fb, 16, 0); err != nil || len(blks) != 16 {
			t.Fatalf("MapAlloc mapped %d of 16 blocks: %v", len(blks), err)
		}
		fb += 16
	}); avg > 1 {
		t.Errorf("a 16-block MapAlloc allocates %.2f objects, want at most 1", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if _, n, err := s.Map(&o, NumDirect+1, 16); err != nil || n != 16 {
			t.Fatalf("Map returned a run of %d of 16 blocks: %v", n, err)
		}
	}); avg != 0 {
		t.Errorf("a 16-block Map walk allocates %.2f objects, want 0", avg)
	}
}
