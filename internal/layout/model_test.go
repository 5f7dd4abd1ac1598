package layout

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nasd/internal/journal"
)

// twin is one of two stores driven through the same steps: ranged
// passes each range to one MapAlloc or Unmap call, the other makes one
// one-block call per file block, each allocating after the block before.
type twin struct {
	s      *Store
	ranged bool
	objs   []Onode // live objects; slot i is onode index idx[i]
	idx    []int64
}

func (w *twin) mapAlloc(o *Onode, fb int64, n int, hint int64) ([]int64, int64, error) {
	if w.ranged {
		return w.s.MapAlloc(o, fb, n, hint)
	}
	var out []int64
	var gained int64
	for i := 0; i < n; i++ {
		blk, g, err := w.s.MapAlloc(o, fb+int64(i), 1, hint)
		gained += g
		if err != nil {
			return out, gained, err
		}
		out, hint = append(out, blk[0]), blk[0]+1
	}
	return out, gained, nil
}

func (w *twin) unmap(o *Onode, fb int64, n int) (int64, error) {
	if w.ranged {
		return w.s.Unmap(o, fb, n)
	}
	var dropped int64
	for i := 0; i < n; i++ {
		d, err := w.s.Unmap(o, fb+int64(i), 1)
		dropped += d
		if err != nil {
			return dropped, err
		}
	}
	return dropped, nil
}

// commit persists object i and returns the KindOnode payload the write
// journals: the onode image and the pointer-slot changes since the last.
func (w *twin) commit(t *testing.T, i int) string {
	t.Helper()
	img := make([]byte, OnodeSize)
	encodeOnode(img, &w.objs[i])
	rec, _ := w.s.meta.appendSlots(journal.EncodeOnode(nil, uint32(w.idx[i]), img), w.objs[i].ObjectID)
	if err := w.s.WriteOnode(w.idx[i], &w.objs[i]); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", rec)
}

// state is everything the two stores must agree on after a step: the
// onodes, every block's reference count and each object's runs.
func (w *twin) state(t *testing.T, span int64) string {
	t.Helper()
	w.s.lockAlloc()
	refs := slices.Clone(w.s.ref)
	w.s.mu.Unlock()
	out := fmt.Sprint(w.objs, refs)
	for i := range w.objs {
		for fb := int64(0); fb < span; {
			phys, n, err := w.s.Map(&w.objs[i], fb, int(span-fb))
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf(" %d:%d+%d", fb, phys, n)
			fb += int64(n)
		}
	}
	return out
}

// TestRangeCallsMatchOneBlockCalls drives twin stores, from one state,
// through seeded writes, truncates, versions and removals whose ranges
// cross file blocks 20 (the first indirect one) and 532 (the first
// double-indirect one), over holes and blocks a version shares, on a
// volume small enough to run out of space mid-range. After every step
// the ranged store must match the one that maps a block per call: the
// blocks returned, the references gained or dropped, the error, the
// journaled onode records, the onodes, the reference counts and the
// runs of every object.
func TestRangeCallsMatchOneBlockCalls(t *testing.T) {
	seeds, steps := 8, 300
	if testing.Short() {
		seeds, steps = 2, 150
	}
	const span = NumDirect + 512 + 700 // into the double-indirect range
	const volume = 300
	spaceOut := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		var w [2]*twin
		for k := range w {
			s, _ := newStore(t, volume)
			w[k] = &twin{s: s, ranged: k == 0}
		}
		rng := rand.New(rand.NewSource(seed))
		nextID := uint64(1)
		// around picks a file block near one of the map's boundaries.
		around := func() int64 {
			base := []int64{0, NumDirect, NumDirect + 512, NumDirect + 512 + 512}[rng.Intn(4)]
			return max(0, base+int64(rng.Intn(40))-20)
		}
		for step := 0; step < steps; step++ {
			var got [2]string
			created := false
			op := rng.Intn(10)
			if len(w[0].objs) == 0 {
				op = 9
			}
			i := rng.Intn(max(1, len(w[0].objs)))
			fb, n := around(), 1+rng.Intn(48)
			hint := int64(0)
			if rng.Intn(2) == 0 {
				hint = w[0].s.sb.DataStart + rng.Int63n(volume-w[0].s.sb.DataStart)
			}
			for k, tw := range w {
				switch {
				case op < 6: // write
					blks, gained, err := tw.mapAlloc(&tw.objs[i], fb, n, hint)
					if err != nil && k == 0 {
						spaceOut++
					}
					got[k] = fmt.Sprint("write ", blks, gained, err, tw.commit(t, i))
				case op < 7: // truncate
					dropped, err := tw.unmap(&tw.objs[i], fb, span-int(fb))
					got[k] = fmt.Sprint("truncate ", dropped, err, tw.commit(t, i))
				case op < 8 && len(tw.objs) > 1: // remove
					err := tw.s.FreeObjectBlocks(&tw.objs[i])
					if werr := tw.s.WriteOnode(tw.idx[i], &Onode{}); err == nil {
						err = werr
					}
					tw.objs = slices.Delete(tw.objs, i, i+1)
					tw.idx = slices.Delete(tw.idx, i, i+1)
					got[k] = fmt.Sprint("remove ", err)
				case len(tw.objs) < 4: // version, or a fresh object
					o := Onode{ObjectID: nextID}
					if len(tw.objs) > 0 {
						if err := tw.s.CloneOnodeBlocks(&tw.objs[i]); err != nil {
							t.Fatal(err)
						}
						o = tw.objs[i]
						o.ObjectID = nextID
					}
					idx, err := tw.s.AllocOnode()
					if err != nil {
						t.Fatal(err)
					}
					tw.objs, tw.idx = append(tw.objs, o), append(tw.idx, idx)
					created = true
					got[k] = fmt.Sprint("version ", tw.commit(t, len(tw.objs)-1))
				}
				got[k] += tw.state(t, span)
			}
			if created {
				nextID++
			}
			if got[0] != got[1] {
				t.Fatalf("seed %d step %d: ranged and one-block stores differ\nranged:    %.600s\none-block: %.600s", seed, step, got[0], got[1])
			}
		}
	}
	t.Logf("%d writes ran out of space", spaceOut)
	if spaceOut == 0 {
		t.Error("no write ran out of space mid-range")
	}
}
