package object

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nasd/internal/blockdev"
	"nasd/internal/layout"
	"nasd/internal/telemetry"
)

// The crash harness: format a store on a CrashDisk (volatile write
// cache over a MemDisk), run a seeded mutation workload, kill the disk
// at an arbitrary persist step, then reopen the surviving inner device
// and check the durability contract:
//
//   - the store opens (mount-time recovery succeeds);
//   - every object untouched since the last completed Flush reads back
//     exactly;
//   - every object touched after it either reads without error or is
//     cleanly absent — partial replay is fine, corruption is not;
//   - no object removed before the last Flush resurrects;
//   - a second verification pass finds zero reference-count drift
//     (recovery converged).
//
// Sweeping the crash point across every persist step of the workload
// visits every intermediate persistence state the hardware could have
// left behind.

type objRef struct {
	part uint16
	obj  uint64
}

type crashModel struct {
	live    map[objRef][]byte
	flushed map[objRef][]byte
	dirty   map[objRef]bool
	// pendingCreate is set while a Create call is in flight: a crash
	// inside it can leave one durable object whose ID the model never
	// learned.
	pendingCreate bool
}

func newCrashModel() *crashModel {
	return &crashModel{
		live:    make(map[objRef][]byte),
		flushed: make(map[objRef][]byte),
		dirty:   make(map[objRef]bool),
	}
}

func (m *crashModel) markFlushed() {
	m.flushed = make(map[objRef][]byte, len(m.live))
	for k, v := range m.live {
		m.flushed[k] = bytes.Clone(v)
	}
	m.dirty = make(map[objRef]bool)
}

const (
	crashDiskBlocks  = 8192 // 4 MB of 512 B blocks
	crashWorkloadOps = 90
	// crashIndirectAppend is longer than the direct slots map.
	crashIndirectAppend = (layout.NumDirect + 4) * 512
)

// setupCrashStore formats a store (classic partition 1, needle
// partition 2) on a fresh CrashDisk and flushes it, so the sweep starts
// from a durable baseline.
func setupCrashStore(t *testing.T, seed int64) (*blockdev.MemDisk, *blockdev.CrashDisk, *Store) {
	t.Helper()
	inner := blockdev.NewMemDisk(512, crashDiskBlocks)
	disk := blockdev.NewCrashDisk(inner, seed)
	// Sync compaction keeps the sweep deterministic: a background
	// compactor would hit the crash disk's persist-step schedule at
	// goroutine-timing-dependent points.
	s, err := Format(disk, Config{SyncCompact: true})
	if err != nil {
		t.Fatalf("seed %d: format: %v", seed, err)
	}
	if err := s.CreatePartitionBackend(1, 0, BackendClassic); err != nil {
		t.Fatalf("seed %d: create classic partition: %v", seed, err)
	}
	if err := s.CreatePartitionBackend(2, 0, BackendNeedle); err != nil {
		t.Fatalf("seed %d: create needle partition: %v", seed, err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("seed %d: baseline flush: %v", seed, err)
	}
	return inner, disk, s
}

// runCrashWorkload drives the seeded op mix until it completes or the
// disk crashes, keeping the model in sync. Every mutation marks its
// object dirty before touching the store, so a mid-operation crash
// leaves the object in the "anything readable goes" bucket.
func runCrashWorkload(s *Store, disk *blockdev.CrashDisk, rng *rand.Rand, m *crashModel) error {
	var ids []objRef
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for op := 0; op < crashWorkloadOps; op++ {
		var err error
		switch roll := rng.Intn(10); {
		case roll < 5: // write (creating an object when none or 1-in-3)
			part := uint16(1 + rng.Intn(2))
			var ref objRef
			if len(ids) == 0 || rng.Intn(3) == 0 {
				var id uint64
				m.pendingCreate = true
				id, err = s.Create(part)
				if err != nil {
					break
				}
				m.pendingCreate = false
				ref = objRef{part, id}
				ids = append(ids, ref)
				m.live[ref] = nil
			} else {
				ref = ids[rng.Intn(len(ids))]
			}
			size := 1 + rng.Intn(4096)
			if ref.part == 2 && rng.Intn(4) == 0 {
				size = 16384 + rng.Intn(49152) // push needle segment rolls
			}
			off := 0
			if cur := len(m.live[ref]); ref.part == 1 && rng.Intn(4) == 0 {
				// A multi-block classic append that runs past the direct
				// slots (10 KiB at this block size), so the sweep crashes
				// around indirect-block writes too.
				size, off = crashIndirectAppend+rng.Intn(4096), cur
			} else if cur > 0 && rng.Intn(2) == 0 {
				off = rng.Intn(cur)
			}
			data := payload(size)
			m.dirty[ref] = true
			err = s.Write(ref.part, ref.obj, uint64(off), data)
			if err == nil {
				cur := m.live[ref]
				if need := off + len(data); need > len(cur) {
					grown := make([]byte, need)
					copy(grown, cur)
					cur = grown
				}
				copy(cur[off:], data)
				m.live[ref] = cur
			}
		case roll < 6 && len(ids) > 0: // remove
			i := rng.Intn(len(ids))
			ref := ids[i]
			m.dirty[ref] = true
			err = s.Remove(ref.part, ref.obj)
			if err == nil {
				delete(m.live, ref)
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}
		case roll < 7 && len(ids) > 0: // truncate / extend
			ref := ids[rng.Intn(len(ids))]
			size := uint64(rng.Intn(2048))
			m.dirty[ref] = true
			err = s.SetAttr(ref.part, ref.obj, Attributes{Size: size}, SetSize)
			if err == nil {
				cur := m.live[ref]
				if int(size) <= len(cur) {
					m.live[ref] = cur[:size]
				} else {
					grown := make([]byte, size)
					copy(grown, cur)
					m.live[ref] = grown
				}
			}
		case roll < 8: // flush: everything live becomes committed
			err = s.Flush()
			if err == nil {
				m.markFlushed()
			}
		default: // read (should never error before the crash)
			if len(ids) > 0 {
				ref := ids[rng.Intn(len(ids))]
				_, err = s.Read(ref.part, ref.obj, 0, len(m.live[ref]))
			}
		}
		if err != nil {
			if disk.Crashed() {
				return blockdev.ErrCrashed
			}
			return fmt.Errorf("op %d failed without a crash: %w", op, err)
		}
	}
	if err := s.Flush(); err != nil {
		if disk.Crashed() {
			return blockdev.ErrCrashed
		}
		return fmt.Errorf("final flush failed without a crash: %w", err)
	}
	m.markFlushed()
	return nil
}

// verifyCrashContract reopens the surviving device and checks the
// durability contract against the model.
func verifyCrashContract(t *testing.T, tag string, inner *blockdev.MemDisk, m *crashModel) {
	t.Helper()
	s, err := Open(inner, Config{SyncCompact: true})
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", tag, err)
	}
	for ref, want := range m.flushed {
		data, err := s.Read(ref.part, ref.obj, 0, len(want)+1)
		if m.dirty[ref] {
			if err != nil && !errors.Is(err, ErrNoObject) {
				t.Fatalf("%s: dirty object %v unreadable: %v", tag, ref, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: committed object %v unreadable: %v", tag, ref, err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("%s: committed object %v corrupted: %d bytes, want %d", tag, ref, len(data), len(want))
		}
		a, err := s.GetAttr(ref.part, ref.obj)
		if err != nil || a.Size != uint64(len(want)) {
			t.Fatalf("%s: committed object %v attrs: size %d want %d (err %v)", tag, ref, a.Size, len(want), err)
		}
	}
	for ref := range m.dirty {
		if _, ok := m.flushed[ref]; ok {
			continue
		}
		if _, err := s.Read(ref.part, ref.obj, 0, 1); err != nil && !errors.Is(err, ErrNoObject) {
			t.Fatalf("%s: post-flush object %v unreadable: %v", tag, ref, err)
		}
	}
	// No resurrections: every surviving user object must be one the
	// model knows about — committed, in flight at the crash, or (at
	// most once) a Create whose ID the crash swallowed.
	unknown := 0
	for _, part := range []uint16{1, 2} {
		ids, err := s.List(part)
		if err != nil {
			t.Fatalf("%s: list partition %d: %v", tag, part, err)
		}
		for _, id := range ids {
			ref := objRef{part, id}
			if _, ok := m.flushed[ref]; ok {
				continue
			}
			if m.dirty[ref] {
				continue
			}
			unknown++
		}
	}
	allowed := 0
	if m.pendingCreate {
		allowed = 1
	}
	if unknown > allowed {
		t.Fatalf("%s: %d unknown objects survived the crash (allowed %d)", tag, unknown, allowed)
	}
	// Recovery must have converged: a fresh verification pass over the
	// recovered volume finds nothing left to repair.
	repairs, err := s.verifyRefs()
	if err != nil {
		t.Fatalf("%s: post-recovery verification: %v", tag, err)
	}
	if repairs != 0 {
		t.Fatalf("%s: %d refcount repairs left after recovery", tag, repairs)
	}
}

// crashSweepSeed measures the workload's persist-step count for one
// seed, then replays it with the crash armed at sampled steps.
// Returns how many crash points it exercised.
func crashSweepSeed(t *testing.T, seed int64, tear bool, maxPoints int) int {
	t.Helper()
	// Dry run: count persist steps (crash disarmed).
	inner, disk, s := setupCrashStore(t, seed)
	disk.SetTearWrites(tear)
	base := disk.Steps()
	if err := runCrashWorkload(s, disk, rand.New(rand.NewSource(seed)), newCrashModel()); err != nil {
		t.Fatalf("seed %d: dry run: %v", seed, err)
	}
	total := disk.Steps() - base
	if total < 10 {
		t.Fatalf("seed %d: workload produced only %d persist steps", seed, total)
	}
	_ = inner

	stride := int64(1)
	if int(total) > maxPoints {
		stride = total / int64(maxPoints)
	}
	points := 0
	for n := int64(1); n <= total; n += stride {
		inner, disk, s := setupCrashStore(t, seed)
		disk.SetTearWrites(tear)
		disk.SetCrashAfter(n)
		m := newCrashModel()
		err := runCrashWorkload(s, disk, rand.New(rand.NewSource(seed)), m)
		if err != nil && !errors.Is(err, blockdev.ErrCrashed) {
			t.Fatalf("seed %d crash@%d: %v", seed, n, err)
		}
		// err == nil: the armed step was never reached (background work
		// shifted the step count); the volume is then simply clean.
		verifyCrashContract(t, fmt.Sprintf("seed %d crash@%d tear=%v", seed, n, tear), inner, m)
		points++
	}
	return points
}

// TestCrashSweep is the crash-consistency property test. In short mode
// (scripts/check.sh's crash-consistency focus block) it samples a few
// dozen crash points; the full run (the race suite in check.sh and
// CI's dedicated crash-sweep job) covers 1000+ points across both
// backends and both tear modes.
func TestCrashSweep(t *testing.T) {
	maxPoints, target := 250, 1000
	if testing.Short() {
		maxPoints, target = 16, 32
	}
	points := 0
	for seed := int64(1); points < target && seed <= 16; seed++ {
		points += crashSweepSeed(t, seed, seed%2 == 0, maxPoints)
	}
	if points < target {
		t.Fatalf("swept only %d crash points, want >= %d", points, target)
	}
	t.Logf("swept %d crash points", points)
}

// TestCrashSweepIndirectAppend crashes the disk around one classic
// append that crosses from the direct slots into the indirect block:
// right after the write returns (no Flush), at every persist step inside
// it (its onode commit, whose record carries the pointer block's slots;
// the block itself must not reach the medium before the record), and at
// every persist step of the Flush after it, which writes the pointer
// block in place. The store must mount, the object must read without
// error at its old or its new size, and a second verification pass must
// find nothing left to repair.
func TestCrashSweepIndirectAppend(t *testing.T) {
	old := bytes.Repeat([]byte{0xA1}, 4096)
	added := bytes.Repeat([]byte{0xB2}, crashIndirectAppend)
	for _, tear := range []bool{false, true} {
		for n := int64(0); ; n++ { // 0: crash after the write returns
			inner, disk, s := setupCrashStore(t, 7)
			disk.SetTearWrites(tear)
			id, err := s.Create(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Write(1, id, 0, old); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			base := disk.Steps()
			disk.SetCrashAfter(n)
			err = s.Write(1, id, uint64(len(old)), added)
			if n == 0 && err != nil || err != nil && !disk.Crashed() {
				t.Fatalf("crash@%d: append failed without a crash: %v", n, err)
			}
			if err == nil && n > 0 {
				if steps := disk.Steps() - base; steps < 2 || !pointerBlockUnwritten(t, s, inner, id) {
					t.Fatalf("the append persisted %d blocks: want its journal record and not its pointer block", steps)
				}
				if err = s.Flush(); err == nil {
					t.Logf("tear=%v: %d crash points in and after the append and its flush", tear, n)
					break // every step of the write and the flush has been a crash point
				} else if !disk.Crashed() {
					t.Fatalf("crash@%d: flush failed without a crash: %v", n, err)
				}
			}
			disk.Crash()

			tag := fmt.Sprintf("crash@%d tear=%v", n, tear)
			s2, err := Open(inner, Config{SyncCompact: true})
			if err != nil {
				t.Fatalf("%s: reopen: %v", tag, err)
			}
			a, err := s2.GetAttr(1, id)
			if err != nil || a.Size != uint64(len(old)) && a.Size != uint64(len(old)+len(added)) {
				t.Fatalf("%s: size %d (%v), want the old %d or the new %d", tag, a.Size, err, len(old), len(old)+len(added))
			}
			got, err := s2.Read(1, id, 0, int(a.Size))
			if err != nil || len(got) != int(a.Size) || !bytes.Equal(got[:len(old)], old) {
				t.Fatalf("%s: read %d bytes (%v), want %d with the flushed prefix intact", tag, len(got), err, a.Size)
			}
			if repairs, err := s2.verifyRefs(); err != nil || repairs != 0 {
				t.Fatalf("%s: second verification pass repaired %d refcounts (%v)", tag, repairs, err)
			}
		}
	}
}

// TestCrashSweepTruncateIndirect crashes the disk around one truncate
// of a classic object whose tail sits under its indirect block, made
// when the last Flush has left the journal empty: right after the
// truncate returns, at every persist step inside it and at every step of
// the Flush after it. The truncate zeroes pointer slots; were the
// pointer block to reach the medium before the onode record that
// carries them, a crash between the two would leave the volume looking
// clean with its freed blocks still counted. Each seed destages the
// Flush in another order, so four of them put the blocks in both orders.
// The store must mount, the object must read its old bytes at its old
// or its new size, and a second verification pass must find nothing
// left to repair.
func TestCrashSweepTruncateIndirect(t *testing.T) {
	old := pattern(3, (layout.NumDirect+8)*512)
	newSize := (layout.NumDirect+2)*512 + 100
	for seed := int64(1); seed <= 4; seed++ {
		for _, tear := range []bool{false, true} {
			crashTruncateIndirect(t, seed, tear, old, newSize)
		}
	}
}

func crashTruncateIndirect(t *testing.T, seed int64, tear bool, old []byte, newSize int) {
	t.Helper()
	for n := int64(0); ; n++ { // 0: crash after the truncate returns
		inner, disk, s := setupCrashStore(t, seed)
		disk.SetTearWrites(tear)
		id, err := s.Create(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(1, id, 0, old); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		disk.SetCrashAfter(n)
		err = s.SetAttr(1, id, Attributes{Size: uint64(newSize)}, SetSize)
		if n == 0 && err != nil || err != nil && !disk.Crashed() {
			t.Fatalf("crash@%d: truncate failed without a crash: %v", n, err)
		}
		if err == nil && n > 0 {
			if err = s.Flush(); err == nil {
				t.Logf("seed %d tear=%v: %d crash points in and after the truncate and its flush", seed, tear, n)
				break // every step of the truncate and the flush has been a crash point
			} else if !disk.Crashed() {
				t.Fatalf("crash@%d: flush failed without a crash: %v", n, err)
			}
		}
		disk.Crash()

		tag := fmt.Sprintf("seed %d crash@%d tear=%v", seed, n, tear)
		s2, err := Open(inner, Config{SyncCompact: true})
		if err != nil {
			t.Fatalf("%s: reopen: %v", tag, err)
		}
		a, err := s2.GetAttr(1, id)
		if err != nil || a.Size != uint64(len(old)) && a.Size != uint64(newSize) {
			t.Fatalf("%s: size %d (%v), want the old %d or the new %d", tag, a.Size, err, len(old), newSize)
		}
		got, err := s2.Read(1, id, 0, len(old))
		if err != nil || !bytes.Equal(got, old[:a.Size]) {
			t.Fatalf("%s: read %d bytes (%v), want the first %d of the flushed ones", tag, len(got), err, a.Size)
		}
		if repairs, err := s2.verifyRefs(); err != nil || repairs != 0 {
			t.Fatalf("%s: second verification pass repaired %d refcounts (%v)", tag, repairs, err)
		}
	}
}

// TestCrashSweepVersionedOverwrite crashes the disk around one write
// whose range crosses from the direct slots into the indirect block of
// an object that shares every block with a version, so that one
// MapAlloc unshares the pointer block and the data blocks on both sides:
// right after the write returns, at every persist step inside it and at
// every step of the Flush after it. The store must mount and the
// version read its old contents. The object must read at its size, and
// outside the blocks the write unshared its old bytes: those blocks hold
// write-behind data, which an unflushed write may lose (DESIGN.md §7),
// the copied-over old bytes around the write included. A second
// verification pass must find nothing to repair, and the quota
// accounting must be the census's.
func TestCrashSweepVersionedOverwrite(t *testing.T) {
	old := pattern(5, (layout.NumDirect+8)*512)
	off := (layout.NumDirect-3)*512 + 100
	added := pattern(9, 6*512)
	lo, hi := (layout.NumDirect-3)*512, (off+len(added)+511)/512*512 // the unshared blocks
	seeds := int64(4)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, tear := range []bool{false, true} {
			for n := int64(0); ; n++ { // 0: crash after the write returns
				inner, disk, s := setupCrashStore(t, seed)
				disk.SetTearWrites(tear)
				id, err := s.Create(1)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Write(1, id, 0, old); err != nil {
					t.Fatal(err)
				}
				ver, err := s.VersionObject(1, id)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				disk.SetCrashAfter(n)
				err = s.Write(1, id, uint64(off), added)
				if n == 0 && err != nil || err != nil && !disk.Crashed() {
					t.Fatalf("crash@%d: overwrite failed without a crash: %v", n, err)
				}
				if err == nil && n > 0 {
					if err = s.Flush(); err == nil {
						t.Logf("seed %d tear=%v: %d crash points in and after the overwrite and its flush", seed, tear, n)
						break // every step of the write and the flush has been a crash point
					} else if !disk.Crashed() {
						t.Fatalf("crash@%d: flush failed without a crash: %v", n, err)
					}
				}
				disk.Crash()

				tag := fmt.Sprintf("seed %d crash@%d tear=%v", seed, n, tear)
				s2, err := Open(inner, Config{SyncCompact: true})
				if err != nil {
					t.Fatalf("%s: reopen: %v", tag, err)
				}
				got, err := s2.Read(1, id, 0, len(old)+1)
				if err != nil || len(got) != len(old) || !bytes.Equal(got[:lo], old[:lo]) || !bytes.Equal(got[hi:], old[hi:]) {
					t.Fatalf("%s: object read %d bytes (%v), want %d, old outside the unshared blocks", tag, len(got), err, len(old))
				}
				if got, err := s2.Read(1, ver, 0, len(old)); err != nil || !bytes.Equal(got, old) {
					t.Fatalf("%s: version read %d bytes (%v), want the old contents", tag, len(got), err)
				}
				if repairs, err := s2.verifyRefs(); err != nil || repairs != 0 {
					t.Fatalf("%s: second verification pass repaired %d refcounts (%v)", tag, repairs, err)
				}
				checkAccounting(t, s2, tag)
			}
		}
	}
}

// pointerBlockUnwritten reports whether the indirect block of classic
// object id still holds no mapping on the medium, inner.
func pointerBlockUnwritten(t *testing.T, s *Store, inner *blockdev.MemDisk, id uint64) bool {
	t.Helper()
	_, o, err := s.classic.lookup(1, id)
	if err != nil || o.Indirect == 0 {
		t.Fatalf("object %d has no indirect block (%v)", id, err)
	}
	buf := make([]byte, inner.BlockSize())
	if err := inner.ReadBlock(o.Indirect, buf); err != nil {
		t.Fatal(err)
	}
	return !slices.ContainsFunc(buf, func(b byte) bool { return b != 0 })
}

// The deferred-onode sweep. On a journaled volume an append commits its
// onode record and returns; the onode table is written at the next Flush,
// or when the journal runs full. deferredAppends appends with no Flush
// in between to objects whose onodes are neighbours in the table, enough
// times to run the journal full once, then Flushes, so a crash point can
// fall between a commit and its deferred in-place write, inside the
// ranged onode-table write of the journal-full write-back or of the
// Flush, and inside the checkpoint after either.

const (
	deferredObjects = 6
	deferredAppends = 48
)

// deferredGeometries both give the journal a half that holds about 30
// one-onode commits. With 512-byte blocks an onode is a block of its
// own; with 4096-byte blocks the six onodes share one, which a torn
// write (a prefix of 512-byte sectors) leaves part old and part new.
var deferredGeometries = []struct {
	bs     int
	blocks int64
}{{512, 4096}, {4096, 2048}}

type deferredModel struct {
	ids   []uint64
	live  map[uint64][]byte // contents once every append so far is in
	acked map[uint64]int    // size the last acknowledged append left
	tried map[uint64]int    // size the append in flight would leave
}

// setupDeferredStore formats a classic partition on a fresh CrashDisk,
// creates the objects one block short of their direct slots, so that the
// first append reaches the indirect block, and flushes.
func setupDeferredStore(t *testing.T, seed int64, bs int, blocks int64) (*blockdev.MemDisk, *blockdev.CrashDisk, *Store, *deferredModel) {
	t.Helper()
	inner := blockdev.NewMemDisk(bs, blocks)
	disk := blockdev.NewCrashDisk(inner, seed)
	s, err := Format(disk, Config{SyncCompact: true, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartition(1, 0); err != nil {
		t.Fatal(err)
	}
	m := &deferredModel{live: map[uint64][]byte{}, acked: map[uint64]int{}, tried: map[uint64]int{}}
	for i := 0; i < deferredObjects; i++ {
		id, err := s.Create(1)
		if err != nil {
			t.Fatal(err)
		}
		base := bytes.Repeat([]byte{0xA0 + byte(i)}, (layout.NumDirect-1)*bs)
		if err := s.Write(1, id, 0, base); err != nil {
			t.Fatal(err)
		}
		m.ids = append(m.ids, id)
		m.live[id], m.acked[id], m.tried[id] = base, len(base), len(base)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return inner, disk, s, m
}

// runDeferredAppends returns nil when the appends and the Flush after
// them completed, blockdev.ErrCrashed when the disk crashed first.
func runDeferredAppends(s *Store, disk *blockdev.CrashDisk, rng *rand.Rand, bs int, m *deferredModel) error {
	crashedOr := func(err error) error {
		if disk.Crashed() {
			return blockdev.ErrCrashed
		}
		return fmt.Errorf("failed without a crash: %w", err)
	}
	for i := 0; i < deferredAppends; i++ {
		id := m.ids[rng.Intn(len(m.ids))]
		data := make([]byte, 1+rng.Intn(3*bs))
		rng.Read(data)
		m.tried[id] = m.acked[id] + len(data)
		if err := s.Write(1, id, uint64(m.acked[id]), data); err != nil {
			return crashedOr(err)
		}
		m.live[id] = append(m.live[id], data...)
		m.acked[id] = m.tried[id]
	}
	if err := s.Flush(); err != nil {
		return crashedOr(err)
	}
	return nil
}

// verifyDeferredContract mounts what the crash left and checks: the
// store opens; every object has the size its last acknowledged append
// left (the record was committed before the append returned) or the one
// the append in flight would have; it reads without error with its
// flushed prefix intact, and exactly when the final Flush returned; no
// reference count is left to repair; the quota charge is the census; and
// recovery is idempotent: a second mount replays and repairs nothing and
// finds the same onodes.
func verifyDeferredContract(t *testing.T, tag string, inner *blockdev.MemDisk, bs int, m *deferredModel, flushed bool) {
	t.Helper()
	s, err := Open(inner, Config{SyncCompact: true})
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", tag, err)
	}
	sizes := map[uint64]uint64{}
	for _, id := range m.ids {
		a, err := s.GetAttr(1, id)
		if err != nil || a.Size != uint64(m.acked[id]) && a.Size != uint64(m.tried[id]) {
			t.Fatalf("%s: object %d has size %d (%v), acknowledged %d, in flight %d", tag, id, a.Size, err, m.acked[id], m.tried[id])
		}
		sizes[id] = a.Size
		got, err := s.Read(1, id, 0, int(a.Size)+1)
		if err != nil || len(got) != int(a.Size) {
			t.Fatalf("%s: object %d read %d of %d bytes: %v", tag, id, len(got), a.Size, err)
		}
		want := m.live[id]
		if !flushed {
			want = want[:(layout.NumDirect-1)*bs]
		}
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("%s: object %d lost flushed bytes (flush after the appends returned: %v)", tag, id, flushed)
		}
	}
	if repairs, err := s.verifyRefs(); err != nil || repairs != 0 {
		t.Fatalf("%s: %d refcount repairs left after recovery (%v)", tag, repairs, err)
	}
	checkAccounting(t, s, tag)

	s2, err := Open(inner, Config{SyncCompact: true})
	if err != nil {
		t.Fatalf("%s: second mount: %v", tag, err)
	}
	if r := s2.RecoveryInfo(); r.Replayed != 0 || r.TornTails != 0 || r.RefRepairs != 0 {
		t.Fatalf("%s: second mount of the recovered image did recovery work: %+v", tag, r)
	}
	for _, id := range m.ids {
		if a, err := s2.GetAttr(1, id); err != nil || a.Size != sizes[id] {
			t.Fatalf("%s: object %d has size %d (%v) at the second mount, %d at the first", tag, id, a.Size, err, sizes[id])
		}
	}
	if repairs, err := s2.verifyRefs(); err != nil || repairs != 0 {
		t.Fatalf("%s: second mount left %d refcount repairs (%v)", tag, repairs, err)
	}
}

// TestCrashSweepDeferredOnodes crashes "48 appends, no flush, then
// Flush" at every persist step, on the seeds TestCrashSweep runs, even
// seeds tearing the block the crash interrupts. Short mode samples two
// seeds.
func TestCrashSweepDeferredOnodes(t *testing.T) {
	seeds, maxPoints := int64(5), 1<<30
	if testing.Short() {
		seeds, maxPoints = 2, 24
	}
	points := 0
	for _, g := range deferredGeometries {
		for seed := int64(1); seed <= seeds; seed++ {
			tear := seed%2 == 0
			_, disk, s, m := setupDeferredStore(t, seed, g.bs, g.blocks)
			disk.SetTearWrites(tear)
			checkpoints := s.cfg.Metrics.Counter("journal.checkpoints")
			base, before := disk.Steps(), checkpoints.Load()
			if err := runDeferredAppends(s, disk, rand.New(rand.NewSource(seed)), g.bs, m); err != nil {
				t.Fatalf("bs %d seed %d: dry run: %v", g.bs, seed, err)
			}
			total := disk.Steps() - base
			if n := checkpoints.Load() - before; n < 2 { // one is the final Flush's
				t.Fatalf("bs %d seed %d: %d checkpoints: the appends never ran the journal full", g.bs, seed, n)
			}
			stride := max(1, total/int64(maxPoints))
			for n := int64(1); n <= total+1; n += stride { // total+1: no crash
				inner, disk, s, m := setupDeferredStore(t, seed, g.bs, g.blocks)
				disk.SetTearWrites(tear)
				disk.SetCrashAfter(n)
				err := runDeferredAppends(s, disk, rand.New(rand.NewSource(seed)), g.bs, m)
				if err != nil && !errors.Is(err, blockdev.ErrCrashed) || err == nil && n <= total {
					t.Fatalf("bs %d seed %d crash@%d of %d: %v", g.bs, seed, n, total, err)
				}
				verifyDeferredContract(t, fmt.Sprintf("bs %d seed %d crash@%d tear=%v", g.bs, seed, n, tear), inner, g.bs, m, err == nil)
				points++
			}
		}
	}
	t.Logf("swept %d crash points", points)
}

// TestFlushDurableAcrossCrash is the regression test for the needle
// flush-propagation bug: Store.Flush on a needle partition used to
// snapshot the index and write log tails without ever flushing the
// device, so a volatile write cache could lose everything "flushed".
func TestFlushDurableAcrossCrash(t *testing.T) {
	inner, disk, s := setupCrashStore(t, 99)
	classic := bytes.Repeat([]byte{0xC1}, 3000)
	needle := bytes.Repeat([]byte{0x4E}, 3000)
	idC, err := s.Create(1)
	if err != nil {
		t.Fatalf("create classic: %v", err)
	}
	idN, err := s.Create(2)
	if err != nil {
		t.Fatalf("create needle: %v", err)
	}
	if err := s.Write(1, idC, 0, classic); err != nil {
		t.Fatalf("write classic: %v", err)
	}
	if err := s.Write(2, idN, 0, needle); err != nil {
		t.Fatalf("write needle: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Power cut: everything still in the volatile cache is gone.
	disk.Crash()

	s2, err := Open(inner, Config{SyncCompact: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := s2.Read(1, idC, 0, len(classic))
	if err != nil || !bytes.Equal(got, classic) {
		t.Fatalf("classic object lost after flush+crash: %v (%d bytes)", err, len(got))
	}
	got, err = s2.Read(2, idN, 0, len(needle))
	if err != nil || !bytes.Equal(got, needle) {
		t.Fatalf("needle object lost after flush+crash: %v (%d bytes)", err, len(got))
	}
}
