package cheops

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"nasd/internal/capability"
	"nasd/internal/rpc"
)

// TestManagerStateSurvivesRemount verifies that a rebuilt manager (new
// process, same drives) recovers every logical object from the
// directory object and serves identical data.
func TestManagerStateSurvivesRemount(t *testing.T) {
	r := newRig(t, 4)
	idStripe, err := r.mgr.Create(testCtx, Stripe0, 32<<10, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	idRaid, err := r.mgr.Create(testCtx, RAID5, 16<<10, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := OpenObject(r.mgr, r.drives, idStripe, capability.Read|capability.Write)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("persist"), 20_000)
	if err := obj.WriteAt(testCtx, 0, data); err != nil {
		t.Fatal(err)
	}
	robj, err := OpenObject(r.mgr, r.drives, idRaid, capability.Read|capability.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := robj.WriteAt(testCtx, 0, data[:50_000]); err != nil {
		t.Fatal(err)
	}

	// "Restart" the manager: same drive connections, format=false.
	refs := make([]DriveRef, len(r.mgr.drives))
	copy(refs, r.mgr.drives)
	mgr2, err := NewManager(testCtx, ManagerConfig{Drives: refs, Partition: r.mgr.part}, false)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := mgr2.Stat(idStripe)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Pattern != Stripe0 || desc.Width() != 4 || desc.Size != uint64(len(data)) {
		t.Fatalf("recovered descriptor = %+v", desc)
	}
	obj2, err := OpenObject(mgr2, r.drives, idStripe, capability.Read)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obj2.ReadAt(testCtx, 0, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data after remount: %v", err)
	}
	robj2, err := OpenObject(mgr2, r.drives, idRaid, capability.Read)
	if err != nil {
		t.Fatal(err)
	}
	got, err = robj2.ReadAt(testCtx, 0, 50_000)
	if err != nil || !bytes.Equal(got, data[:50_000]) {
		t.Fatalf("raid data after remount: %v", err)
	}

	// New objects on the remounted manager do not collide with old IDs.
	id3, err := mgr2.Create(testCtx, Stripe0, 32<<10, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id3 == idStripe || id3 == idRaid {
		t.Fatalf("logical ID reused: %d", id3)
	}
}

// TestRemovePersisted verifies deletions survive remount.
func TestRemovePersisted(t *testing.T) {
	r := newRig(t, 2)
	id, err := r.mgr.Create(testCtx, Stripe0, 4096, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Remove(testCtx, id); err != nil {
		t.Fatal(err)
	}
	refs := make([]DriveRef, len(r.mgr.drives))
	copy(refs, r.mgr.drives)
	mgr2, err := NewManager(testCtx, ManagerConfig{Drives: refs, Partition: r.mgr.part}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr2.Stat(id); err == nil {
		t.Fatal("removed object resurrected after remount")
	}
}

// TestDecodeStateRejectsCorruptCounts: a directory whose counts exceed
// its bytes, or whose component names a drive the manager does not
// have, is an error — decoded without allocating for the claimed
// count, and never handed to Open to index out of range.
func TestDecodeStateRejectsCorruptCounts(t *testing.T) {
	record := func(nc uint32, drive uint32) []byte {
		var e rpc.Encoder
		e.U32(dirMagic)
		e.U64(9)
		e.U32(1)
		e.U64(7)
		e.U8(uint8(RAID5))
		e.I64(16 << 10)
		e.U64(0)
		e.U32(nc)
		e.U32(drive)
		e.U64(1)
		e.U64(42)
		return e.Bytes()
	}
	for name, b := range map[string][]byte{
		"truncated":      record(0xFFFFFFFF, 0),
		"drive-oor":      record(1, 4),
		"object-count":   append(record(1, 0)[:12], 0xFF, 0xFF, 0xFF, 0xFF),
		"unknown-layout": bytes.Replace(record(1, 0), []byte{uint8(RAID5)}, []byte{9}, 1),
	} {
		t.Run(name, func(t *testing.T) {
			m := &Manager{drives: make([]DriveRef, 4)}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := m.decodeState(b)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("decoded a corrupt directory: %+v", m.objects)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<10 {
				t.Fatalf("rejecting a %d-byte directory allocated %d bytes", len(b), grew)
			}
		})
	}
}

// FuzzDirectory: decoding arbitrary bytes never panics, and whatever
// decodes re-encodes to a directory that decodes to the same objects.
func FuzzDirectory(f *testing.F) {
	seed := &Manager{next: 3, drives: make([]DriveRef, 4), objects: map[uint64]*Descriptor{
		1: {Logical: 1, Pattern: RAID5, StripeUnit: 16 << 10, Size: 99, Components: []Component{{0, 1, 5}, {1, 2, 6}, {2, 3, 7}}},
		2: {Logical: 2, Pattern: Mirror1, StripeUnit: 4096, Components: []Component{{3, 4, 8}}},
	}}
	f.Add(seed.encodeState())
	f.Add([]byte{0x44, 0x50, 0x48, 0x43, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		m := &Manager{drives: make([]DriveRef, 4)}
		if m.decodeState(b) != nil {
			return
		}
		m2 := &Manager{drives: m.drives}
		if err := m2.decodeState(m.encodeState()); err != nil {
			t.Fatalf("re-encoded directory does not decode: %v", err)
		}
		if m2.next != m.next || !reflect.DeepEqual(m2.objects, m.objects) {
			t.Fatalf("round trip: got %+v, want %+v", m2.objects, m.objects)
		}
	})
}
