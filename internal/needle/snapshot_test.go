package needle

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"nasd/internal/blockdev"
)

// The index snapshot is restart acceleration written only when the log
// has outgrown it: these tests pin when Flush writes one, what a flush
// costs without one, that recovery from a stale one rebuilds exactly
// what a full scan does, and that the scan past the snapshot stays
// smaller than the snapshot.

// countingMeta counts the snapshots saved and their bytes.
type countingMeta struct {
	*testMeta
	mu    sync.Mutex
	saves int
	bytes int64
}

func (m *countingMeta) SaveIndex(part uint16, data []byte) error {
	m.mu.Lock()
	m.saves++
	m.bytes += int64(len(data))
	m.mu.Unlock()
	return m.testMeta.SaveIndex(part, data)
}

// countingDev counts the device's write calls, per-block and ranged,
// and the blocks they write.
type countingDev struct {
	*blockdev.MemDisk
	mu             sync.Mutex
	single, ranged int
	blocks         int64
}

func (d *countingDev) WriteBlock(i int64, data []byte) error {
	d.mu.Lock()
	d.single++
	d.blocks++
	d.mu.Unlock()
	return d.MemDisk.WriteBlock(i, data)
}

func (d *countingDev) WriteBlocks(start int64, data []byte) error {
	d.mu.Lock()
	d.ranged++
	d.blocks += int64(len(data) / d.BlockSize())
	d.mu.Unlock()
	return d.MemDisk.WriteBlocks(start, data)
}

// logOf returns part's open log.
func logOf(t *testing.T, e *Engine) *Log {
	t.Helper()
	l, err := e.getLog(tpart)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// logState is what recovery rebuilds: the index and each segment's
// live bytes.
type logState struct {
	index map[uint64]snapEntry
	live  map[uint64]int64
}

func stateOf(t *testing.T, e *Engine) logState {
	t.Helper()
	l := logOf(t, e)
	l.mu.RLock()
	defer l.mu.RUnlock()
	st := logState{index: map[uint64]snapEntry{}, live: map[uint64]int64{}}
	for obj, ent := range l.index {
		st.index[obj] = snapEntry{seg: ent.seg.seq, off: ent.off, size: ent.size, lsn: ent.lsn, info: ent.info}
	}
	for _, s := range l.segs {
		st.live[s.seq] = s.live
	}
	return st
}

// TestRecoveryFromStaleSnapshot: after a snapshot the log takes an
// overwrite, a removal, a creation and a compaction that frees a
// segment the snapshot names, all durable but with no new snapshot.
// Recovery from the stale snapshot plus the log past it rebuilds the
// same index and the same live bytes per segment as a full scan with no
// snapshot at all.
func TestRecoveryFromStaleSnapshot(t *testing.T) {
	r := newRig(t)
	e := New(Config{Dev: r.dev, Space: &testSpace{max: 4096}, Meta: r.meta, Quota: r.quota,
		Metrics: r.reg, SegmentBlocks: 8, CompactThreshold: 0.5, SyncCompact: true})
	if err := e.CreateLog(tpart); err != nil {
		t.Fatal(err)
	}
	for obj := uint64(16); obj < 40; obj++ {
		if err := e.Create(tpart, obj, 10); err != nil {
			t.Fatal(err)
		}
		if err := e.Write(tpart, obj, 0, pay(obj, 300), 11); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, _ := r.meta.LoadIndex(tpart)
	if len(snap) == 0 {
		t.Fatal("the first flush wrote no snapshot")
	}
	compactions := r.reg.Counter("needle.compactions")
	before := compactions.Load()
	if err := e.Write(tpart, 20, 0, pay(99, 150), 12); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(tpart, 21); err != nil {
		t.Fatal(err)
	}
	if err := e.Create(tpart, 50, 13); err != nil {
		t.Fatal(err)
	}
	// Overwrite the objects of the oldest segments until one is mostly
	// dead and is compacted away.
	for i := 0; compactions.Load() == before; i++ {
		if i == 200 {
			t.Fatal("no compaction after 200 overwrites")
		}
		obj := uint64(16 + i%4)
		if err := e.Write(tpart, obj, 0, pay(uint64(i), 300), 14); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Sync(tpart); err != nil { // durable tail, no snapshot
		t.Fatal(err)
	}
	if now, _ := r.meta.LoadIndex(tpart); !bytes.Equal(now, snap) {
		t.Fatal("the snapshot was rewritten")
	}
	live := stateOf(t, e)
	gone := 0
	for seq := range decodeIndexSnapshot(snap, logOf(t, e).epoch).segLive {
		if _, ok := live.live[seq]; !ok {
			gone++
		}
	}
	if gone == 0 {
		t.Fatal("no segment the snapshot names was compacted away")
	}

	fromSnap := r.engineAfterRestart(0.5, 4096)
	if _, err := fromSnap.OpenLog(tpart); err != nil {
		t.Fatal(err)
	}
	if err := r.meta.SaveIndex(tpart, nil); err != nil {
		t.Fatal(err)
	}
	fullScan := r.engineAfterRestart(0.5, 4096)
	if _, err := fullScan.OpenLog(tpart); err != nil {
		t.Fatal(err)
	}
	a, b := stateOf(t, fromSnap), stateOf(t, fullScan)
	if !reflect.DeepEqual(a.index, b.index) {
		t.Fatalf("index from the stale snapshot (%d entries) differs from the full scan's (%d)", len(a.index), len(b.index))
	}
	if !reflect.DeepEqual(a.live, b.live) {
		t.Fatalf("live bytes from the stale snapshot %v, from the full scan %v", a.live, b.live)
	}
	if !reflect.DeepEqual(a.index, live.index) || !reflect.DeepEqual(a.live, live.live) {
		t.Fatalf("recovered state differs from the log's before the restart: live %v, want %v", a.live, live.live)
	}
}

// TestSnapshotWrittenOnceLogOutgrowsIt: the first Flush writes a
// snapshot; flushes after small deltas write none; the first Flush after
// the log has grown by the snapshot's size writes the next one.
func TestSnapshotWrittenOnceLogOutgrowsIt(t *testing.T) {
	r := newRig(t)
	meta := &countingMeta{testMeta: r.meta}
	e := New(Config{Dev: r.dev, Space: &testSpace{max: 4096}, Meta: meta, Quota: r.quota, SegmentBlocks: 8, CompactThreshold: -1})
	if err := e.CreateLog(tpart); err != nil {
		t.Fatal(err)
	}
	for obj := uint64(16); obj < 48; obj++ {
		if err := e.Create(tpart, obj, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if meta.saves != 1 {
		t.Fatalf("first flush saved %d snapshots, want 1", meta.saves)
	}
	size := meta.bytes
	const payload = 40
	rec := int64(headerSize + payload + crcSize)
	var grown int64
	for i := 0; grown < size; i++ {
		if err := e.Write(tpart, uint64(16+i%32), 0, pay(uint64(i), payload), 2); err != nil {
			t.Fatal(err)
		}
		grown += rec
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		want := 1
		if grown >= size {
			want = 2
		}
		if meta.saves != want {
			t.Fatalf("after %d of %d bytes past a %d-byte snapshot: %d snapshots saved, want %d", grown, size, size, meta.saves, want)
		}
	}
}

// TestFlushCostIndependentOfObjectCount: with 10 000 and with 40 000
// objects in the log, 100 puts and the Flush after them write no
// snapshot, and the same device blocks give or take one (where the
// log tail falls in its block, and so whether a segment roll splits
// the run, differs): the puts and the flush move the log tail, not
// the index. Blocks are counted over the puts and the flush together,
// because puts leave up to a run of blocks pending for the flush.
func TestFlushCostIndependentOfObjectCount(t *testing.T) {
	const puts, size = 100, 4096
	cost := func(objects int) int64 {
		dev := &countingDev{MemDisk: blockdev.NewMemDisk(4096, 8192)}
		meta := &countingMeta{testMeta: newTestMeta()}
		e := New(Config{Dev: dev, Space: &testSpace{max: 8192}, Meta: meta, Quota: &testQuota{}, SegmentBlocks: 256, CompactThreshold: -1})
		if err := e.CreateLog(tpart); err != nil {
			t.Fatal(err)
		}
		for obj := uint64(1); obj <= uint64(objects); obj++ {
			if err := e.Create(tpart, obj, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		dev.blocks, meta.saves, meta.bytes = 0, 0, 0
		for i := 0; i < puts; i++ {
			if err := e.Write(tpart, uint64(1+i*97%objects), 0, pay(uint64(i), size), 2); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if meta.saves != 0 {
			t.Fatalf("%d objects: the flush after %d puts saved a %d-byte snapshot", objects, puts, meta.bytes)
		}
		return dev.blocks
	}
	// The puts' records, plus the partly filled block they start in and
	// the one a segment roll may leave partly filled.
	most := (puts*(headerSize+size+crcSize)+4095)/4096 + 2
	small, large := cost(10000), cost(40000)
	if small == 0 || small > int64(most) || large > int64(most) || small-large > 1 || large-small > 1 {
		t.Fatalf("%d puts and a flush wrote %d blocks at 10k objects and %d at 40k, want at most %d and one apart", puts, small, large, most)
	}
}

// TestRecoveryScanSmallerThanSnapshot: after any Flush the log past the
// durable snapshot, which is what recovery scans, is smaller than the
// snapshot, through creates, overwrites, removals, segment rolls and
// compactions.
func TestRecoveryScanSmallerThanSnapshot(t *testing.T) {
	r := newRig(t)
	e := New(Config{Dev: r.dev, Space: &testSpace{max: 4096}, Meta: r.meta, Quota: r.quota,
		SegmentBlocks: 8, CompactThreshold: 0.5, SyncCompact: true})
	if err := e.CreateLog(tpart); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	live := map[uint64]bool{}
	next := uint64(16)
	for round := 0; round < 40; round++ {
		for i := rng.Intn(30); i > 0; i-- {
			switch obj := uint64(16 + rng.Intn(int(next-16)+1)); {
			case !live[obj] && obj == next:
				if err := e.Create(tpart, obj, 1); err != nil {
					t.Fatal(err)
				}
				live[obj], next = true, next+1
			case live[obj] && rng.Intn(5) == 0:
				if err := e.Remove(tpart, obj); err != nil {
					t.Fatal(err)
				}
				delete(live, obj)
			case live[obj]:
				if err := e.Write(tpart, obj, 0, pay(obj, rng.Intn(400)), 2); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		e2 := r.engineAfterRestart(0.5, 4096)
		st, err := e2.OpenLog(tpart)
		if err != nil {
			t.Fatal(err)
		}
		l := logOf(t, e2)
		if l.snapBytes == 0 || l.sinceSnap >= l.snapBytes {
			t.Fatalf("round %d: recovery scanned %d bytes past a %d-byte snapshot", round, l.sinceSnap, l.snapBytes)
		}
		if st.Objects != uint64(len(live)) {
			t.Fatalf("round %d: recovered %d objects, want %d", round, st.Objects, len(live))
		}
	}
}

// FuzzIndexSnapshot: decoding never panics, whether the input's
// checksum holds or is made to; and a snapshot encoded from a log built
// from the input decodes to that log's index and live bytes.
func FuzzIndexSnapshot(f *testing.F) {
	f.Add([]byte{}, uint64(7))
	f.Add(bytes.Repeat([]byte{0xA5}, 300), uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, epoch uint64) {
		decodeIndexSnapshot(data, epoch)
		if len(data) >= 16+crcSize {
			fixed := bytes.Clone(data)
			binary.LittleEndian.PutUint32(fixed, idxSnapMagic)
			binary.LittleEndian.PutUint32(fixed[4:], idxSnapVersion)
			binary.LittleEndian.PutUint64(fixed[8:], epoch)
			body := len(fixed) - crcSize
			binary.LittleEndian.PutUint32(fixed[body:], crc32.Checksum(fixed[:body], crcTable))
			decodeIndexSnapshot(fixed, epoch)
		}

		l, want := logFromBytes(data, epoch)
		snap := decodeIndexSnapshot(l.encodeIndexSnapshot(), epoch)
		if snap == nil {
			t.Fatal("an encoded snapshot did not decode")
		}
		got := logState{index: map[uint64]snapEntry{}, live: snap.segLive}
		for obj, e := range snap.entries {
			got.index[obj] = *e
		}
		if !reflect.DeepEqual(got, want) || snap.actSeq != l.act.seq || snap.tail != l.act.written {
			t.Fatalf("snapshot round trip: got %+v, want %+v", got, want)
		}
	})
}

// logFromBytes builds a log whose segments and index entries take their
// fields from data, and returns it with the state its snapshot holds.
func logFromBytes(data []byte, epoch uint64) (*Log, logState) {
	next := func() uint64 {
		var b [8]byte
		data = data[copy(b[:], data):]
		return binary.LittleEndian.Uint64(b[:])
	}
	l := &Log{epoch: epoch, index: map[uint64]*entry{}}
	want := logState{index: map[uint64]snapEntry{}, live: map[uint64]int64{}}
	for i := uint64(0); i < 1+next()%4; i++ {
		s := &segment{seq: 10*i + next()%10, written: int64(next() >> 1), live: int64(next() >> 1)}
		l.segs = append(l.segs, s)
		want.live[s.seq] = s.live
	}
	l.act = l.segs[len(l.segs)-1]
	for len(data) > 0 {
		s := l.segs[next()%uint64(len(l.segs))]
		obj := next()
		e := &entry{seg: s, off: int64(next() >> 1), size: int64(next() >> 1), lsn: next(), info: Info{
			Size: next(), Version: next(), CreateSec: int64(next()), ModSec: int64(next()),
			AttrModSec: int64(next()), Prealloc: next(), Cluster: next(),
		}}
		if next()%2 == 1 {
			var u [UninterpSize]byte
			binary.LittleEndian.PutUint64(u[UninterpSize-8:], next())
			e.info.Uninterp = &u
		}
		l.index[obj] = e
		want.index[obj] = snapEntry{seg: s.seq, off: e.off, size: e.size, lsn: e.lsn, info: e.info}
	}
	return l, want
}
