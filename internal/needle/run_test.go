package needle

import (
	"bytes"
	"errors"
	"testing"

	"nasd/internal/blockdev"
	"nasd/internal/telemetry"
)

// Appends leave the log in runs: records collect in the pending buffer
// until a run is full, a Sync or Flush, or a segment roll, and then go
// to the device as ranged writes. These tests pin the call count, what
// a failed run write does to the append that triggered it, and that a
// power cut with a run pending recovers the last Flush.

// runEngine builds an engine over dev and meta with 4 KiB-block
// defaults; space starts handing out blocks at next, so a restarted
// engine does not reuse the blocks its predecessor's segments hold.
func runEngine(dev blockdev.Device, meta Meta, reg *telemetry.Registry, next int64) *Engine {
	return New(Config{Dev: dev, Space: &testSpace{next: next, max: dev.Blocks()}, Meta: meta,
		Quota: &testQuota{}, Metrics: reg, CompactThreshold: -1})
}

// put creates obj and writes its 4 KiB payload.
func put(t *testing.T, e *Engine, obj uint64) {
	t.Helper()
	if err := e.Create(tpart, obj, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(tpart, obj, 0, pay(obj, 4096), 2); err != nil {
		t.Fatal(err)
	}
}

// readsBack fails unless obj reads back as its 4 KiB payload.
func readsBack(t *testing.T, e *Engine, obj uint64) {
	t.Helper()
	got, err := e.Read(tpart, obj, 0, 4096)
	if err != nil {
		t.Fatalf("object %d: %v", obj, err)
	}
	if !bytes.Equal(got, pay(obj, 4096)) {
		t.Fatalf("object %d: payload mismatch", obj)
	}
}

// TestAppendsWriteInRuns: 300 puts of 4 KiB and a Flush cost at most
// one ranged write per run of log bytes plus one, and no per-block
// write. Every object reads back byte-exact before the Flush (the last
// one from the pending buffer, with no device read), and after the
// Flush and a reopen.
func TestAppendsWriteInRuns(t *testing.T) {
	const objects = 300
	mem := blockdev.NewMemDisk(4096, 4096)
	dev := &countingDev{MemDisk: mem}
	meta, reg := newTestMeta(), telemetry.NewRegistry()
	e := runEngine(dev, meta, reg, 0)
	if err := e.CreateLog(tpart); err != nil {
		t.Fatal(err)
	}
	for obj := uint64(1); obj <= objects; obj++ {
		put(t, e, obj)
	}
	ios := reg.Counter("needle.read_block_ios")
	before := ios.Load()
	readsBack(t, e, objects)
	if n := ios.Load() - before; n != 0 {
		t.Fatalf("the newest object cost %d device reads, want 0 from the pending buffer", n)
	}
	for obj := uint64(1); obj <= objects; obj++ {
		readsBack(t, e, obj)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	logBytes := int64(objects) * (headerSize + crcSize + headerSize + 4096 + crcSize)
	run := int64(blockdev.RunLimit) * 4096
	if most := int((logBytes+run-1)/run + 1); dev.ranged > most || dev.single != 0 {
		t.Fatalf("%d puts of 4 KiB: %d ranged and %d per-block writes, want at most %d ranged and none per block",
			objects, dev.ranged, dev.single, most)
	}

	e2 := runEngine(mem, meta, nil, mem.Blocks()/2)
	st, err := e2.OpenLog(tpart)
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != objects {
		t.Fatalf("reopened with %d objects, want %d", st.Objects, objects)
	}
	for obj := uint64(1); obj <= objects; obj++ {
		readsBack(t, e2, obj)
	}
}

// TestFailedRunWriteFailsItsAppend: the append that would overflow a
// full run writes the run first; when a block of that write fails, the
// append returns the error and its record stays out of the log. The
// records acknowledged before it are still pending, a later Flush
// persists them, and after a reopen, from the snapshot or by a full
// scan, they all read back while the failed object is absent.
func TestFailedRunWriteFailsItsAppend(t *testing.T) {
	mem := blockdev.NewMemDisk(4096, 4096)
	meta := newTestMeta()
	e := runEngine(mem, meta, nil, 0)
	if err := e.CreateLog(tpart); err != nil {
		t.Fatal(err)
	}
	l := logOf(t, e)
	const create, write = headerSize + crcSize, headerSize + 4096 + crcSize
	full := func(add int) bool {
		return int64(len(l.pending)+add) > blockdev.RunLimit*4096
	}
	// Fill the run with puts, then with empty creates, up to the append
	// that would overflow it.
	obj := uint64(1)
	for ; !full(create + write); obj++ {
		put(t, e, obj)
	}
	puts := obj
	for ; !full(create); obj++ {
		if err := e.Create(tpart, obj, 1); err != nil {
			t.Fatal(err)
		}
	}
	failed := obj
	boom := errors.New("injected write error")
	mem.FailNext(l.act.blocks[l.flushed/4096+100], boom)
	if err := e.Create(tpart, failed, 1); !errors.Is(err, boom) {
		t.Fatalf("the append that wrote the failing run returned %v, want %v", err, boom)
	}
	if _, err := e.GetInfo(tpart, failed); err != ErrNotFound {
		t.Fatalf("the failed create left object %d in the index: %v", failed, err)
	}
	after := failed + 1
	if err := e.Create(tpart, after, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	// Reopen from the snapshot the Flush saved, then by a full scan,
	// which would find the failed record had it reached the log.
	for _, scan := range []bool{false, true} {
		if scan {
			if err := meta.SaveIndex(tpart, nil); err != nil {
				t.Fatal(err)
			}
		}
		e2 := runEngine(mem, meta, nil, mem.Blocks()/2)
		st, err := e2.OpenLog(tpart)
		if err != nil {
			t.Fatal(err)
		}
		if want := after - 1; st.Objects != want {
			t.Fatalf("full scan %v: reopened with %d objects, want %d", scan, st.Objects, want)
		}
		if _, err := e2.GetInfo(tpart, failed); err != ErrNotFound {
			t.Fatalf("full scan %v: the failed object %d came back after reopen: %v", scan, failed, err)
		}
		for o := uint64(1); o < puts; o++ {
			readsBack(t, e2, o)
		}
		for o := puts; o <= after; o++ {
			if o == failed {
				continue
			}
			if info, err := e2.GetInfo(tpart, o); err != nil || info.Size != 0 {
				t.Fatalf("full scan %v: created object %d after reopen: %+v, %v", scan, o, info, err)
			}
		}
	}
}

// TestCrashWithPendingRun: after a Flush, more puts, an overwrite
// and a removal leave a run written to the device's volatile cache and
// a part-full run pending. A power cut then recovers exactly the
// records of the Flush.
func TestCrashWithPendingRun(t *testing.T) {
	inner := blockdev.NewMemDisk(4096, 4096)
	crash := blockdev.NewCrashDisk(inner, 1)
	meta := newTestMeta()
	e := runEngine(crash, meta, nil, 0)
	if err := e.CreateLog(tpart); err != nil {
		t.Fatal(err)
	}
	const flushed = 100
	for obj := uint64(1); obj <= flushed; obj++ {
		put(t, e, obj)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	l := logOf(t, e)
	runWrites := l.flushed
	for obj := uint64(flushed + 1); obj <= flushed+300; obj++ {
		put(t, e, obj)
	}
	if err := e.Write(tpart, 7, 0, pay(1000, 4096), 3); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(tpart, 8); err != nil {
		t.Fatal(err)
	}
	if l.flushed == runWrites || len(l.pending) == 0 {
		t.Fatalf("after the puts flushed=%d (was %d) and %d bytes pending: want a run written and one pending",
			l.flushed, runWrites, len(l.pending))
	}
	crash.Crash()

	e2 := runEngine(inner, meta, nil, inner.Blocks()/2)
	st, err := e2.OpenLog(tpart)
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != flushed {
		t.Fatalf("recovered %d objects, want the %d of the last flush", st.Objects, flushed)
	}
	for obj := uint64(1); obj <= flushed; obj++ {
		readsBack(t, e2, obj)
	}
}
