package object

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/telemetry"
)

// backend_test.go covers the StoreBackend split: per-partition engine
// selection, the control object persisting that choice, and the needle
// path's kill-and-restart recovery through the full store stack.

func payN(obj uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(obj*17 + uint64(i)*13)
	}
	return b
}

// TestPartitionBackendRoundTrip formats a store with one partition per
// engine, reopens it from the device, and checks that the control
// object carried the backend choice and that both partitions' objects
// come back intact.
func TestPartitionBackendRoundTrip(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 8192)
	s, err := Format(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartitionBackend(1, 0, BackendNeedle); err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartition(2, 0); err != nil { // default engine
		t.Fatal(err)
	}
	objs := map[uint16][]uint64{}
	for _, part := range []uint16{1, 2} {
		for i := 0; i < 10; i++ {
			id, err := s.Create(part)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Write(part, id, 0, payN(id, 600)); err != nil {
				t.Fatal(err)
			}
			objs[part] = append(objs[part], id)
		}
	}
	if err := s.Remove(1, objs[1][3]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for part, want := range map[uint16]BackendKind{1: BackendNeedle, 2: BackendClassic} {
		p, err := s2.GetPartition(part)
		if err != nil {
			t.Fatal(err)
		}
		if p.Backend != want {
			t.Fatalf("partition %d: backend %v after reopen, want %v", part, p.Backend, want)
		}
	}
	p1, _ := s2.GetPartition(1)
	if p1.ObjectCount != 9 {
		t.Fatalf("needle partition object count %d after reopen, want 9", p1.ObjectCount)
	}
	if p1.UsedBlocks == 0 {
		t.Fatal("needle partition reopened with zero used blocks")
	}
	for part, ids := range objs {
		for i, id := range ids {
			if part == 1 && i == 3 {
				if _, err := s2.Read(part, id, 0, 600); !errors.Is(err, ErrNoObject) {
					t.Fatalf("removed object %d/%d resurrected: %v", part, id, err)
				}
				continue
			}
			got, err := s2.Read(part, id, 0, 600)
			if err != nil {
				t.Fatalf("read %d/%d: %v", part, id, err)
			}
			if !bytes.Equal(got, payN(id, 600)) {
				t.Fatalf("object %d/%d: payload mismatch after reopen", part, id)
			}
		}
	}
	// Capability versioning is a classic-only operation; the needle
	// partition must refuse it with the typed mismatch error.
	if _, err := s2.VersionObject(1, objs[1][0]); !errors.Is(err, ErrBackendMismatch) {
		t.Fatalf("VersionObject on needle partition: %v, want ErrBackendMismatch", err)
	}
	if _, err := s2.VersionObject(2, objs[2][0]); err != nil {
		t.Fatalf("VersionObject on classic partition: %v", err)
	}
}

// TestDefaultBackendConfig checks that CreatePartition honours
// Config.DefaultBackend (the nasdd -backend flag's path).
func TestDefaultBackendConfig(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 8192)
	s, err := Format(dev, Config{DefaultBackend: BackendNeedle})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartition(1, 0); err != nil {
		t.Fatal(err)
	}
	p, err := s.GetPartition(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != BackendNeedle {
		t.Fatalf("default-backend partition got %v, want needle", p.Backend)
	}
}

// TestNeedleAttrsThroughStore exercises the attribute surface the RPC
// layer depends on, through a needle partition.
func TestNeedleAttrsThroughStore(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 8192)
	s, err := Format(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartitionBackend(1, 0, BackendNeedle); err != nil {
		t.Fatal(err)
	}
	id, err := s.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, id, 0, payN(id, 1000)); err != nil {
		t.Fatal(err)
	}
	var a Attributes
	a.Uninterp[0], a.Uninterp[255] = 0xAB, 0xCD
	a.Size = 400
	if err := s.SetAttr(1, id, a, SetUninterp|SetSize); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetAttr(1, id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 400 || got.Uninterp != a.Uninterp {
		t.Fatalf("attrs not applied: %+v", got)
	}
	if v, err := s.BumpVersion(1, id); err != nil || v != 2 {
		t.Fatalf("bump version: v=%d err=%v", v, err)
	}
	data, err := s.Read(1, id, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payN(id, 1000)[:400]) {
		t.Fatal("payload mismatch after truncate")
	}
}

// TestNeedleKillRestart is the kill-and-restart index-rebuild test: the
// store is reopened from the raw device without a clean shutdown, first
// with a stale index snapshot (recovery must scan the log forward from
// it) and then with no snapshot at all (full log scan).
func TestNeedleKillRestart(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 8192)
	s, err := Format(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartitionBackend(1, 0, BackendNeedle); err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 20; i++ {
		id, err := s.Create(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(1, id, 0, payN(id, 900)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.Flush(); err != nil { // snapshot now covers 20 objects
		t.Fatal(err)
	}
	// Capture the snapshot, mutate past it, make the log durable, then
	// put the stale snapshot back — the on-device state a crash after
	// the appends (but before the next snapshot) would leave.
	p := s.parts[1]
	snap, err := s.classic.loadRaw(p.metaIdx)
	if err != nil {
		t.Fatal(err)
	}
	post, err := s.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, post, 0, payN(post, 1200)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, ids[0], 0, payN(777, 900)); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(1, ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	stale := func(data []byte) {
		t.Helper()
		if err := s.classic.saveRaw(p.metaIdx, data); err != nil {
			t.Fatal(err)
		}
		if err := s.classic.cache.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.classic.lay.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	check := func(t *testing.T, s2 *Store) {
		t.Helper()
		p, err := s2.GetPartition(1)
		if err != nil {
			t.Fatal(err)
		}
		if p.ObjectCount != 20 { // 20 + 1 post-snapshot - 1 removed
			t.Fatalf("recovered %d objects, want 20", p.ObjectCount)
		}
		if _, err := s2.GetAttr(1, ids[1]); !errors.Is(err, ErrNoObject) {
			t.Fatalf("removed object resurrected: %v", err)
		}
		got, err := s2.Read(1, post, 0, 1200)
		if err != nil {
			t.Fatalf("post-snapshot object: %v", err)
		}
		if !bytes.Equal(got, payN(post, 1200)) {
			t.Fatal("post-snapshot object payload mismatch")
		}
		got, err = s2.Read(1, ids[0], 0, 900)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payN(777, 900)) {
			t.Fatal("post-snapshot overwrite lost")
		}
		for _, id := range ids[2:] {
			got, err := s2.Read(1, id, 0, 900)
			if err != nil {
				t.Fatalf("object %d: %v", id, err)
			}
			if !bytes.Equal(got, payN(id, 900)) {
				t.Fatalf("object %d: payload mismatch", id)
			}
		}
		// New writes must pick up after the recovered log, not collide.
		id2, err := s2.Create(1)
		if err != nil {
			t.Fatal(err)
		}
		if id2 <= post {
			t.Fatalf("post-recovery id %d not past recovered max %d", id2, post)
		}
	}

	t.Run("stale-snapshot", func(t *testing.T) {
		stale(snap)
		s2, err := Open(dev, Config{})
		if err != nil {
			t.Fatal(err)
		}
		check(t, s2)
	})
	t.Run("no-snapshot", func(t *testing.T) {
		stale(nil)
		s2, err := Open(dev, Config{})
		if err != nil {
			t.Fatal(err)
		}
		check(t, s2)
	})
}

// TestNeedleVersionBumpDurable: a version bump revokes capabilities, so
// it must survive a crash with NO flush at all — the needle backend
// syncs the log tail on SetVersion to match classic's write-through
// onodes.
func TestNeedleVersionBumpDurable(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 8192)
	s, err := Format(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartitionBackend(1, 0, BackendNeedle); err != nil {
		t.Fatal(err)
	}
	id, err := s.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, id, 0, payN(id, 100)); err != nil {
		t.Fatal(err)
	}
	if v, err := s.BumpVersion(1, id); err != nil || v != 2 {
		t.Fatalf("bump: v=%d err=%v", v, err)
	}
	// Simulated kill: reopen from the device without Flush.
	s2, err := Open(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s2.GetAttr(1, id)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version != 2 {
		t.Fatalf("version %d after crash, want 2: revocation lost", a.Version)
	}
}

// TestNeedleQuota verifies quota is enforced at segment granularity:
// a needle partition admits segments until the charge would exceed the
// partition quota, then refuses with ErrQuota.
func TestNeedleQuota(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 8192)
	s, err := Format(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// One default-sized segment (1024 blocks) fits; the second roll
	// would charge past the quota.
	if err := s.CreatePartitionBackend(1, 1030, BackendNeedle); err != nil {
		t.Fatal(err)
	}
	wrote := 0
	var quotaErr error
	for i := 0; i < 8; i++ {
		id, err := s.Create(1)
		if err != nil {
			quotaErr = err
			break
		}
		if err := s.Write(1, id, 0, payN(id, 1<<20)); err != nil {
			quotaErr = err
			break
		}
		wrote++
	}
	if !errors.Is(quotaErr, ErrQuota) {
		t.Fatalf("after %d MB written: err=%v, want ErrQuota", wrote, quotaErr)
	}
	if wrote < 3 {
		t.Fatalf("quota refused after only %d MB; first segment should hold ~4 MB", wrote)
	}
}

// TestBackendKindParse pins the flag/wire spellings.
func TestBackendKindParse(t *testing.T) {
	cases := map[string]BackendKind{
		"": BackendClassic, "classic": BackendClassic, "layout": BackendClassic,
		"needle": BackendNeedle, "haystack": BackendNeedle, "log": BackendNeedle,
	}
	for in, want := range cases {
		got, err := ParseBackendKind(in)
		if err != nil || got != want {
			t.Fatalf("ParseBackendKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseBackendKind("bogus"); err == nil {
		t.Fatal("ParseBackendKind accepted garbage")
	}
	for _, k := range []BackendKind{BackendClassic, BackendNeedle} {
		if rt, err := ParseBackendKind(k.String()); err != nil || rt != k {
			t.Fatalf("round trip %v: %v, %v", k, rt, err)
		}
	}
	if s := fmt.Sprint(BackendKind(99)); s == "" {
		t.Fatal("unknown kind must still print")
	}
}

// BenchmarkSmallObjectGet is the one comparison bench/ cannot make (its
// smallobj_needle workload runs a single engine): the Haystack scenario
// on both engines. 2000 4 KiB objects are written once, under a 1 MiB
// cache the 8 MB population does not fit, and then fetched with a
// Zipf(1.1) mix in which every GET is a GetAttr plus a full-object
// Read. One iteration is one GET; the device is a MemDisk with no
// medium model, so what separates the engines is the reported count of
// blocks read from the device per GET, not ns/op. Ingest (create +
// write per object, one flush at the end) is timed once per engine.
// Numbers in EXPERIMENTS.md, "Small-object backends".
func BenchmarkSmallObjectGet(b *testing.B) {
	const objects, size = 2000, 4 << 10
	for _, kind := range []BackendKind{BackendClassic, BackendNeedle} {
		b.Run(kind.String(), func(b *testing.B) {
			reg := telemetry.NewRegistry()
			dev := blockdev.Instrument(blockdev.NewMemDisk(4096, objects*2+16384), reg)
			s, err := Format(dev, Config{CacheBlocks: 256, OnodeCount: objects + 1024})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.CreatePartitionBackend(1, 0, kind); err != nil {
				b.Fatal(err)
			}
			ids := make([]uint64, objects)
			start := time.Now()
			for i := range ids {
				if ids[i], err = s.Create(1); err != nil {
					b.Fatal(err)
				}
				if err := s.Write(1, ids[i], 0, payN(ids[i], size)); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
			ingest := float64(objects*size) / (1 << 20) / time.Since(start).Seconds()

			reads := reg.Counter("blockdev.reads")
			zipf := rand.NewZipf(rand.New(rand.NewPCG(42, 7)), 1.1, 1, objects-1)
			before := reads.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[zipf.Uint64()]
				if _, err := s.GetAttr(1, id); err != nil {
					b.Fatal(err)
				}
				got, err := s.Read(1, id, 0, size)
				if err != nil {
					b.Fatal(err)
				}
				if i%1024 == 0 && !bytes.Equal(got, payN(id, size)) {
					b.Fatalf("object %d: read-back mismatch", id)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(reads.Load()-before)/float64(b.N), "media-reads/GET")
			b.ReportMetric(ingest, "ingest-MB/s")
		})
	}
}
