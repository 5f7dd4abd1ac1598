package client

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"nasd/internal/bufpool"
	"nasd/internal/capability"
	"nasd/internal/crypt"
	"nasd/internal/object"
	"nasd/internal/rpc"
)

// TestNeedlePartitionOverWire drives the per-partition backend
// selection end to end: CreatePartitionBackend carries the choice over
// the admin RPC, GetPartition reports it back, and the full secure data
// path (capabilities included) works against the needle engine.
func TestNeedlePartitionOverWire(t *testing.T) {
	r := newRig(t, true)
	err := r.cli.CreatePartitionBackend(testCtx, crypt.KeyID{Type: crypt.MasterKey},
		r.master, 1, 0, object.BackendNeedle)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.fmKeys.AddPartition(1); err != nil {
		t.Fatal(err)
	}
	p, err := r.cli.GetPartition(testCtx, crypt.KeyID{Type: crypt.MasterKey}, r.master, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != object.BackendNeedle {
		t.Fatalf("partition reports backend %v, want needle", p.Backend)
	}

	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, err := r.cli.Create(testCtx, &createCap, 1)
	if err != nil {
		t.Fatal(err)
	}
	rwCap := r.mint(t, 1, id, 1,
		capability.Read|capability.Write|capability.GetAttr|capability.SetAttr|capability.Version)
	data := bytes.Repeat([]byte("needle"), 1000)
	if err := r.cli.Write(testCtx, &rwCap, 1, id, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := r.cli.Read(testCtx, &rwCap, 1, id, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("needle partition round trip mismatch")
	}
	at, err := r.cli.GetAttr(testCtx, &rwCap, 1, id)
	if err != nil {
		t.Fatal(err)
	}
	if at.Size != uint64(len(data)) {
		t.Fatalf("size = %d, want %d", at.Size, len(data))
	}

	// Copy-on-write versioning is classic-only; the drive must map the
	// backend mismatch to a clean BadRequest, not a generic failure.
	var re *RemoteError
	if _, err := r.cli.VersionObject(testCtx, &rwCap, 1, id); !errors.As(err, &re) || re.Status != rpc.StatusBadRequest {
		t.Fatalf("VersionObject on needle partition: %v, want StatusBadRequest", err)
	}

	// Capability revocation by version bump works on either backend.
	if _, err := r.cli.BumpVersion(testCtx, &rwCap, 1, id); err != nil {
		t.Fatal(err)
	}
	if _, err := r.cli.Read(testCtx, &rwCap, 1, id, 0, 4); !errors.Is(err, ErrAuth) {
		t.Fatalf("read with revoked capability on needle partition: %v", err)
	}
}

// TestNeedleWholeObjectReadRecyclesBuffer: a whole-object needle read
// verifies the record checksum and returns the payload out of the
// pooled record buffer. The drive recycles that buffer once the reply
// is sent, which bufpool accepts only if the slice still spans a whole
// size class, so the pool's outstanding count must not climb with the
// number of reads.
func TestNeedleWholeObjectReadRecyclesBuffer(t *testing.T) {
	r := newRig(t, false)
	err := r.cli.CreatePartitionBackend(testCtx, crypt.KeyID{Type: crypt.MasterKey},
		r.master, 1, 0, object.BackendNeedle)
	if err != nil {
		t.Fatal(err)
	}
	nocap := &capability.Capability{}
	id, err := r.cli.Create(testCtx, nocap, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	if err := r.cli.Write(testCtx, nocap, 1, id, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := r.cli.Flush(testCtx); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	read := func() {
		t.Helper()
		n, err := r.cli.ReadInto(testCtx, nocap, 1, id, 0, got)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(data) || !bytes.Equal(got, data) {
			t.Fatal("whole-object needle read returned different bytes")
		}
	}
	read() // warm the pool's size classes
	const reads = 1000
	before := bufpool.Outstanding()
	for i := 0; i < reads; i++ {
		read()
	}
	// The pool is process-wide and the server recycles a reply's buffer
	// just after the client sees the reply, so allow a few in flight.
	if grew := bufpool.Outstanding() - before; grew > 16 {
		t.Fatalf("bufpool.Outstanding grew by %d over %d whole-object needle reads", grew, reads)
	}
}

// TestStatusOnlyRepliesRecycleTheirFrame: the stubs whose reply carries
// nothing but its status (SetAttr, Remove, Flush, and Write with them)
// return the reply's pooled frame, so the pool's outstanding count does
// not climb with the number of calls. The management stubs share the
// helper; ResizePartition stands in for them.
func TestStatusOnlyRepliesRecycleTheirFrame(t *testing.T) {
	r := newRig(t, false)
	r.mkpart(t, 1, 0)
	nocap := &capability.Capability{}
	round := func() {
		t.Helper()
		id, err := r.cli.Create(testCtx, nocap, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.cli.Write(testCtx, nocap, 1, id, 0, []byte("frame")); err != nil {
			t.Fatal(err)
		}
		if err := r.cli.SetAttr(testCtx, nocap, 1, id, object.Attributes{Size: 3}, object.SetSize); err != nil {
			t.Fatal(err)
		}
		if err := r.cli.Flush(testCtx); err != nil {
			t.Fatal(err)
		}
		if err := r.cli.Remove(testCtx, nocap, 1, id); err != nil {
			t.Fatal(err)
		}
		if err := r.cli.ResizePartition(testCtx, crypt.KeyID{Type: crypt.MasterKey}, r.master, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm the pool's size classes
	const rounds = 1000
	before := bufpool.Outstanding()
	for i := 0; i < rounds; i++ {
		round()
	}
	// As above: the pool is process-wide, allow a few buffers in flight.
	if grew := bufpool.Outstanding() - before; grew > 16 {
		t.Fatalf("bufpool.Outstanding grew by %d over %d rounds of create, write, setattr, flush, remove, resize", grew, rounds)
	}
}

// TestReadIntoShortAndSingleFragment: below one fragment ReadInto is
// one request, above it a window, and a range that runs past the end of
// the object reports how far it got, whichever path served it.
func TestReadIntoShortAndSingleFragment(t *testing.T) {
	r := newRig(t, false)
	r.mkpart(t, 1, 0)
	nocap := &capability.Capability{}
	id, err := r.cli.Create(testCtx, nocap, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*DefaultFragmentSize/2)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	if err := r.cli.Write(testCtx, nocap, 1, id, 0, data); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{4096, DefaultFragmentSize, 2 * DefaultFragmentSize, 4 * DefaultFragmentSize} {
		dst := bytes.Repeat([]byte{0xAA}, n)
		got, err := r.cli.ReadInto(testCtx, nocap, 1, id, 100, dst)
		want := data[100:min(100+n, len(data))]
		if err != nil || got != len(want) || !bytes.Equal(dst[:got], want) {
			t.Fatalf("ReadInto of %d bytes: %d read (%v), want %d matching bytes", n, got, err, len(want))
		}
		out, err := r.cli.Read(testCtx, nocap, 1, id, 100, n)
		if err != nil || !bytes.Equal(out, want) {
			t.Fatalf("Read of %d bytes: %d read (%v), want %d matching bytes", n, len(out), err, len(want))
		}
	}
	if out, err := r.cli.Read(testCtx, nocap, 1, id, 0, -1); err == nil {
		t.Fatalf("Read of -1 bytes returned %d bytes and no error", len(out))
	}

	// A length far past the object's end costs memory by what the
	// object holds: allocated up front, math.MaxInt panics in make.
	if out, err := r.cli.Read(testCtx, nocap, 1, id, 100, math.MaxInt); err != nil || !bytes.Equal(out, data[100:]) {
		t.Fatalf("Read of math.MaxInt bytes: %d read (%v), want %d matching bytes", len(out), err, len(data)-100)
	}
	big, err := r.cli.Create(testCtx, nocap, 1)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Repeat(data[:DefaultFragmentSize], readChunk/DefaultFragmentSize+1)
	if err := r.cli.Write(testCtx, nocap, 1, big, 0, data); err != nil {
		t.Fatal(err)
	}
	out, err := r.cli.Read(testCtx, nocap, 1, big, 0, math.MaxInt)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("Read of math.MaxInt bytes across chunks: %d read (%v), want %d matching bytes", len(out), err, len(data))
	}
	if cap(out) > 2*len(out)+readChunk {
		t.Fatalf("Read of %d bytes held a %d-byte buffer", len(out), cap(out))
	}
}

// TestReadAndExecuteRecycleTheirFrame: Read copies the reply into a
// buffer of its own and Execute copies its small result, so both give
// the reply's pooled frame back and the pool's outstanding count does
// not climb with the number of calls.
func TestReadAndExecuteRecycleTheirFrame(t *testing.T) {
	r := newRig(t, false)
	r.mkpart(t, 1, 0)
	r.drv.RegisterKernel("answer", func([]byte, func(uint64, int) ([]byte, error), uint64) ([]byte, error) {
		return []byte{42}, nil
	})
	nocap := &capability.Capability{}
	id, err := r.cli.Create(testCtx, nocap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.cli.Write(testCtx, nocap, 1, id, 0, bytes.Repeat([]byte{7}, 8192)); err != nil {
		t.Fatal(err)
	}
	round := func() {
		t.Helper()
		if got, err := r.cli.Read(testCtx, nocap, 1, id, 0, 8192); err != nil || len(got) != 8192 {
			t.Fatalf("read: %d bytes, %v", len(got), err)
		}
		if res, err := r.cli.Execute(testCtx, nocap, 1, id, "answer", nil); err != nil || !bytes.Equal(res, []byte{42}) {
			t.Fatalf("execute: %v, %v", res, err)
		}
	}
	round() // warm the pool's size classes
	const rounds = 1000
	before := bufpool.Outstanding()
	for i := 0; i < rounds; i++ {
		round()
	}
	// As above: the pool is process-wide, allow a few buffers in flight.
	if grew := bufpool.Outstanding() - before; grew > 16 {
		t.Fatalf("bufpool.Outstanding grew by %d over %d rounds of Read and Execute", grew, rounds)
	}
}
