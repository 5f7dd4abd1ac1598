package nasd_test

// Allocation regression tests for the zero-copy data path. These pin
// the steady-state allocs/op of the hottest paths — the codec
// round-trip, request signing, the end-to-end cached drive read and the
// end-to-end secure write — so a change that
// quietly reintroduces per-request copies or drops a buffer back to
// the GC fails here, not in benchmark archaeology.

import (
	"context"
	"testing"

	"nasd/internal/bufpool"
	"nasd/internal/crypt"
	"nasd/internal/rpc"
)

// TestCodecRoundTripAllocs pins the plain encode+decode round-trip.
// EncodeRequest allocates the frame and DecodeMessage the message
// struct; everything else must alias.
func TestCodecRoundTripAllocs(t *testing.T) {
	req := &rpc.Request{
		Proc: 1, Cap: make([]byte, 59), Args: make([]byte, 26),
		Data: make([]byte, 8192), Nonce: crypt.Nonce{Client: 1, Counter: 7},
	}
	avg := testing.AllocsPerRun(200, func() {
		wire := rpc.EncodeRequest(req)
		if _, err := rpc.DecodeMessage(wire); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 4 at the time of writing (header grow + frame + Request
	// + decoder); the bound leaves headroom for harness noise only.
	if avg > 8 {
		t.Errorf("codec round-trip allocates %.1f/op, want <= 8", avg)
	}
}

// TestPooledEncodeAllocs pins the transport's actual send path: header
// appended into a pooled buffer, payload attached by reference. Only
// the decode side may allocate (the message struct).
func TestPooledEncodeAllocs(t *testing.T) {
	req := &rpc.Request{
		Proc: 1, Cap: make([]byte, 59), Args: make([]byte, 26),
		Data: make([]byte, 8192), Nonce: crypt.Nonce{Client: 1, Counter: 7},
	}
	// Warm the pool classes used.
	bufpool.Put(bufpool.Get(512))
	avg := testing.AllocsPerRun(200, func() {
		hdr := rpc.AppendRequestHeader(bufpool.Get(160+len(req.Cap)+len(req.Args)), req)
		bufpool.Put(hdr)
	})
	if avg > 1 {
		t.Errorf("pooled header encode allocates %.1f/op, want <= 1", avg)
	}
}

// cachedReadAllocs measures the allocations of one cached 8 KiB secure
// ReadInto, client to drive and back, on a warm block cache and a warm
// capability digest cache. The race detector allocates on its own, so
// the counts hold for a plain test binary only.
func cachedReadAllocs(t *testing.T, qosFront bool) float64 {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own; run without -race")
	}
	cli, cap, obj := driveRigWith(t, true, qosFront)
	dst := make([]byte, 8<<10)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := cli.ReadInto(ctx, &cap, 1, obj, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(200, func() {
		if _, err := cli.ReadInto(ctx, &cap, 1, obj, 0, dst); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDriveCachedReadAllocs pins the full client→RPC→drive→cache read
// path. What is left is what the request needs: the client's request
// struct and reply channel, and the decoded request and reply structs.
func TestDriveCachedReadAllocs(t *testing.T) {
	if avg := cachedReadAllocs(t, false); avg > 7 {
		t.Errorf("cached 8K drive read allocates %.1f/op, want <= 7", avg)
	}
}

// TestQoSCachedReadAllocs is the same read through a qos.Controller
// classifying by drive.QoSClassify, with media spans recorded: the
// stack bench/'s small_read_8k reads through.
func TestQoSCachedReadAllocs(t *testing.T) {
	if avg := cachedReadAllocs(t, true); avg > 7 {
		t.Errorf("cached 8K read through qos allocates %.1f/op, want <= 7", avg)
	}
}

// TestDriveSecureWriteAllocs pins a secure 64 KiB Write, client to drive
// and back, overwriting a cached region, at the 11 allocations it made
// when a SHA-256 pass covered the payload. Signing on the client and
// verifying on the drive add none: the signing body and the payload
// tag are built in a pooled buffer.
func TestDriveSecureWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own; run without -race")
	}
	cli, cap, obj := driveRigWith(t, true, false)
	data := make([]byte, 64<<10)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := cli.Write(ctx, &cap, 1, obj, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := cli.Write(ctx, &cap, 1, obj, 0, data); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 11 {
		t.Errorf("secure 64K drive write allocates %.1f/op, want <= 11", avg)
	}
}

// TestRequestSignAllocs pins signing and verifying a request with a
// 64 KiB payload at zero allocations: the payload tag's GCM nonce is
// staged in the pooled signing-body buffer, not on the heap.
func TestRequestSignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own; run without -race")
	}
	s := crypt.NewSigner(crypt.NewRandomKey())
	req := &rpc.Request{
		Proc: 2, Cap: make([]byte, 59), Args: make([]byte, 18),
		Data: make([]byte, 64<<10), Nonce: crypt.Nonce{Client: 1, Counter: 7},
	}
	bufpool.Put(bufpool.Get(512))
	avg := testing.AllocsPerRun(200, func() {
		req.Nonce.Counter++
		req.Sign(s)
		if !req.Verify(s) {
			t.Fatal("request does not verify")
		}
	})
	if avg != 0 {
		t.Errorf("sign and verify allocate %.1f/op, want 0", avg)
	}
}

// TestDriveWindowedReadAllocs pins what a windowed 512 KiB ReadInto
// allocates beyond the eight one-fragment reads it is made of: the
// fan-out itself (the window's span and cancelable context, its
// workers, each started on its own fragment, and their shared state),
// with no plan, semaphore or result slot per fragment.
func TestDriveWindowedReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own; run without -race")
	}
	cli, cap, obj := driveRigWith(t, true, false)
	const frag, frags = 64 << 10, 8
	dst := make([]byte, frags*frag)
	ctx := context.Background()
	windowed := func() {
		if n, err := cli.ReadInto(ctx, &cap, 1, obj, 0, dst); err != nil || n != len(dst) {
			t.Fatalf("windowed read: %d bytes, %v", n, err)
		}
	}
	serial := func() {
		for k := 0; k < frags; k++ {
			if n, err := cli.ReadInto(ctx, &cap, 1, obj, uint64(k*frag), dst[k*frag:(k+1)*frag]); err != nil || n != frag {
				t.Fatalf("fragment read %d: %d bytes, %v", k, n, err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		windowed()
		serial()
	}
	extra := testing.AllocsPerRun(200, windowed) - testing.AllocsPerRun(200, serial)
	// 27 when each fragment had a goroutine of its own, a plan entry
	// and a result slot.
	if extra > 16 {
		t.Errorf("a windowed 512 KiB read allocates %.1f objects beyond its eight one-fragment reads, want <= 16", extra)
	}
}
