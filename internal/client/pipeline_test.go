package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nasd/internal/capability"
	"nasd/internal/drive"
	"nasd/internal/rpc"
)

// pipeDrive dials a fresh connection on the rig's listener with small
// pipelining fragments so tests exercise multi-fragment windows without
// multi-megabyte payloads.
func pipeDrive(t *testing.T, r *testRig, clientID uint64) *Drive {
	t.Helper()
	conn, err := r.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	d := New(conn, 7, clientID)
	d.fragSize, d.window = 4<<10, 4
	t.Cleanup(func() { d.Close() })
	return d
}

// TestReadWindowMatchesData: reads larger than one fragment go out
// as a window and must return exactly the written bytes, cut at the end
// of the object like a one-request read.
func TestReadWindowMatchesData(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	d := pipeDrive(t, r, 4001)

	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, err := d.Create(testCtx, &createCap, 1)
	if err != nil {
		t.Fatal(err)
	}
	rw := r.mint(t, 1, id, 1, capability.Read|capability.Write)
	data := make([]byte, 100<<10) // 25 fragments at 4 KB
	rand.New(rand.NewSource(31)).Read(data)
	if err := d.Write(testCtx, &rw, 1, id, 0, data); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ off, n int }{
		{0, len(data)},       // full object
		{1000, 50<<10 + 17},  // unaligned interior window
		{0, 4 << 10},         // exactly one fragment: one request
		{90 << 10, 64 << 10}, // runs past EOF: truncates
		{len(data), 8 << 10}, // entirely past EOF
	} {
		want := data[min(tc.off, len(data)):min(tc.off+tc.n, len(data))]
		got, err := d.Read(testCtx, &rw, 1, id, uint64(tc.off), tc.n)
		if err != nil {
			t.Fatalf("read off=%d n=%d: %v", tc.off, tc.n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read off=%d n=%d: %d bytes, want %d matching bytes", tc.off, tc.n, len(got), len(want))
		}
	}
}

func TestWriteDisjointFragments(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	d := pipeDrive(t, r, 4002)

	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, _ := d.Create(testCtx, &createCap, 1)
	rw := r.mint(t, 1, id, 1, capability.Read|capability.Write)

	// Overlapping windowed writes at an unaligned offset: the final
	// contents equal what serial writes would produce.
	base := bytes.Repeat([]byte{0x11}, 60<<10)
	if err := d.Write(testCtx, &rw, 1, id, 0, base); err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0x22}, 20<<10)
	if err := d.Write(testCtx, &rw, 1, id, 12345, patch); err != nil {
		t.Fatal(err)
	}
	copy(base[12345:], patch)
	got, err := d.Read(testCtx, &rw, 1, id, 0, len(base))
	if err != nil || !bytes.Equal(got, base) {
		t.Fatalf("contents after overlapping windowed writes: %v", err)
	}
}

// TestPipelinedMixedStress hammers ONE connection with concurrent
// pipelined readers and writers on separate objects. Under -race this
// exercises the mux, the fragment window, the nonce counter, and the
// drive's replay window together.
func TestPipelinedMixedStress(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	d := pipeDrive(t, r, 4003)

	const nWorkers = 4
	const rounds = 8
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	var wg sync.WaitGroup
	errs := make([]error, nWorkers)
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = func() error {
				id, err := d.Create(testCtx, &createCap, 1)
				if err != nil {
					return err
				}
				rw := r.mint(t, 1, id, 1, capability.Read|capability.Write)
				payload := bytes.Repeat([]byte{byte(w + 1)}, 32<<10)
				for i := 0; i < rounds; i++ {
					if err := d.Write(testCtx, &rw, 1, id, 0, payload); err != nil {
						return err
					}
					got, err := d.Read(testCtx, &rw, 1, id, 0, len(payload))
					if err != nil {
						return err
					}
					if !bytes.Equal(got, payload) {
						return errors.New("corrupted pipelined round trip")
					}
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
	if n := d.Metrics().Snapshot().Gauges["rpc.client.inflight"]; n != 0 {
		t.Fatalf("in-flight after stress = %d", n)
	}
}

// TestStalledNonceNotOvertaken holds one request between taking its
// nonce counter and being sent while the same handle issues 300 more,
// one after another. The handle takes no counter drive.NonceWindow or
// more past the held one, so once the others are done, or held back
// behind it, the held request goes out inside the drive's replay
// window and is served; then the rest finish.
func TestStalledNonceNotOvertaken(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, err := r.cli.Create(testCtx, &createCap, 1)
	if err != nil {
		t.Fatal(err)
	}
	rw := r.mint(t, 1, id, 1, capability.Read)
	d := pipeDrive(t, r, 4004)
	held, release, blocked := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var blockedOnce sync.Once
	d.nonces.taken = func(c uint64) {
		if c == 1 {
			close(held)
			<-release
		}
	}
	d.nonces.waiting = func() { blockedOnce.Do(func() { close(blocked) }) }

	first := make(chan error, 1)
	go func() {
		_, err := d.ReadInto(testCtx, &rw, 1, id, 0, make([]byte, 512))
		first <- err
	}()
	<-held
	rest := make(chan error, 1)
	go func() {
		buf := make([]byte, 512)
		for i := 0; i < 300; i++ {
			if _, err := d.ReadInto(testCtx, &rw, 1, id, 0, buf); err != nil {
				rest <- fmt.Errorf("request %d of 300: %w", i+1, err)
				return
			}
		}
		rest <- nil
	}()
	var restErr error
	restDone := false
	select {
	case restErr = <-rest:
		restDone = true
	case <-blocked:
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("held request: %v", err)
	}
	if !restDone {
		restErr = <-rest
	}
	if restErr != nil {
		t.Fatal(restErr)
	}
}

// TestCancellationMidStream cancels a context in the middle of a
// windowed read and verifies (a) the call fails with the context's
// error, (b) the client mux drains to zero in-flight, and (c) the same
// connection keeps working — the drive side cleaned up rather than
// wedging the connection. The drive cancels the read's context itself
// when the fourth fragment request arrives, so the cancellation always
// lands mid-stream.
func TestCancellationMidStream(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, _ := r.cli.Create(testCtx, &createCap, 1)
	rw := r.mint(t, 1, id, 1, capability.Read|capability.Write)
	data := make([]byte, 256<<10) // 64 fragments: plenty of stream left to cancel
	rand.New(rand.NewSource(32)).Read(data)
	if err := r.cli.Write(testCtx, &rw, 1, id, 0, data); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 4
	var reads atomic.Int64
	srv := rpc.NewServer(rpc.HandlerFunc(func(req *rpc.Request) *rpc.Reply {
		if drive.Op(req.Proc) == drive.OpReadObject && reads.Add(1) == cancelAt {
			cancel()
		}
		return r.drv.Handle(req)
	}))
	defer srv.Close()
	l := rpc.NewInProcListener("cancel-at-fragment")
	go srv.Serve(l)
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	d := New(conn, 7, 4004)
	d.fragSize, d.window = 4<<10, 2
	defer d.Close()

	if _, err := d.Read(ctx, &rw, 1, id, 0, len(data)); !errors.Is(err, context.Canceled) {
		t.Fatalf("read canceled at fragment %d returned %v, want context.Canceled", cancelAt, err)
	}

	// Drive-side cleanup: every abandoned fragment drains and the mux
	// forgets it.
	deadline := time.Now().Add(2 * time.Second)
	for d.Metrics().Snapshot().Gauges["rpc.client.inflight"] != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight stuck at %d after cancellation", d.Metrics().Snapshot().Gauges["rpc.client.inflight"])
		}
		time.Sleep(time.Millisecond)
	}
	// The connection (and the drive's replay window) survive: a fresh
	// windowed read on the same connection returns full data.
	got, err := d.Read(testCtx, &rw, 1, id, 0, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after cancellation: %v", err)
	}
}

// TestPipelinedStatsExposed: fragment retries show up in the
// client.retries counter (none expected on a healthy drive).
func TestPipelinedStatsExposed(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	d := pipeDrive(t, r, 4005)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, _ := d.Create(testCtx, &createCap, 1)
	rw := r.mint(t, 1, id, 1, capability.Read|capability.Write)
	if err := d.Write(testCtx, &rw, 1, id, 0, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	st := d.Metrics().Snapshot()
	if st.Counters["rpc.client.calls"] == 0 {
		t.Fatal("no calls recorded")
	}
	if n := st.Counters["client.retries"]; n != 0 {
		t.Fatalf("unexpected retries on healthy drive: %d", n)
	}
}

// countingFailHandler answers every request StatusError and counts
// the requests it saw per object offset, i.e. per fragment.
type countingFailHandler struct {
	mu    sync.Mutex
	sends map[uint64]int
}

func (h *countingFailHandler) Handle(req *rpc.Request) *rpc.Reply {
	if a, err := drive.DecodeReadArgs(req.Args); err == nil {
		h.mu.Lock()
		h.sends[a.Offset]++
		h.mu.Unlock()
	}
	return &rpc.Reply{MsgID: req.MsgID, Status: rpc.StatusError, Msg: "always failing"}
}

// TestPipelinedFragmentSendsBoundedByMaxAttempts: a fragment is
// reissued by do() alone, so a handle with MaxAttempts N sends a
// failing fragment at most N times (a second, blind reissue in the
// window runner used to make that 2N).
func TestPipelinedFragmentSendsBoundedByMaxAttempts(t *testing.T) {
	const attempts = 3
	h := &countingFailHandler{sends: make(map[uint64]int)}
	srv := rpc.NewServer(h)
	defer srv.Close()
	l := rpc.NewInProcListener("always-failing")
	go srv.Serve(l)
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli := New(conn, 7, 1, WithSecurity(false),
		WithRetry(RetryPolicy{MaxAttempts: attempts, BaseBackoff: time.Millisecond}))
	cli.fragSize, cli.window = 4<<10, 4
	defer cli.Close()

	_, err = cli.Read(testCtx, nil, 1, 1, 0, 32<<10)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != rpc.StatusError {
		t.Fatalf("err = %v, want the remote StatusError", err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.sends) == 0 {
		t.Fatal("handler saw no fragment")
	}
	for off, n := range h.sends {
		if n > attempts {
			t.Errorf("fragment at offset %d sent %d times, want at most MaxAttempts = %d", off, n, attempts)
		}
	}
}
