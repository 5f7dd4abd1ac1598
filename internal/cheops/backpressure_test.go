package cheops

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// shedder sits between the rpc server and a real drive, answering a
// controllable number of data requests with StatusRetryLater — the
// wire-visible shape of the drive's qos plane rejecting under load.
// Counters hold how many requests of that proc remain to be shed;
// -1 sheds forever. writes counts every write request that arrives,
// shed or not. With park set, a write signals park instead, waits for
// release and is then shed: it never executes.
type shedder struct {
	inner      rpc.Handler
	hint       time.Duration
	shedReads  atomic.Int64
	shedWrites atomic.Int64
	writes     atomic.Int64
	park       chan struct{}
	release    chan struct{}
}

func (s *shedder) take(ctr *atomic.Int64) bool {
	for {
		n := ctr.Load()
		if n == 0 {
			return false
		}
		if n < 0 || ctr.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

func (s *shedder) Handle(req *rpc.Request) *rpc.Reply {
	var ctr *atomic.Int64
	switch drive.Op(req.Proc) {
	case drive.OpReadObject:
		ctr = &s.shedReads
	case drive.OpWriteObject:
		ctr = &s.shedWrites
		s.writes.Add(1)
		if s.park != nil {
			s.park <- struct{}{}
			<-s.release
			return rpc.RetryLater(req.MsgID, s.hint, "parked, never executed")
		}
	}
	if ctr != nil && s.take(ctr) {
		return rpc.RetryLater(req.MsgID, s.hint, "drive saturated")
	}
	return s.inner.Handle(req)
}

// shedRig is a manager over drives whose data path can be made to shed:
// sheds[i] controls drive i. The data-path handles are built with opts.
// Without WithRetry among them a handle sends every request once, so
// each StatusRetryLater reaches the leg as a Shed outcome; with it, the
// handle's policy absorbs sheds before the leg sees them.
type shedRig struct {
	mgr    *Manager
	drives []*client.Drive
	sheds  []*shedder
	reg    *telemetry.Registry
}

func (r *shedRig) open(t *testing.T, id uint64) *Object {
	t.Helper()
	obj, err := OpenObject(r.mgr, r.drives, id, capability.Read|capability.Write)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func newShedRig(t *testing.T, n int, opts ...client.Option) *shedRig {
	t.Helper()
	r := &shedRig{reg: telemetry.NewRegistry()}
	var refs []DriveRef
	for i := 0; i < n; i++ {
		master := crypt.NewRandomKey()
		dev := blockdev.NewMemDisk(4096, 16384)
		drv, err := drive.NewFormat(dev, drive.Config{ID: uint64(1 + i), Master: master, Secure: true})
		if err != nil {
			t.Fatal(err)
		}
		sh := &shedder{inner: drv, hint: time.Millisecond}
		r.sheds = append(r.sheds, sh)
		l := rpc.NewInProcListener(fmt.Sprintf("shed%d", i))
		srv := rpc.NewServer(sh)
		t.Cleanup(srv.Close)
		go srv.Serve(l)
		mk := func(opts ...client.Option) *client.Drive {
			conn, err := l.Dial()
			if err != nil {
				t.Fatal(err)
			}
			c := client.New(conn, uint64(1+i), clientSeq.Add(1)+900, append(opts, client.WithMetrics(r.reg))...)
			t.Cleanup(func() { c.Close() })
			return c
		}
		refs = append(refs, DriveRef{Client: mk(), DriveID: uint64(1 + i), Master: master})
		r.drives = append(r.drives, mk(opts...))
	}
	mgr, err := NewManager(testCtx, ManagerConfig{
		Drives: refs, Metrics: r.reg,
		FailThreshold: 2, BreakerCooldown: time.Hour,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	r.mgr = mgr
	return r
}

// TestShedWriteLegSendsBoundedByHandlePolicy: the handle's RetryPolicy
// is the only code that reissues a shed request. Against a drive that
// sheds every write, a Cheops write leg is sent once on a handle
// without WithRetry and MaxAttempts times on one with it — not a leg
// runner's own rounds on top of the handle's.
func TestShedWriteLegSendsBoundedByHandlePolicy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  []client.Option
		sends int64
	}{
		{"no-retry", nil, 1},
		{"max-attempts-3", []client.Option{client.WithRetry(client.RetryPolicy{MaxAttempts: 3})}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newShedRig(t, 2, tc.opts...)
			// Lane 0 on drive 1, away from the manager's directory on drive 0.
			id, err := r.mgr.Create(testCtx, Stripe0, 4096, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			obj := r.open(t, id)
			r.sheds[1].shedWrites.Store(-1)
			err = obj.WriteAt(testCtx, 0, []byte("lane zero only"))
			if !errors.Is(err, client.ErrOverloaded) {
				t.Fatalf("err = %v, want ErrOverloaded", err)
			}
			if got := r.sheds[1].writes.Load(); got != tc.sends {
				t.Fatalf("write leg sent %d times, want %d", got, tc.sends)
			}
		})
	}
}

// TestShedNeverOpensBreaker: a drive answering StatusRetryLater is
// alive and shedding by design. More shed leg outcomes than
// FailThreshold (2) must leave its breaker closed — misclassifying shed
// as failure would trip it — and once the drive has room the same
// handle writes through it.
func TestShedNeverOpensBreaker(t *testing.T) {
	r := newShedRig(t, 2)
	id, err := r.mgr.Create(testCtx, Stripe0, 4096, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj := r.open(t, id)

	r.sheds[1].shedWrites.Store(-1)
	const sheds = 3
	for i := 0; i < sheds; i++ {
		if err := obj.WriteAt(testCtx, 4096, []byte("lane one")); !errors.Is(err, client.ErrOverloaded) {
			t.Fatalf("write %d: err = %v, want ErrOverloaded", i, err)
		}
	}
	if st := r.mgr.DriveHealth(1); st != BreakerClosed {
		t.Fatalf("drive 1 breaker = %v after shed replies, want closed", st)
	}
	snap := r.reg.Snapshot()
	if got := snap.Counters["cheops.breaker_opens"]; got != 0 {
		t.Fatalf("breaker_opens = %d: backpressure counted as drive failure", got)
	}
	if got := snap.Counters["cheops.backpressure"]; got != sheds {
		t.Fatalf("cheops.backpressure = %d, want %d", got, sheds)
	}

	r.sheds[1].shedWrites.Store(0)
	payload := bytes.Repeat([]byte{0xA5}, 1024)
	if err := obj.WriteAt(testCtx, 4096, payload); err != nil {
		t.Fatalf("write after shedding stopped: %v", err)
	}
	got, err := obj.ReadAt(testCtx, 4096, len(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("readback after shedding stopped: %v", err)
	}
}

// TestHandlePolicyAbsorbsShedWrite: a caller that wants transient
// shedding absorbed arms its handles with WithRetry. Three sheds on one
// replica are then hinted waits inside the handle (each counted in
// client.backpressure_waits), the leg sees one success, and the mirror
// write lands clean on both lanes: no degraded write, no ledger entry.
func TestHandlePolicyAbsorbsShedWrite(t *testing.T) {
	r := newShedRig(t, 2, client.WithRetry(client.RetryPolicy{MaxAttempts: 4}))
	id, err := r.mgr.Create(testCtx, Mirror1, 4096, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj := r.open(t, id)

	const sheds = 3
	r.sheds[1].shedWrites.Store(sheds)
	payload := bytes.Repeat([]byte{0x5A}, 1024)
	if err := obj.WriteAt(testCtx, 0, payload); err != nil {
		t.Fatalf("write through transient shedding: %v", err)
	}
	snap := r.reg.Snapshot()
	if got := snap.Counters["client.backpressure_waits"]; got != sheds {
		t.Fatalf("client.backpressure_waits = %d, want %d", got, sheds)
	}
	if got := snap.Counters["cheops.backpressure"]; got != 0 {
		t.Fatalf("cheops.backpressure = %d: the handle should have absorbed every shed", got)
	}
	if got := snap.Counters["cheops.degraded_writes"]; got != 0 {
		t.Fatalf("degraded_writes = %d, want 0", got)
	}
	if reps := r.mgr.PendingRepairs(); len(reps) != 0 {
		t.Fatalf("repair ledger = %v after an absorbed shed, want empty", reps)
	}
	// The replica that was shedding holds the new bytes.
	dst := make([]byte, len(payload))
	if err := obj.readDirect(testCtx, 1, 0, dst); err != nil || !bytes.Equal(dst, payload) {
		t.Fatalf("replica 1 after the absorbed sheds: %v", err)
	}
}

// TestOverloadNeverTriggersDegradedRead: overload the handle does not
// absorb must surface as the typed retryable error, not fall into
// reconstruction — reconstructing around a saturated drive fans its
// load out to healthy stripe-mates.
func TestOverloadNeverTriggersDegradedRead(t *testing.T) {
	r := newShedRig(t, 2)
	id, err := r.mgr.Create(testCtx, Mirror1, 4096, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj := r.open(t, id)
	payload := bytes.Repeat([]byte{0x3C}, 512)
	if err := obj.WriteAt(testCtx, 0, payload); err != nil {
		t.Fatal(err)
	}

	// Mirror reads always land on component 0; saturate it permanently.
	r.sheds[0].shedReads.Store(-1)
	_, err = obj.ReadAt(testCtx, 0, len(payload))
	if err == nil {
		t.Fatal("read succeeded against a permanently shedding lane")
	}
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	snap := r.reg.Snapshot()
	if got := snap.Counters["cheops.degraded_reads"]; got != 0 {
		t.Fatalf("degraded_reads = %d: overload must not trigger reconstruction", got)
	}
	if st := r.mgr.DriveHealth(0); st != BreakerClosed {
		t.Fatalf("drive 0 breaker = %v, want closed", st)
	}

	// Once the drive has room again the same handle reads clean — the
	// lane was never marked stale or suspect.
	r.sheds[0].shedReads.Store(0)
	got, err := obj.ReadAt(testCtx, 0, len(payload))
	if err != nil {
		t.Fatalf("read after overload cleared: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("readback mismatch after overload cleared")
	}
}

// TestAllMirrorsOverloadedSurfacesRetryable: when every replica sheds
// the write must come back as the typed
// retryable error with nothing in the repair ledger — nothing was
// written, the mirrors are still consistent, and ErrDegraded would
// send the caller down the wrong recovery path.
func TestAllMirrorsOverloadedSurfacesRetryable(t *testing.T) {
	r := newShedRig(t, 2)
	id, err := r.mgr.Create(testCtx, Mirror1, 4096, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj := r.open(t, id)
	r.sheds[0].shedWrites.Store(-1)
	r.sheds[1].shedWrites.Store(-1)
	err = obj.WriteAt(testCtx, 0, []byte("saturated"))
	if err == nil {
		t.Fatal("write succeeded against fully shedding mirrors")
	}
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if errors.Is(err, ErrDegraded) {
		t.Fatal("all-overloaded write reported as ErrDegraded")
	}
	if reps := r.mgr.PendingRepairs(); len(reps) != 0 {
		t.Fatalf("repair ledger = %v, want empty: no replica diverged", reps)
	}
	snap := r.reg.Snapshot()
	if got := snap.Counters["cheops.breaker_opens"]; got != 0 {
		t.Fatalf("breaker_opens = %d, want 0", got)
	}

	// Partial overload is different: one replica committed, so the shed
	// replica is stale and MUST enter the ledger or it would serve old
	// bytes after the load passes.
	r.sheds[0].shedWrites.Store(0)
	if err := obj.WriteAt(testCtx, 0, []byte("half-land")); err != nil {
		t.Fatalf("partial-overload write: %v", err)
	}
	reps := r.mgr.PendingRepairs()
	if len(reps) != 1 || reps[0].Component != 1 {
		t.Fatalf("repair ledger = %v, want exactly component 1", reps)
	}
}

// TestCanceledRAID5WriteLedgersSkippedParity: a RAID-5 small write that
// the caller cancels after its data leg landed has changed the data lane
// but not the parity. The parity lane must enter the repair ledger like
// any other skipped leg; out of it, a later reconstruction of another
// lane of the stripe would xor new data with old parity and return
// wrong bytes without an error.
func TestCanceledRAID5WriteLedgersSkippedParity(t *testing.T) {
	const unit = 4096
	spans := telemetry.NewSpanLog(256)
	r := newShedRig(t, 3, client.WithSpans(spans))
	id, err := r.mgr.Create(testCtx, RAID5, unit, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj := r.open(t, id)
	// Stripe 0: parity on component 0, data on components 1 and 2, each
	// on the drive of the same index.
	model := make([]byte, 2*unit)
	rand.New(rand.NewSource(31)).Read(model)
	if err := obj.WriteAt(testCtx, 0, model); err != nil {
		t.Fatal(err)
	}

	parity := r.sheds[0]
	parity.park, parity.release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(parity.release) }) }
	t.Cleanup(release)
	landed := len(spans.Recent(0, "client.write"))

	ctx, cancel := context.WithCancel(testCtx)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- obj.WriteAt(ctx, 0, bytes.Repeat([]byte{0xEE}, unit)) }()
	<-parity.park
	// The data leg's client span ends once its reply has been taken.
	for len(spans.Recent(0, "client.write")) == landed {
		runtime.Gosched()
	}
	if sp := spans.Recent(1, "client.write")[0]; len(sp.Annotations) != 0 {
		t.Fatalf("data leg failed: %v", sp.Annotations)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled write: err = %v, want context.Canceled", err)
	}
	release() // the parity write is answered retry-later, never executed

	reps := r.mgr.PendingRepairs()
	if len(reps) != 1 || reps[0].Component != 0 {
		t.Fatalf("repair ledger = %v, want exactly the parity lane (component 0)", reps)
	}
	// Component 2's drive goes away: its range can only be rebuilt from
	// the new data lane and the stale parity, which must be refused.
	r.drives[2].Close()
	got, err := obj.ReadAt(testCtx, unit, unit)
	if err == nil {
		t.Fatalf("reconstruction over stale parity succeeded; bytes match the old data: %v", bytes.Equal(got, model[unit:]))
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
}
