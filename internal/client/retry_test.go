package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/rpc"
)

// newFaultRig is newRig with the connection routed through a fault
// schedule and the handle armed for retry: the rig the resilience
// tests sever, crash, and revive.
func newFaultRig(t *testing.T, p RetryPolicy, seed int64) (*testRig, *rpc.Faults) {
	t.Helper()
	master := crypt.NewRandomKey()
	dev := blockdev.NewMemDisk(4096, 8192)
	drv, err := drive.NewFormat(dev, drive.Config{ID: 7, Master: master, Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	l := rpc.NewInProcListener("drive7")
	srv := drv.Serve(l)
	t.Cleanup(srv.Close)
	f := rpc.NewFaults(seed)
	dial := func() (rpc.Conn, error) { return f.Dial(l.Dial) }
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	cli := New(conn, 7, 1001, WithSecurity(true), WithRetry(p), WithDialer(dial))
	t.Cleanup(func() { cli.Close() })
	return &testRig{drv: drv, cli: cli, srv: srv, listener: l,
		fmKeys: crypt.NewHierarchy(master), master: master}, f
}

// flakyHandler fails its first n requests with StatusError, then
// succeeds — the momentary-resource-condition shape the retry of an
// Answered request exists for.
type flakyHandler struct{ remaining atomic.Int32 }

func (h *flakyHandler) Handle(req *rpc.Request) *rpc.Reply {
	if h.remaining.Add(-1) >= 0 {
		return &rpc.Reply{MsgID: req.MsgID, Status: rpc.StatusError, Msg: "transient"}
	}
	return &rpc.Reply{MsgID: req.MsgID, Status: rpc.StatusOK}
}

func TestRetryTransientStatusError(t *testing.T) {
	h := &flakyHandler{}
	h.remaining.Store(2)
	srv := rpc.NewServer(h)
	l := rpc.NewInProcListener("flaky")
	go srv.Serve(l)
	defer srv.Close()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli := New(conn, 7, 1, WithSecurity(false), WithRetry(RetryPolicy{MaxAttempts: 4}))
	defer cli.Close()

	if err := cli.Flush(testCtx); err != nil {
		t.Fatalf("flush despite retries: %v", err)
	}
	snap := cli.Metrics().Snapshot()
	if got := snap.Counters["client.retries"]; got != 2 {
		t.Fatalf("client.retries = %d, want 2", got)
	}
}

func TestRetryGivesUpAtMaxAttempts(t *testing.T) {
	h := &flakyHandler{}
	h.remaining.Store(1 << 20) // never recovers
	srv := rpc.NewServer(h)
	l := rpc.NewInProcListener("flaky2")
	go srv.Serve(l)
	defer srv.Close()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli := New(conn, 7, 1, WithSecurity(false), WithRetry(RetryPolicy{MaxAttempts: 3}))
	defer cli.Close()

	err = cli.Flush(testCtx)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != rpc.StatusError {
		t.Fatalf("err = %v, want the remote StatusError", err)
	}
	if got := cli.Metrics().Snapshot().Counters["client.retries"]; got != 2 {
		t.Fatalf("client.retries = %d, want 2 (attempts 2 and 3)", got)
	}
}

func TestReconnectResumesPipelinedRead(t *testing.T) {
	r, f := newFaultRig(t, RetryPolicy{MaxAttempts: 6}, 1)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, err := r.cli.Create(testCtx, &createCap, 1)
	if err != nil {
		t.Fatal(err)
	}
	rw := r.mint(t, 1, id, 1, capability.Read|capability.Write)
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(data)
	if err := r.cli.Write(testCtx, &rw, 1, id, 0, data); err != nil {
		t.Fatal(err)
	}

	// The connection dies five sends into the read window; every
	// fragment past it must notice, share one reconnect, and reissue.
	f.SeverAfter(5)
	got, err := r.cli.Read(testCtx, &rw, 1, id, 0, len(data))
	if err != nil {
		t.Fatalf("read across a severed connection: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted across reconnect")
	}
	snap := r.cli.Metrics().Snapshot()
	if snap.Counters["client.reconnects"] == 0 {
		t.Fatalf("no reconnect recorded; counters = %v", snap.Counters)
	}
	if snap.Counters["client.retries"] == 0 {
		t.Fatalf("no retry recorded; counters = %v", snap.Counters)
	}
}

func TestRetryNeverOutlivesDeadline(t *testing.T) {
	r, f := newFaultRig(t, RetryPolicy{MaxAttempts: 50, BaseBackoff: 10 * time.Millisecond}, 1)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, err := r.cli.Create(testCtx, &createCap, 1)
	if err != nil {
		t.Fatal(err)
	}
	rw := r.mint(t, 1, id, 1, capability.Read)

	f.Down()
	ctx, cancel := context.WithTimeout(testCtx, 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = r.cli.Read(ctx, &rw, 1, id, 0, 16)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("read from a downed drive succeeded")
	}
	// 50 attempts of exponential backoff would run for seconds; the
	// 150 ms deadline must cut them off.
	if elapsed > 600*time.Millisecond {
		t.Fatalf("retries ran %v past a 150ms deadline", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		t.Fatalf("err = %v with live context", err)
	}
}

func TestNeverSentCreateRetriesAndHeals(t *testing.T) {
	r, f := newFaultRig(t, RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}, 1)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)

	before, err := r.drv.Store().List(1)
	if err != nil {
		t.Fatal(err)
	}

	f.Down()
	if _, err := r.cli.Create(testCtx, &createCap, 1); err == nil {
		t.Fatal("create on a downed drive succeeded")
	}
	// Every attempt failed before its request left the client, so the
	// drive must have executed nothing — the condition that makes
	// retrying a non-idempotent op safe here.
	after, err := r.drv.Store().List(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("downed drive executed a create: %d -> %d objects", len(before), len(after))
	}

	// After revival the same handle heals within one call: the first
	// attempt sees the dead connection (never sent), reconnects, and
	// the reissue succeeds.
	f.Revive()
	id, err := r.cli.Create(testCtx, &createCap, 1)
	if err != nil {
		t.Fatalf("create after revive: %v", err)
	}
	if id == 0 {
		t.Fatal("create returned object 0")
	}
	if got := r.cli.Metrics().Snapshot().Counters["client.reconnects"]; got == 0 {
		t.Fatal("healing create recorded no reconnect")
	}
}

func TestFateUnknownCreateNotRetried(t *testing.T) {
	// The drive's replies run through a fault schedule; the requests
	// themselves arrive and execute. A lost reply leaves the create's
	// fate unknown, and a blind retry would allocate a second object.
	master := crypt.NewRandomKey()
	dev := blockdev.NewMemDisk(4096, 8192)
	drv, err := drive.NewFormat(dev, drive.Config{ID: 7, Master: master, Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	l := rpc.NewInProcListener("drive7")
	f := rpc.NewFaults(1)
	srv := drv.Serve(f.WrapListener(l))
	t.Cleanup(srv.Close)
	dial := func() (rpc.Conn, error) { return l.Dial() }
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	cli := New(conn, 7, 1001, WithSecurity(true),
		WithRetry(RetryPolicy{MaxAttempts: 5, AttemptTimeout: 80 * time.Millisecond}),
		WithDialer(dial))
	t.Cleanup(func() { cli.Close() })
	r := &testRig{drv: drv, cli: cli, srv: srv, listener: l,
		fmKeys: crypt.NewHierarchy(master), master: master}
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)

	before, err := drv.Store().List(1)
	if err != nil {
		t.Fatal(err)
	}
	f.Partition(true) // replies vanish; requests already landed
	if _, err := cli.Create(testCtx, &createCap, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("create with lost reply = %v, want DeadlineExceeded", err)
	}
	f.Partition(false)
	after, err := drv.Store().List(1)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one create executed: the timed-out attempt was never
	// blindly reissued.
	if len(after) != len(before)+1 {
		t.Fatalf("fate-unknown create executed %d times, want 1", len(after)-len(before))
	}
}

func TestRetryBudgetExhaustionFailsFast(t *testing.T) {
	h := &flakyHandler{}
	h.remaining.Store(1 << 20)
	srv := rpc.NewServer(h)
	l := rpc.NewInProcListener("budget")
	go srv.Serve(l)
	defer srv.Close()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli := New(conn, 7, 1, WithSecurity(false), WithRetry(RetryPolicy{MaxAttempts: 10, Budget: 1}))
	defer cli.Close()

	// The one-token budget covers a single retry; afterwards failures
	// surface on the first attempt.
	for i := 0; i < 3; i++ {
		if err := cli.Flush(testCtx); err == nil {
			t.Fatal("flush succeeded against a permanently failing drive")
		}
	}
	snap := cli.Metrics().Snapshot()
	if got := snap.Counters["client.retries"]; got != 1 {
		t.Fatalf("client.retries = %d, want exactly the budgeted 1", got)
	}
	if got := snap.Counters["client.retries_exhausted"]; got == 0 {
		t.Fatal("budget exhaustion not recorded")
	}
}

func TestExpiredCapabilityTyped(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, err := r.cli.Create(testCtx, &createCap, 1)
	if err != nil {
		t.Fatal(err)
	}

	kid, key, err := r.fmKeys.CurrentWorkingKey(1)
	if err != nil {
		t.Fatal(err)
	}
	expired := capability.Mint(capability.Public{
		DriveID: 7, Partition: 1, Object: id, ObjVer: 1,
		Rights: capability.Read,
		Expiry: time.Now().Add(-time.Minute).UnixNano(),
		Key:    kid,
	}, key)

	_, err = r.cli.Read(testCtx, &expired, 1, id, 0, 16)
	if !errors.Is(err, ErrCapabilityExpired) {
		t.Fatalf("err = %v, want ErrCapabilityExpired", err)
	}
	// Expiry is still an authorization failure: legacy funnels keep
	// working.
	if !errors.Is(err, ErrAuth) {
		t.Fatalf("err = %v, want ErrAuth to match too", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != rpc.StatusCapExpired {
		t.Fatalf("err = %v, want StatusCapExpired on the wire", err)
	}
}

// TestClassify pins the one outcome table: every error shape a request
// can end in, bare and wrapped, maps to the Outcome the retry loop and
// the Cheops health plane act on.
func TestClassify(t *testing.T) {
	shed := &RemoteError{Status: rpc.StatusRetryLater, RetryAfter: 7 * time.Millisecond}
	cases := []struct {
		name string
		err  error
		want Outcome
		hint time.Duration
	}{
		{"nil", nil, Answered, 0},
		{"status error", &RemoteError{Status: rpc.StatusError}, Answered, 0},
		{"auth failure", &RemoteError{Status: rpc.StatusAuthFailure}, Answered, 0},
		{"cap expired wrapped", fmt.Errorf("leg 2: %w", &RemoteError{Status: rpc.StatusCapExpired}), Answered, 0},
		{"shed", shed, Shed, 7 * time.Millisecond},
		{"shed wrapped", fmt.Errorf("leg 1: %w", shed), Shed, 7 * time.Millisecond},
		{"shed without hint", &RemoteError{Status: rpc.StatusRetryLater}, Shed, 0},
		{"never sent", fmt.Errorf("%w: %w", rpc.ErrNotSent, rpc.ErrClosed), NeverSent, 0},
		{"never sent wrapped", fmt.Errorf("client: reconnect: %w", fmt.Errorf("%w: %w", rpc.ErrNotSent, io.EOF)), NeverSent, 0},
		{"connection closed", rpc.ErrClosed, Lost, 0},
		{"read error", io.ErrUnexpectedEOF, Lost, 0},
		{"no dialer", ErrNoDialer, Lost, 0},
		{"attempt timeout", context.DeadlineExceeded, TimedOut, 0},
		{"pause cut short", fmt.Errorf("%w; last error: %v", context.DeadlineExceeded, shed), TimedOut, 0},
		{"canceled", context.Canceled, Canceled, 0},
		{"canceled wrapped", fmt.Errorf("%w; last error: %v", context.Canceled, rpc.ErrClosed), Canceled, 0},
	}
	for _, c := range cases {
		got, hint := Classify(c.err)
		if got != c.want || hint != c.hint {
			t.Errorf("%s: Classify = (%v, %v), want (%v, %v)", c.name, got, hint, c.want, c.hint)
		}
	}
}
