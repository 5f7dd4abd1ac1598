package rpc

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestQueueRejectOnFull is the regression test for the per-connection
// pending-request cap: with WithQueue, a connection whose worker pool
// is saturated answers excess requests with StatusRetryLater (plus a
// retry-after hint) instead of buffering them without bound, and the
// admitted requests still complete once the pool drains.
func TestQueueRejectOnFull(t *testing.T) {
	const (
		workers = 1
		queue   = 2
		calls   = 10
	)
	release := make(chan struct{})
	started := make(chan struct{}, calls)
	h := HandlerFunc(func(req *Request) *Reply {
		started <- struct{}{}
		<-release
		return &Reply{MsgID: req.MsgID, Status: StatusOK}
	})
	srv := NewServer(h, WithQueue(queue))
	srv.workers = workers
	defer srv.Close()
	l := NewInProcListener("queue-test")
	go srv.Serve(l)
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(conn)
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var mu sync.Mutex
	var okN, rejected int
	var hints []time.Duration
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := cli.Call(ctx, &Request{Proc: 1})
			if err != nil {
				t.Errorf("call: %v", err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			switch rep.Status {
			case StatusOK:
				okN++
			case StatusRetryLater:
				rejected++
				if hint, ok := RetryAfterHint(rep); ok {
					hints = append(hints, hint)
				}
			default:
				t.Errorf("unexpected status %v", rep.Status)
			}
		}()
	}

	// The cap bounds what can be admitted while the pool is wedged: one
	// request per worker in flight, `queue` buffered, plus at most one
	// more a worker dequeued before blocking. Everything else must be
	// rejected promptly — without the cap this wait would deadlock,
	// since no worker ever finishes until release.
	admitCap := workers*2 + queue
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		r := rejected
		mu.Unlock()
		if r >= calls-admitCap {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d rejections; want >= %d", r, calls-admitCap)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if okN+rejected != calls {
		t.Fatalf("okN=%d rejected=%d, want total %d", okN, rejected, calls)
	}
	if rejected == 0 {
		t.Fatal("pending cap never rejected")
	}
	if okN == 0 {
		t.Fatal("no admitted request completed")
	}
	for _, hint := range hints {
		if hint <= 0 {
			t.Fatalf("rejection carried no retry-after hint: %v", hint)
		}
	}
	if got := srv.Metrics().Snapshot().Counters["rpc.server.rejected"]; got != uint64(rejected) {
		t.Fatalf("rpc.server.rejected = %d, want %d", got, rejected)
	}
}

// TestQueueDefaultBlocks pins the legacy default: without WithQueue the
// read loop blocks on a full pool (transport backpressure) and nothing
// is rejected.
func TestQueueDefaultBlocks(t *testing.T) {
	release := make(chan struct{})
	h := HandlerFunc(func(req *Request) *Reply {
		<-release
		return &Reply{MsgID: req.MsgID, Status: StatusOK}
	})
	srv := NewServer(h)
	srv.workers = 2
	defer srv.Close()
	l := NewInProcListener("queue-default-test")
	go srv.Serve(l)
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(conn)
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const calls = 8
	var wg sync.WaitGroup
	errs := make([]error, calls)
	reps := make([]*Reply, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = cli.Call(ctx, &Request{Proc: 1})
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the flood pile up
	close(release)
	wg.Wait()
	for i := 0; i < calls; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if reps[i].Status != StatusOK {
			t.Fatalf("call %d: status %v, want ok (default mode must never shed)", i, reps[i].Status)
		}
	}
	if got := srv.Metrics().Snapshot().Counters["rpc.server.rejected"]; got != 0 {
		t.Fatalf("rpc.server.rejected = %d, want 0 in default mode", got)
	}
}
