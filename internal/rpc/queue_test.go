package rpc

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestServerFlowControl pins the server's flow-control contract: a
// connection flooded with more calls than its workers can hold is
// backpressured by the transport, never refused. At most
// `workers` handlers run at once, no reply is StatusRetryLater (turning
// work away is the handler's job, not the transport's), and every call
// completes once the handlers are released.
func TestServerFlowControl(t *testing.T) {
	const (
		workers = 2
		calls   = 4 * workers // more than the workers can hold
	)
	release := make(chan struct{})
	entered := make(chan struct{}, calls)
	var running atomic.Int32
	h := HandlerFunc(func(req *Request) *Reply {
		if n := running.Add(1); n > workers {
			t.Errorf("%d handlers running at once on one connection, want at most %d", n, workers)
		}
		entered <- struct{}{}
		<-release
		running.Add(-1)
		return &Reply{MsgID: req.MsgID, Status: StatusOK}
	})
	srv := NewServer(h)
	srv.workers = workers
	defer srv.Close()
	l := NewInProcListener("flow-control-test")
	go srv.Serve(l)
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(conn)
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
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
	// The pool is wedged once every worker has entered the handler; the
	// rest of the flood waits in the transport.
	for i := 0; i < workers; i++ {
		select {
		case <-entered:
		case <-ctx.Done():
			t.Fatalf("only %d of %d workers entered the handler", i, workers)
		}
	}
	close(release)
	wg.Wait()
	for i := 0; i < calls; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if reps[i].Status != StatusOK {
			t.Fatalf("call %d: status %v, want ok (the server must never shed)", i, reps[i].Status)
		}
	}
}
