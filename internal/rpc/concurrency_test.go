package rpc

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkerPoolDispatchesConcurrently proves the tentpole property of
// the server side: requests arriving on ONE connection execute in
// parallel. Every handler invocation blocks until `want` of them are in
// flight simultaneously; with serial dispatch this would deadlock.
func TestWorkerPoolDispatchesConcurrently(t *testing.T) {
	const want = 4
	var inFlight atomic.Int64
	release := make(chan struct{})
	srv := NewServer(HandlerFunc(func(req *Request) *Reply {
		if inFlight.Add(1) == want {
			close(release)
		}
		defer inFlight.Add(-1)
		select {
		case <-release:
		case <-time.After(5 * time.Second):
			return &Reply{Status: StatusError, Msg: "never reached concurrency"}
		}
		return &Reply{Status: StatusOK}
	}))
	srv.workers = want
	l := NewInProcListener("s")
	go srv.Serve(l)
	defer srv.Close()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(conn)
	defer cli.Close()

	var wg sync.WaitGroup
	errs := make([]error, want)
	for i := 0; i < want; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := cli.Call(context.Background(), &Request{Proc: 1})
			if err != nil {
				errs[i] = err
			} else if rep.Status != StatusOK {
				errs[i] = errors.New(rep.Msg)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for a few scheduler rounds (or after two seconds of churn).
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	deadline := time.Now().Add(2 * time.Second)
	for stable := 0; stable < 5 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}

// TestConnectionRunsOnlyItsWorkers: a connection costs exactly its
// workers in server goroutines, each reading its own frames, with no
// reader goroutine in front of them; closing the connection ends them
// all.
func TestConnectionRunsOnlyItsWorkers(t *testing.T) {
	const workers = 3
	srv := NewServer(echoServer(t))
	srv.workers = workers
	l := NewInProcListener("s")
	go srv.Serve(l)
	defer srv.Close()
	base := settledGoroutines()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	// A raw round trip, so no client receive goroutine joins the count.
	if err := conn.Send(AppendRequestHeader(nil, &Request{MsgID: 1, Proc: 1})); err != nil {
		t.Fatal(err)
	}
	raw, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := DecodeMessage(raw); err != nil {
		t.Fatal(err)
	} else if rep, ok := msg.(*Reply); !ok || rep.MsgID != 1 || rep.Status != StatusOK {
		t.Fatalf("reply %+v", msg)
	}
	if d := settledGoroutines() - base; d != workers {
		t.Fatalf("a connection runs %d server goroutines, want exactly %d (its workers)", d, workers)
	}
	conn.Close()
	if d := settledGoroutines() - base; d != 0 {
		t.Fatalf("%d server goroutines outlive the closed connection", d)
	}
}

// TestWorkerPoolBounded: with a single worker, requests on one
// connection never overlap, no matter how many the client pipelines.
func TestWorkerPoolBounded(t *testing.T) {
	var inFlight, maxSeen atomic.Int64
	srv := NewServer(HandlerFunc(func(req *Request) *Reply {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			m := maxSeen.Load()
			if n <= m || maxSeen.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return &Reply{Status: StatusOK}
	}))
	srv.workers = 1
	l := NewInProcListener("s")
	go srv.Serve(l)
	defer srv.Close()

	conn, _ := l.Dial()
	cli := NewClient(conn)
	defer cli.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli.Call(context.Background(), &Request{Proc: 1})
		}()
	}
	wg.Wait()
	if maxSeen.Load() != 1 {
		t.Fatalf("single-worker server ran %d handlers concurrently", maxSeen.Load())
	}
}

// TestCallCancellation: a canceled context fails the pending call
// promptly even though the server never replies, and the connection
// remains usable for later calls.
func TestCallCancellation(t *testing.T) {
	block := make(chan struct{})
	srv := NewServer(HandlerFunc(func(req *Request) *Reply {
		if req.Proc == 99 {
			<-block // wedge this request until the test ends
		}
		return &Reply{Status: StatusOK}
	}))
	l := NewInProcListener("s")
	go srv.Serve(l)
	defer srv.Close()
	defer close(block) // LIFO: unwedge handlers before srv.Close waits on them

	conn, _ := l.Dial()
	cli := NewClient(conn)
	defer cli.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cli.Call(ctx, &Request{Proc: 99})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled call returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled call never returned")
	}
	// The mux forgot the abandoned call and the connection still works.
	if n := cli.Metrics().Snapshot().Gauges["rpc.client.inflight"]; n != 0 {
		t.Fatalf("in-flight after cancellation = %d", n)
	}
	if _, err := cli.Call(context.Background(), &Request{Proc: 1}); err != nil {
		t.Fatalf("call after cancellation: %v", err)
	}
}

// TestCallDeadline: an already-expired deadline fails before any bytes
// move; a short deadline fails a wedged call with DeadlineExceeded.
func TestCallDeadline(t *testing.T) {
	block := make(chan struct{})
	srv := NewServer(HandlerFunc(func(req *Request) *Reply {
		<-block
		return &Reply{Status: StatusOK}
	}))
	l := NewInProcListener("s")
	go srv.Serve(l)
	defer srv.Close()
	defer close(block) // LIFO: unwedge handlers before srv.Close waits on them

	conn, _ := l.Dial()
	cli := NewClient(conn)
	defer cli.Close()

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := cli.Call(expired, &Request{Proc: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v", err)
	}

	short, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if _, err := cli.Call(short, &Request{Proc: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("short deadline: %v", err)
	}
}

// TestStatsCounters: the per-connection counters the pipelining layer
// surfaces move as traffic flows.
func TestStatsCounters(t *testing.T) {
	srv := NewServer(echoServer(t))
	l := NewInProcListener("s")
	go srv.Serve(l)
	defer srv.Close()

	conn, _ := l.Dial()
	cli := NewClient(conn)
	defer cli.Close()

	const calls = 10
	for i := 0; i < calls; i++ {
		if _, err := cli.Call(context.Background(), &Request{Proc: 1, Data: make([]byte, 1024)}); err != nil {
			t.Fatal(err)
		}
	}
	cs := cli.Metrics().Snapshot()
	if cs.Counters["rpc.client.calls"] != calls || cs.Gauges["rpc.client.inflight"] != 0 {
		t.Fatalf("client metrics = %+v", cs)
	}
	if cs.Counters["rpc.client.bytes_sent"] == 0 || cs.Counters["rpc.client.bytes_recv"] == 0 {
		t.Fatalf("client byte counters never moved: %+v", cs)
	}
	ss := srv.Metrics().Snapshot()
	if ss.Counters["rpc.server.requests"] != calls || ss.Gauges["rpc.server.inflight"] != 0 || ss.Gauges["rpc.server.conns"] != 1 {
		t.Fatalf("server metrics = %+v", ss)
	}
	if n := ss.Counters["rpc.server.bytes_in"]; n < calls*1024 {
		t.Fatalf("server bytes_in = %d", n)
	}
}
