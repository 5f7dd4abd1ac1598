package qos_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/object"
	"nasd/internal/qos"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// qosMedium is the drive newQoSDrive builds: a throttled memory disk
// of blockSize-byte blocks at bandwidth bytes/s plus 100 µs per op, a
// cache of cacheBlocks, and one seeded object of objBytes per tenant.
type qosMedium struct {
	blockSize, cacheBlocks, objBytes int
	bandwidth                        int64
}

// tinyCache keeps reads on stable ms-scale media; floodMedium is a
// fast drive, so in the flood scenario the aggressor's offered load is
// the bottleneck, not the host.
var (
	tinyCache   = qosMedium{blockSize: 512, cacheBlocks: 8, objBytes: 64 << 10, bandwidth: 64 << 20}
	floodMedium = qosMedium{blockSize: 4096, cacheBlocks: 16, objBytes: 2 << 20, bandwidth: 96 << 20}
)

// newQoSDrive builds an insecure drive over md with partitions 1
// (victim) and 2 (aggressor), one seeded object each, wrapped in a qos
// Controller.
func newQoSDrive(t *testing.T, md qosMedium, cfg qos.Config) (*qos.Controller, *drive.Drive, *telemetry.Registry, [2]uint64) {
	t.Helper()
	dev := blockdev.NewThrottle(blockdev.NewMemDisk(md.blockSize, 32768), md.bandwidth, 100*time.Microsecond)
	reg := telemetry.NewRegistry()
	d, err := drive.NewFormat(dev, drive.Config{
		ID: 1, Master: crypt.NewRandomKey(), Metrics: reg,
		Store:  object.Config{CacheBlocks: md.cacheBlocks},
		Events: telemetry.NewEventLog(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	var objs [2]uint64
	for i, part := range []uint16{1, 2} {
		rep := d.Handle(&rpc.Request{Proc: uint16(drive.OpCreatePartition),
			Args: (&drive.PartArgs{Partition: part}).Encode()})
		if rep.Status != rpc.StatusOK {
			t.Fatalf("mkpart %d: %v", part, rep.Status)
		}
		rep = d.Handle(&rpc.Request{Proc: uint16(drive.OpCreateObject),
			Args: (&drive.ObjArgs{Partition: part}).Encode()})
		if rep.Status != rpc.StatusOK {
			t.Fatalf("create: %v", rep.Status)
		}
		id, err := drive.DecodeIDReply(rep.Args)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, md.objBytes)
		rep = d.Handle(&rpc.Request{Proc: uint16(drive.OpWriteObject),
			Args: (&drive.WriteArgs{Partition: part, Object: id}).Encode(), Data: data})
		if rep.Status != rpc.StatusOK {
			t.Fatalf("seed write: %v", rep.Status)
		}
		objs[i] = id
	}
	cfg.Classify = drive.QoSClassify
	cfg.Metrics = reg
	if cfg.Events == nil {
		cfg.Events = telemetry.NewEventLog(64)
	}
	c := qos.New(d, cfg)
	t.Cleanup(c.Close)
	return c, d, reg, objs
}

func readReq(part uint16, obj uint64, off uint64, n uint64) *rpc.Request {
	return &rpc.Request{Proc: uint16(drive.OpReadObject),
		Args: (&drive.ReadArgs{Partition: part, Object: obj, Offset: off, Length: n}).Encode()}
}

// TestHotTenantCannotStarve drives a real drive through the qos plane:
// an aggressor tenant floods from many goroutines while a victim
// tenant issues closed-loop reads. Fair queueing plus the per-tenant
// queue bound must keep every victim read succeeding with a sane p99,
// while the aggressor — not the victim — absorbs the rejections.
func TestHotTenantCannotStarve(t *testing.T) {
	c, _, reg, objs := newQoSDrive(t, tinyCache, qos.Config{
		Concurrency: 2, Queue: 64, TenantQueue: 8,
	})

	stop := make(chan struct{})
	var aggressorRejects atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				off := uint64((g*31+i)%16) * 4096
				rep := c.Handle(readReq(2, objs[1], off, 4096))
				switch rep.Status {
				case rpc.StatusOK:
				case rpc.StatusRetryLater:
					aggressorRejects.Add(1)
					time.Sleep(time.Millisecond)
				default:
					t.Errorf("aggressor: %v", rep.Status)
					return
				}
			}
		}(g)
	}

	const victimOps = 60
	lat := make([]time.Duration, 0, victimOps)
	for i := 0; i < victimOps; i++ {
		start := time.Now()
		rep := c.Handle(readReq(1, objs[0], uint64(i%16)*4096, 4096))
		if rep.Status != rpc.StatusOK {
			t.Fatalf("victim read %d failed: %v %s", i, rep.Status, rep.Msg)
		}
		lat = append(lat, time.Since(start))
	}
	close(stop)
	wg.Wait()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	// The victim queues at most TenantQueue deep behind WDRR service
	// alternating with the aggressor; a generous absolute bound still
	// catches starvation (unfair FIFO drain of a 64-deep aggressor
	// backlog per op lands well above this under the throttled disk).
	if p99 > 500*time.Millisecond {
		t.Fatalf("victim p99 %v: starved despite fair queueing", p99)
	}
	if reg.Counter("drive.part.1.qos.rejected").Load() != 0 ||
		reg.Counter("drive.part.1.qos.shed").Load() != 0 {
		t.Fatal("victim tenant was rejected/shed; enforcement hit the wrong tenant")
	}
	if aggressorRejects.Load() == 0 && reg.Counter("drive.part.2.qos.admitted").Load() == 0 {
		t.Fatal("aggressor never ran; test proved nothing")
	}
}

// TestShedBeforeMediaIO pins the shed placement: a request whose wire
// deadline is already unmeetable is answered StatusRetryLater without
// the drive handler — and therefore the media — ever seeing it.
func TestShedBeforeMediaIO(t *testing.T) {
	c, _, reg, objs := newQoSDrive(t, tinyCache, qos.Config{
		Concurrency: 2, Queue: 64, Shed: true,
	})

	// Warm the estimator with real reads so the forecast is live data,
	// not just the cold-start prior.
	for i := 0; i < 8; i++ {
		if rep := c.Handle(readReq(1, objs[0], 0, 4096)); rep.Status != rpc.StatusOK {
			t.Fatalf("warm read: %v", rep.Status)
		}
	}
	callsBefore := reg.Counter("drive.op.read.calls").Load()
	if callsBefore == 0 {
		t.Fatal("warm reads did not advance drive.op.read.calls; counter name drifted")
	}

	req := readReq(1, objs[0], 0, 4096)
	req.DeadlineNS = 1 // one nanosecond: unmeetable by any estimate
	rep := c.Handle(req)
	if rep.Status != rpc.StatusRetryLater {
		t.Fatalf("status %v, want retry-later", rep.Status)
	}
	if hint, ok := rpc.RetryAfterHint(rep); !ok || hint <= 0 {
		t.Fatalf("shed reply without usable hint: %v ok=%v", hint, ok)
	}
	if got := reg.Counter("drive.op.read.calls").Load(); got != callsBefore {
		t.Fatalf("drive read calls advanced %d→%d: shed request reached the media path", callsBefore, got)
	}
	if got := reg.Counter("drive.part.1.qos.shed").Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}

// TestFloodKeepsVictimP99 is the multi-tenant overload scenario of
// DESIGN.md §10, end to end through the rpc server and retrying
// clients. A well-behaved victim tenant (four closed-loop readers of
// 4 KiB with 10 ms think time) is measured alone, then again while an
// aggressor tenant floods the drive open-loop at ~10x the victim's
// offered load: many Poisson clients reading 16 KiB at Zipf-hot
// offsets. The qos plane — WDRR weights 4:1 for the victim, a token
// bucket that holds the victim's ~400 units/s but not the flood,
// bounded queues and deadline shedding — must keep every victim read
// succeeding with its contended p99 within 3 x max(solo p99, 3 ms),
// and turn the aggressor away only with typed retry-later replies.
// The 3 ms floor keeps a sub-millisecond solo baseline from making the
// bound vacuously tight; real starvation queues for seconds.
func TestFloodKeepsVictimP99(t *testing.T) {
	if raceEnabled {
		t.Skip("asserts a wall-clock p99 bound that the race detector's slowdown breaches")
	}
	aggressors, phase := 1000, 2*time.Second
	if testing.Short() {
		aggressors, phase = 300, time.Second
	}
	const victims, think = 4, 10 * time.Millisecond
	objBlocks := floodMedium.objBytes / 4096 // the 4 KiB units both tenants address
	ctl, _, reg, objs := newQoSDrive(t, floodMedium, qos.Config{
		Concurrency: 2, Queue: 256, TenantQueue: 64,
		Rate: 450, Burst: 100, // cost units of ~32 KiB
		Weights: map[string]int64{"part.1": 4, "part.2": 1},
		Shed:    true,
	})
	l := rpc.NewInProcListener("qos-flood")
	srv := rpc.NewServer(ctl, rpc.WithMetrics(reg))
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	dial := func(id uint64, attempts int) *client.Drive {
		conn, err := l.Dial()
		for try := 0; err != nil && try < 1000; try++ {
			runtime.Gosched() // let the accept loop drain the listener's backlog
			conn, err = l.Dial()
		}
		if err != nil {
			t.Fatal(err)
		}
		c := client.New(conn, 1, id, client.WithSecurity(false), client.WithRetry(client.RetryPolicy{MaxAttempts: attempts}))
		t.Cleanup(func() { c.Close() })
		return c
	}
	var victimClis, aggClis []*client.Drive
	for i := 0; i < victims; i++ {
		victimClis = append(victimClis, dial(uint64(100+i), 8))
	}
	for i := 0; i < 16; i++ {
		aggClis = append(aggClis, dial(uint64(500+i), 3))
	}

	// victimP99 runs the victims for one phase and returns their p99.
	victimP99 := func(name string) time.Duration {
		var mu sync.Mutex
		var lat []time.Duration
		var wg sync.WaitGroup
		stop := time.Now().Add(phase)
		for i, cli := range victimClis {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1 + i)))
				for time.Now().Before(stop) {
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					start := time.Now()
					_, err := cli.Read(ctx, nil, 1, objs[0], uint64(rng.Intn(objBlocks))*4096, 4096)
					cancel()
					if err != nil {
						t.Errorf("%s: victim %d: %v", name, i, err)
						return
					}
					mu.Lock()
					lat = append(lat, time.Since(start))
					mu.Unlock()
					time.Sleep(think)
				}
			}()
		}
		wg.Wait()
		if len(lat) == 0 {
			t.Fatalf("%s: no victim read completed", name)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)*99/100]
	}

	solo := victimP99("solo")

	meanGap := time.Duration(float64(aggressors) / (10 * victims / think.Seconds()) * float64(time.Second))
	var aggFailed atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < aggressors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(10_000 + int64(g)))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(objBlocks-17))
			cli := aggClis[g%len(aggClis)]
			for {
				// Open loop: arrivals do not slow down because the
				// drive turns them away.
				select {
				case <-stop:
					return
				case <-time.After(time.Duration(rng.ExpFloat64() * float64(meanGap))):
				}
				ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
				_, err := cli.Read(ctx, nil, 2, objs[1], zipf.Uint64()*4096, 16<<10)
				cancel()
				if err != nil && !errors.Is(err, client.ErrOverloaded) && !errors.Is(err, context.DeadlineExceeded) {
					aggFailed.Add(1)
				}
			}
		}()
	}
	contended := victimP99("contended")
	close(stop)
	wg.Wait()

	bound := 3 * max(solo, 3*time.Millisecond)
	t.Logf("%d aggressors: victim p99 solo %v, contended %v (%.1fx raw, bound %v); qos admitted=%d throttled=%d rejected=%d shed=%d",
		aggressors, solo, contended, float64(contended)/float64(solo), bound,
		reg.Counter("qos.admitted").Load(), reg.Counter("qos.throttled").Load(),
		reg.Counter("qos.rejected").Load(), reg.Counter("qos.shed").Load())
	if contended > bound {
		t.Errorf("victim p99 %v breached 3 x max(solo p99 %v, 3ms): the flood starved the victim", contended, solo)
	}
	if n := aggFailed.Load(); n > 0 {
		t.Errorf("aggressor saw %d failures other than retry-later or deadline", n)
	}
	limited := reg.Counter("drive.part.2.qos.throttled").Load() + reg.Counter("drive.part.2.qos.rejected").Load() +
		reg.Counter("drive.part.2.qos.shed").Load()
	if limited == 0 {
		t.Error("the aggressor was never limited: the flood did not exercise the qos plane")
	}
}
