package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
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

// This file is the QoS drill: one qos-armed drive, a well-behaved
// victim tenant (partition 1, closed-loop 4 KiB reads with think
// time), and a hot aggressor tenant (partition 2, ~10x the victim's
// offered load from many open-loop Poisson "clients" with
// Zipf-distributed hot spots, 16 KiB reads — large enough to hold the
// simulated spindle a few hundred microseconds per op, small enough
// that no single admitted op wrecks a bystander's tail). Phase 1
// measures the victim alone; phase 2 turns the aggressor loose. The
// run FAILS — exits nonzero, so check.sh can gate on it — unless:
//
//   - every victim request eventually succeeded (zero failures);
//   - the victim's contended p99 is at most qosRatioBound (3) times
//     max(solo p99, qosSoloFloor): against a sub-millisecond solo p99
//     the bound is 9 ms absolute, not 3x of what was measured, and the
//     report prints the raw ratio beside the floored one;
//   - overload surfaced only as typed retry-later replies: neither
//     tenant saw a transport error or any other failure shape.
//
// The drive sits on a throttled memory disk so media service times are
// stable across machines, and the qos plane runs the same knobs the
// nasdd -qos-* flags expose: WDRR weights favoring the victim, a
// per-tenant token bucket that clamps the aggressor's sustainable
// rate, bounded per-tenant queues, and deadline shedding.

const (
	qosVictimPart    uint16 = 1
	qosAggressorPart uint16 = 2
	qosObjectBytes          = 2 << 20
	qosRatioBound           = 3.0
	// qosSoloFloor keeps the bound honest in both directions: an
	// unrealistically fast solo baseline (all cache hits) cannot make
	// 3x vacuously tight. 3 ms is a handful of serialized media ops on
	// the throttled spindle — scheduler jitter on a loaded 1-CPU host
	// lands inside it, while real starvation (an unprotected drive
	// under this flood queues for seconds) blows far past it.
	qosSoloFloor = 3 * time.Millisecond
)

// qosTraffic aggregates one tenant's client-side outcomes.
type qosTraffic struct {
	ok        atomic.Uint64 // requests that eventually succeeded
	shed      atomic.Uint64 // surfaced as ErrOverloaded after retries
	failed    atomic.Uint64 // anything else: the shapes the run forbids
	deadline  atomic.Uint64 // caller deadline expired while pacing
	issuedAgg atomic.Uint64 // aggressor arrivals generated (open loop)
}

func runQoS(w io.Writer, phaseDur time.Duration, aggressors int, seed int64, jsonOut string) error {
	if aggressors < 1 {
		aggressors = 1000
	}
	reg := telemetry.NewRegistry()
	events := telemetry.NewEventLog(256)
	// 96 MB/s + 100µs/op: a fast-drive service model, enough that the
	// aggressor's offered load is the bottleneck, not the bench host.
	dev := blockdev.NewThrottle(blockdev.NewMemDisk(4096, 32768), 96<<20, 100*time.Microsecond)
	drv, err := drive.NewFormat(dev, drive.Config{
		ID: 1, Master: crypt.NewRandomKey(), Metrics: reg, Events: events,
		Store: object.Config{CacheBlocks: 16}, // tiny cache: reads pay media time
	})
	if err != nil {
		return err
	}

	// Seed one object per tenant through the drive handler directly
	// (setup traffic should not pass the qos plane it is about to test).
	objs := make(map[uint16]uint64, 2)
	for _, part := range []uint16{qosVictimPart, qosAggressorPart} {
		rep := drv.Handle(&rpc.Request{Proc: uint16(drive.OpCreatePartition),
			Args: (&drive.PartArgs{Partition: part}).Encode()})
		if rep.Status != rpc.StatusOK {
			return fmt.Errorf("mkpart %d: %v %s", part, rep.Status, rep.Msg)
		}
		rep = drv.Handle(&rpc.Request{Proc: uint16(drive.OpCreateObject),
			Args: (&drive.ObjArgs{Partition: part}).Encode()})
		if rep.Status != rpc.StatusOK {
			return fmt.Errorf("create: %v %s", rep.Status, rep.Msg)
		}
		id, err := drive.DecodeIDReply(rep.Args)
		if err != nil {
			return err
		}
		rep = drv.Handle(&rpc.Request{Proc: uint16(drive.OpWriteObject),
			Args: (&drive.WriteArgs{Partition: part, Object: id}).Encode(),
			Data: make([]byte, qosObjectBytes)})
		if rep.Status != rpc.StatusOK {
			return fmt.Errorf("seed write: %v %s", rep.Status, rep.Msg)
		}
		objs[part] = id
	}

	// The qos plane under test: victim weighted 4:1 over the aggressor,
	// and a token bucket sized so the victim's offered load (~400
	// units/s of 4 KiB reads) fits under the refill rate with room,
	// while the aggressor's 10x flood of 16 KiB reads does not —
	// rejections land on the tenant causing the pressure, and the
	// shallow burst keeps the flood from buying seconds of queue depth
	// up front. Units are ~32 KiB cost units.
	ctl := qos.New(drv, qos.Config{
		Classify:    drive.QoSClassify,
		Concurrency: 2,
		Queue:       256,
		TenantQueue: 64,
		Rate:        450,
		Burst:       100,
		Weights: map[string]int64{
			"part.1": 4,
			"part.2": 1,
		},
		Shed:    true,
		Metrics: reg,
		Events:  events,
	})
	defer ctl.Close()

	l := rpc.NewInProcListener("nasdbench-qos")
	srv := rpc.NewServer(ctl,
		rpc.WithMetrics(reg),
		rpc.WithProcNames(func(p uint16) string { return drive.Op(p).String() }))
	defer srv.Close()
	go srv.Serve(l)

	newClient := func(id uint64, attempts int) (*client.Drive, error) {
		// The in-proc listener's accept backlog is small; when this
		// setup loop outruns the server's accept goroutine, back off
		// briefly instead of failing the bench.
		var conn rpc.Conn
		for try := 0; ; try++ {
			var err error
			if conn, err = l.Dial(); err == nil {
				break
			}
			if try >= 50 {
				return nil, err
			}
			time.Sleep(time.Millisecond)
		}
		return client.New(conn, 1, id, client.WithSecurity(false),
			client.WithRetry(client.RetryPolicy{MaxAttempts: attempts})), nil
	}

	// Victim: a handful of closed-loop clients with think time — the
	// well-behaved tenant whose latency the qos plane must protect.
	const victims = 4
	const victimThink = 10 * time.Millisecond
	victimClis := make([]*client.Drive, victims)
	for i := range victimClis {
		if victimClis[i], err = newClient(uint64(100+i), 8); err != nil {
			return err
		}
		defer victimClis[i].Close()
	}

	// Aggressor: `aggressors` simulated open-loop clients multiplexed
	// over a pool of connections, each arriving Poisson at a combined
	// ~10x the victim's offered rate, reading 16 KiB at Zipf-hot
	// offsets.
	const aggConns = 16
	aggClis := make([]*client.Drive, aggConns)
	for i := range aggClis {
		if aggClis[i], err = newClient(uint64(500+i), 3); err != nil {
			return err
		}
		defer aggClis[i].Close()
	}
	victimOffered := float64(victims) / victimThink.Seconds() // ops/s, upper bound
	aggRate := 10 * victimOffered                             // combined arrivals/s
	meanGap := time.Duration(float64(aggressors) / aggRate * float64(time.Second))

	var vt, at qosTraffic
	victimPhase := func(dur time.Duration) ([]time.Duration, error) {
		var mu sync.Mutex
		var lat []time.Duration
		var wg sync.WaitGroup
		stop := time.Now().Add(dur)
		errc := make(chan error, victims)
		for i := 0; i < victims; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(i)))
				for n := 0; time.Now().Before(stop); n++ {
					off := uint64(rng.Intn(qosObjectBytes/4096)) * 4096
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					start := time.Now()
					_, err := victimClis[i].ReadPipelined(ctx, nil, qosVictimPart, objs[qosVictimPart], off, 4096)
					cancel()
					switch {
					case err == nil:
						vt.ok.Add(1)
						mu.Lock()
						lat = append(lat, time.Since(start))
						mu.Unlock()
					case errors.Is(err, client.ErrOverloaded):
						vt.shed.Add(1)
					case errors.Is(err, context.DeadlineExceeded):
						vt.deadline.Add(1)
					default:
						vt.failed.Add(1)
						select {
						case errc <- fmt.Errorf("victim %d: %w", i, err):
						default:
						}
					}
					time.Sleep(victimThink)
				}
			}(i)
		}
		wg.Wait()
		select {
		case err := <-errc:
			return lat, err
		default:
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat, nil
	}

	// ---- Phase 1: victim alone -------------------------------------
	soloLat, err := victimPhase(phaseDur)
	if err != nil {
		return err
	}
	if len(soloLat) == 0 {
		return fmt.Errorf("solo phase produced no victim completions")
	}
	p99Solo := pct(soloLat, 0.99)

	// ---- Phase 2: aggressor flood ----------------------------------
	aggStop := make(chan struct{})
	var aggWG sync.WaitGroup
	for g := 0; g < aggressors; g++ {
		aggWG.Add(1)
		go func(g int) {
			defer aggWG.Done()
			rng := rand.New(rand.NewSource(seed + 10_000 + int64(g)))
			zipf := rand.NewZipf(rng, 1.2, 1, qosObjectBytes/4096-17)
			cli := aggClis[g%aggConns]
			for {
				// Open loop: the arrival process does not slow down just
				// because the drive is rejecting — that is the point.
				gap := time.Duration(rng.ExpFloat64() * float64(meanGap))
				select {
				case <-aggStop:
					return
				case <-time.After(gap):
				}
				at.issuedAgg.Add(1)
				off := zipf.Uint64() * 4096
				ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
				_, err := cli.ReadPipelined(ctx, nil, qosAggressorPart, objs[qosAggressorPart], off, 16<<10)
				cancel()
				switch {
				case err == nil:
					at.ok.Add(1)
				case errors.Is(err, client.ErrOverloaded):
					at.shed.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					at.deadline.Add(1)
				default:
					at.failed.Add(1)
				}
			}
		}(g)
	}
	contLat, verr := victimPhase(phaseDur)
	close(aggStop)
	aggWG.Wait()
	if verr != nil {
		return verr
	}
	if len(contLat) == 0 {
		return fmt.Errorf("contended phase produced no victim completions")
	}
	p99Cont := pct(contLat, 0.99)

	// ---- Report ------------------------------------------------------
	snap := reg.Snapshot()
	base := max(p99Solo, qosSoloFloor)
	ratio, rawRatio := float64(p99Cont)/float64(base), float64(p99Cont)/float64(p99Solo)
	fmt.Fprintf(w, "nasdbench -workload qos: %d aggressor clients at ~%.0f arrivals/s vs %d victim readers\n",
		aggressors, aggRate, victims)
	fmt.Fprintf(w, "  victim solo:      %6d ops  p50 %8s  p99 %8s\n",
		len(soloLat), pct(soloLat, 0.50).Round(time.Microsecond), p99Solo.Round(time.Microsecond))
	fmt.Fprintf(w, "  victim contended: %6d ops  p50 %8s  p99 %8s  (%.2fx of solo p99; %.2fx of max(solo p99, %v), bound %.1fx)\n",
		len(contLat), pct(contLat, 0.50).Round(time.Microsecond), p99Cont.Round(time.Microsecond), rawRatio, ratio, qosSoloFloor, qosRatioBound)
	fmt.Fprintf(w, "  victim outcomes:    ok=%d shed=%d deadline=%d failed=%d\n",
		vt.ok.Load(), vt.shed.Load(), vt.deadline.Load(), vt.failed.Load())
	fmt.Fprintf(w, "  aggressor outcomes: issued=%d ok=%d shed=%d deadline=%d failed=%d\n",
		at.issuedAgg.Load(), at.ok.Load(), at.shed.Load(), at.deadline.Load(), at.failed.Load())
	fmt.Fprintf(w, "  drive qos verdicts: admitted=%d throttled=%d shed=%d rejected=%d\n",
		snap.Counters["qos.admitted"], snap.Counters["qos.throttled"],
		snap.Counters["qos.shed"], snap.Counters["qos.rejected"])
	telemetry.WriteTenantTable(w, snap, "bench cumulative")

	// ---- Assertions (the run's exit status IS the regression gate) ---
	var fails []string
	if vt.failed.Load() > 0 || vt.shed.Load() > 0 || vt.deadline.Load() > 0 {
		fails = append(fails, fmt.Sprintf(
			"victim saw non-success outcomes (shed=%d deadline=%d failed=%d): the well-behaved tenant must be untouched",
			vt.shed.Load(), vt.deadline.Load(), vt.failed.Load()))
	}
	if at.failed.Load() > 0 {
		fails = append(fails, fmt.Sprintf(
			"aggressor saw %d non-retry-later failures: overload must surface only as typed backpressure", at.failed.Load()))
	}
	if float64(p99Cont) > qosRatioBound*float64(base) {
		fails = append(fails, fmt.Sprintf(
			"victim p99 %v breached %gx of max(solo p99 %v, %v): hot tenant starved the victim",
			p99Cont, qosRatioBound, p99Solo, qosSoloFloor))
	}
	if snap.Counters["drive.part.2.qos.throttled"]+snap.Counters["drive.part.2.qos.rejected"]+snap.Counters["drive.part.2.qos.shed"] == 0 {
		fails = append(fails, "aggressor was never limited: the flood did not exercise the qos plane")
	}

	if jsonOut != "" {
		lat := latencyFromSnapshot(snap)
		lat["bench.victim.solo_ns"] = summarize(soloLat)
		lat["bench.victim.contended_ns"] = summarize(contLat)
		res := benchResult{
			Name:   "qos",
			Config: benchConfig{Workers: aggressors, Secure: false},
			Throughput: map[string]float64{
				"victim_ops_per_sec":    float64(len(contLat)) / phaseDur.Seconds(),
				"aggressor_ops_per_sec": float64(at.ok.Load()) / phaseDur.Seconds(),
			},
			Latency: lat,
			Counters: map[string]uint64{
				"victim_ok":             vt.ok.Load(),
				"victim_shed":           vt.shed.Load(),
				"victim_deadline":       vt.deadline.Load(),
				"victim_failed":         vt.failed.Load(),
				"aggressor_issued":      at.issuedAgg.Load(),
				"aggressor_ok":          at.ok.Load(),
				"aggressor_shed":        at.shed.Load(),
				"aggressor_deadline":    at.deadline.Load(),
				"aggressor_failed":      at.failed.Load(),
				"qos_admitted":          snap.Counters["qos.admitted"],
				"qos_throttled":         snap.Counters["qos.throttled"],
				"qos_shed":              snap.Counters["qos.shed"],
				"qos_rejected":          snap.Counters["qos.rejected"],
				"p99_ratio_x100":        uint64(ratio * 100),
				"p99_ratio_raw_x100":    uint64(rawRatio * 100),
				"victim_p99_solo_ns":    uint64(p99Solo),
				"victim_p99_contend_ns": uint64(p99Cont),
			},
			Tenants: tenantsFromSnapshot(snap),
			Events:  eventSummary(events.Recent(256, telemetry.SevInfo)),
		}
		if err := writeBenchJSON(jsonOut, res); err != nil {
			return err
		}
	}

	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintf(w, "FAIL: %s\n", f)
		}
		return fmt.Errorf("qos drill failed %d assertion(s)", len(fails))
	}
	fmt.Fprintf(w, "PASS: victim p99 held within %.1fx of max(solo p99, %v) under a ~10x flood with zero victim failures\n", qosRatioBound, qosSoloFloor)
	return nil
}

// pct returns the p-quantile of sorted latencies.
func pct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)) * p)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summarize condenses a sorted latency slice into the bench JSON shape.
func summarize(sorted []time.Duration) latencySummary {
	var sum int64
	for _, d := range sorted {
		sum += int64(d)
	}
	mean := int64(0)
	if len(sorted) > 0 {
		mean = sum / int64(len(sorted))
	}
	return latencySummary{
		Count: uint64(len(sorted)),
		Mean:  mean,
		P50:   int64(pct(sorted, 0.50)),
		P95:   int64(pct(sorted, 0.95)),
		P99:   int64(pct(sorted, 0.99)),
		Max:   int64(pct(sorted, 1.0)),
	}
}
