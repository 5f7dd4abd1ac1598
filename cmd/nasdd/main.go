// Command nasdd runs a NASD drive daemon: an object store served over
// TCP with cryptographic capability enforcement.
//
// Usage:
//
//	nasdd -listen 127.0.0.1:7070 -id 1 -master <hex key> [-blocks 65536] [-insecure] [-metrics 127.0.0.1:7071]
//
// The master key (64 hex characters) is the root of the drive's key
// hierarchy; the file manager that manages this drive must hold the
// same key. Generate one with: nasdctl genkey
//
// With -path the store is backed by a file on disk and survives
// restarts (the drive formats the file on first use and reopens it
// thereafter); without it, the store lives in memory. Reopening runs
// mount-time journal recovery (DESIGN.md §7) — committed metadata
// survives a crash or power cut — and logs a one-line recovery
// summary when the volume did not open clean. See OPERATIONS.md for
// the operator runbook.
//
// With -metrics the daemon additionally serves plain-JSON
// observability over HTTP: GET /metrics (the full telemetry snapshot:
// per-op counters and latency histograms, cache hit rates, media
// counters; add ?partition=P for one tenant's slice), GET /healthz
// (liveness + uptime), GET /trace?n=N (the last N served requests),
// GET /trace?trace=ID (every span of one trace), and GET
// /events?n=N&min=SEV (the drive's structured event log: starts,
// recoveries, compactions). Adding -pprof exposes the standard
// net/http/pprof profiling handlers under /debug/pprof/ on the same
// server. The same data is available over the NASD interface itself
// via `nasdctl stats`, `nasdctl trace`, and `nasdctl events`; see
// `nasdctl top` for a whole-fleet view.
//
// -trace-slow sets the slow-op threshold: a request whose root span
// runs at least that long has its whole span tree retained past ring
// wraparound, so `nasdctl trace` can still reconstruct it later.
//
// -qos arms the per-tenant overload-control plane (DESIGN.md §10):
// data requests pass a bounded admission queue, per-tenant token
// buckets, and WDRR fair scheduling keyed by the capability's
// partition before reaching media; -qos-queue, -qos-tenant-queue,
// -qos-rate, -qos-burst, -qos-weights, and -qos-shed tune it. The qos
// plane is the only place the drive turns work away: rejected work
// leaves as a typed retry-later reply with a retry-after hint that
// well-behaved clients pace against, while the rpc layer below it only
// backpressures a connection whose workers are all busy. See the
// OPERATIONS.md overload runbook for tuning under incident.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"strconv"
	"strings"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/object"
	"nasd/internal/qos"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// parseWeights turns "1=3,2=1" into WDRR weights keyed by the tenant
// key the classifier assigns (capability.TenantKey of the partition).
// Partitions may be written bare ("1=3") or in the "part.1" form the
// stats/top tenant tables print, so the value an operator sees is the
// value the flag takes.
func parseWeights(s string) (map[string]int64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int64)
	for _, pair := range strings.Split(s, ",") {
		ps, ws, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("%q is not PART=W", pair)
		}
		ps = strings.TrimPrefix(ps, "part.")
		p, err := strconv.ParseUint(ps, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("partition %q: %v", ps, err)
		}
		w, err := strconv.ParseInt(ws, 10, 64)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("weight %q: must be a positive integer", ws)
		}
		out[capability.TenantKey(uint16(p))] = w
	}
	return out, nil
}

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "TCP listen address")
	id := flag.Uint64("id", 1, "drive identity (baked into capabilities)")
	masterHex := flag.String("master", "", "master key, 64 hex chars (required unless -insecure)")
	blocks := flag.Int64("blocks", 65536, "device size in 4 KB blocks")
	path := flag.String("path", "", "backing file for durable storage (empty = in-memory)")
	insecure := flag.Bool("insecure", false, "disable capability enforcement (the paper's measurement mode)")
	backend := flag.String("backend", "classic", "default storage engine for new partitions: classic or needle")
	metricsAddr := flag.String("metrics", "", "HTTP observability address for /metrics, /healthz, /trace (empty = disabled)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof handlers on the -metrics server")
	traceSlow := flag.Duration("trace-slow", 0, "retain full span trees for requests at least this slow (0 = disabled)")
	qosOn := flag.Bool("qos", false, "enable the per-tenant QoS plane: admission, fair queueing, deadline shedding")
	qosConc := flag.Int("qos-concurrency", 0, fmt.Sprintf("QoS admission width: admitted requests running at once on the rpc workers (0 = default %d)", rpc.DefaultWorkers))
	qosQueue := flag.Int("qos-queue", 0, "QoS global admission queue bound (0 = default 256)")
	qosTenantQueue := flag.Int("qos-tenant-queue", 0, "QoS per-tenant queue bound (0 = global/4)")
	qosRate := flag.Float64("qos-rate", 0, "QoS per-tenant token refill rate, cost units/sec (0 = no rate limit)")
	qosBurst := flag.Float64("qos-burst", 0, "QoS per-tenant token bucket depth (0 = 2x rate)")
	qosWeights := flag.String("qos-weights", "", "QoS WDRR weights as PART=W pairs, e.g. 1=3,2=1 or part.1=3,part.2=1 (unlisted tenants weigh 1)")
	qosShed := flag.Bool("qos-shed", true, "QoS deadline-aware shedding: drop requests whose deadline cannot be met before media time")
	faultDrop := flag.Float64("fault-drop", 0, "fault injection: drop each sent message with this probability (0 = off)")
	faultDup := flag.Float64("fault-dup", 0, "fault injection: duplicate each sent message with this probability (0 = off)")
	faultDelay := flag.Duration("fault-delay", 0, "fault injection: delay every sent message by this much (0 = off)")
	faultSeed := flag.Int64("fault-seed", 1, "fault injection: seed for the deterministic fault schedule")
	flag.Parse()

	var master crypt.Key
	if *masterHex == "" {
		if !*insecure {
			fmt.Fprintln(os.Stderr, "nasdd: -master required (or pass -insecure); generate with: nasdctl genkey")
			os.Exit(2)
		}
		master = crypt.NewRandomKey()
	} else {
		raw, err := hex.DecodeString(*masterHex)
		if err != nil {
			log.Fatalf("nasdd: bad -master: %v", err)
		}
		master, err = crypt.KeyFromBytes(raw)
		if err != nil {
			log.Fatalf("nasdd: bad -master: %v", err)
		}
	}

	var dev blockdev.Device
	fresh := true
	if *path == "" {
		dev = blockdev.NewMemDisk(4096, *blocks)
	} else if _, statErr := os.Stat(*path); statErr == nil {
		fd, err := blockdev.OpenFileDisk(*path)
		if err != nil {
			log.Fatalf("nasdd: %v", err)
		}
		dev = fd
		fresh = false
	} else {
		fd, err := blockdev.CreateFileDisk(*path, 4096, *blocks)
		if err != nil {
			log.Fatalf("nasdd: %v", err)
		}
		dev = fd
	}

	// One registry spans the media, the object system, and the RPC
	// plane, so a single snapshot carries the whole Table 1-style
	// breakdown.
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanLog(telemetry.DefaultSpanLogSize)
	if *traceSlow > 0 {
		spans.SetSlowThreshold(*traceSlow)
	}
	idev := blockdev.Instrument(dev, reg).WithSpanLog(spans)
	defBackend, err := object.ParseBackendKind(*backend)
	if err != nil {
		log.Fatalf("nasdd: %v", err)
	}
	cfg := drive.Config{ID: *id, Master: master, Secure: !*insecure, Metrics: reg, Media: idev, Spans: spans}
	cfg.Store.DefaultBackend = defBackend

	var drv *drive.Drive
	if fresh {
		drv, err = drive.NewFormat(idev, cfg)
	} else {
		drv, err = drive.Open(idev, cfg)
	}
	if err != nil {
		log.Fatalf("nasdd: attach: %v", err)
	}
	if ri := drv.Store().RecoveryInfo(); ri != (object.RecoveryInfo{}) {
		log.Printf("nasdd: recovery: replayed %d journal records, discarded %d torn tails, repaired %d refcounts in %v",
			ri.Replayed, ri.TornTails, ri.RefRepairs, ri.Duration)
	}
	l, err := rpc.ListenTCP(*listen)
	if err != nil {
		log.Fatalf("nasdd: listen: %v", err)
	}
	mode := "secure"
	if *insecure {
		mode = "INSECURE"
	}
	var lis rpc.Listener = l
	if *faultDrop > 0 || *faultDup > 0 || *faultDelay > 0 {
		// Chaos mode: every accepted connection's sends run under a
		// deterministic fault schedule, so client retry/reconnect
		// behavior can be exercised against a real TCP daemon.
		faults := rpc.NewFaults(*faultSeed)
		faults.DropRate(*faultDrop)
		faults.DuplicateRate(*faultDup)
		faults.Delay(*faultDelay)
		lis = faults.WrapListener(l)
		log.Printf("nasdd: FAULT INJECTION armed: drop=%.3f dup=%.3f delay=%v seed=%d",
			*faultDrop, *faultDup, *faultDelay, *faultSeed)
	}
	log.Printf("nasdd: drive %d serving %d x 4KB blocks on %s (%s)", *id, *blocks, l.Addr(), mode)

	// The QoS plane wraps the drive handler: an rpc worker runs its
	// request once the fair queues grant it a slot. Shed traffic leaves
	// as StatusRetryLater, never as transport errors.
	var handler rpc.Handler = drv
	if *qosOn {
		weights, err := parseWeights(*qosWeights)
		if err != nil {
			log.Fatalf("nasdd: bad -qos-weights: %v", err)
		}
		qc := qos.Config{
			Classify:    drive.QoSClassify,
			Concurrency: *qosConc,
			Queue:       *qosQueue,
			TenantQueue: *qosTenantQueue,
			Rate:        *qosRate,
			Burst:       *qosBurst,
			Weights:     weights,
			Shed:        *qosShed,
			Metrics:     reg,
			Events:      drv.Events(),
		}
		ctl := qos.New(drv, qc)
		defer ctl.Close()
		handler = ctl
		log.Printf("nasdd: qos armed: queue=%d tenant-queue=%d rate=%g burst=%g shed=%v weights=%q",
			*qosQueue, *qosTenantQueue, *qosRate, *qosBurst, *qosShed, *qosWeights)
	}
	srv := rpc.NewServer(handler, rpc.WithMetrics(reg))

	if *metricsAddr != "" {
		mux := telemetry.NewMux(reg.Snapshot, drv.Spans(), drv.Events())
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		go func() {
			log.Printf("nasdd: observability on http://%s/metrics", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("nasdd: metrics server: %v", err)
			}
		}()
	}

	// Flush write-behind data on SIGINT/SIGTERM before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("nasdd: flushing and shutting down")
		drv.Events().Emitf(telemetry.SevInfo, "drive", "stop", "drive %d shutting down", *id)
		if err := drv.Store().Flush(); err != nil {
			log.Printf("nasdd: flush: %v", err)
		}
		srv.Close()
		os.Exit(0)
	}()
	srv.Serve(lis)
}
