package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/cheops"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// runChaos is the fault-tolerance soak: four secure in-process drives
// behind per-drive fault injectors, a Cheops manager striping a RAID 5
// and a mirrored object across them, and workers writing and verifying
// deterministic data the whole time. A third of the way in, drive 2 is
// killed outright — connections severed, its server shut down, and its
// volatile write cache dropped, the storage model of a power cut. Two
// thirds in, the drive is restarted over the surviving media (the
// write-ahead journal replays its metadata at mount), every lane it
// carries is marked stale in the manager's repair ledger, the ledger
// is drained by reconstruction, and handles are reopened. The run
// fails unless every operation during the outage completes with
// correct data via degraded reads/writes, the breaker trips and then
// recloses, journal recovery actually replayed records, and the
// retry/failover counters advanced.
//
// Drive 2 — not drive 0 — takes the fault: the manager persists its
// directory through drive 0, so killing drive 0 would test manager
// durability, a different (and not yet redundant) property.
func runChaos(w io.Writer, dur time.Duration, seed int64, jsonOut string) error {
	const (
		nDrives    = 4
		victim     = 2
		stripeUnit = int64(16 << 10)
	)
	if dur < 300*time.Millisecond {
		dur = 300 * time.Millisecond
	}
	reg := telemetry.NewRegistry()
	ctx := context.Background()

	var (
		refs        []cheops.DriveRef
		drives      []*client.Drive
		faults      []*rpc.Faults
		seq         uint64            = 100
		victimInner *blockdev.MemDisk // durable media under the crash disk
		victimCrash *blockdev.CrashDisk
		victimSlot  *lnSlot
		victimKey   crypt.Key
	)
	srvs := make([]*rpc.Server, nDrives)
	defer func() {
		for _, s := range srvs {
			if s != nil {
				s.Close()
			}
		}
	}()
	policy := client.RetryPolicy{MaxAttempts: 5, AttemptTimeout: 250 * time.Millisecond}
	for i := 0; i < nDrives; i++ {
		master := crypt.NewRandomKey()
		inner := blockdev.NewMemDisk(4096, 16384)
		var dev blockdev.Device = inner
		if i == victim {
			// The victim sits behind a crash disk: a volatile write cache
			// whose contents vanish at the kill, leaving only what the
			// store explicitly flushed (journal commits included).
			victimInner, victimKey = inner, master
			victimCrash = blockdev.NewCrashDisk(inner, seed+1000)
			dev = victimCrash
		}
		drv, err := drive.NewFormat(dev, drive.Config{ID: uint64(1 + i), Master: master, Secure: true})
		if err != nil {
			return err
		}
		slot := &lnSlot{l: rpc.NewInProcListener(fmt.Sprintf("chaos%d", i))}
		srvs[i] = drv.Serve(slot.l)
		f := rpc.NewFaults(seed + int64(i))
		faults = append(faults, f)
		// Every connection to this drive — manager control traffic and
		// data-path legs alike — runs through its fault injector, and
		// every client can re-dial through it. The listener slot is one
		// more indirection: a restarted drive serves on a fresh listener,
		// and swapping it into the slot points every later redial at the
		// new server.
		if i == victim {
			victimSlot = slot
		}
		dial := func() (rpc.Conn, error) { return f.Dial(slot.dial) }
		mk := func() (*client.Drive, error) {
			conn, err := dial()
			if err != nil {
				return nil, err
			}
			seq++
			c := client.New(conn, uint64(1+i), seq,
				client.WithMetrics(reg), client.WithRetry(policy), client.WithDialer(dial))
			return c, nil
		}
		mgrCli, err := mk()
		if err != nil {
			return err
		}
		dataCli, err := mk()
		if err != nil {
			return err
		}
		defer mgrCli.Close()
		defer dataCli.Close()
		refs = append(refs, cheops.DriveRef{Client: mgrCli, DriveID: uint64(1 + i), Master: master})
		drives = append(drives, dataCli)
	}

	mgr, err := cheops.NewManager(ctx, cheops.ManagerConfig{
		Drives:          refs,
		Metrics:         reg,
		FailThreshold:   3,
		BreakerCooldown: 200 * time.Millisecond,
	}, true)
	if err != nil {
		return err
	}

	raidID, err := mgr.Create(ctx, cheops.RAID5, stripeUnit, 4, 0)
	if err != nil {
		return err
	}
	mirrorID, err := mgr.Create(ctx, cheops.Mirror1, stripeUnit, 3, 0)
	if err != nil {
		return err
	}

	workers := []*chaosWorker{
		newChaosWorker("raid5", raidID, 384<<10, seed+101),
		newChaosWorker("mirror", mirrorID, 128<<10, seed+202),
	}
	for _, cw := range workers {
		if err := cw.open(mgr, drives); err != nil {
			return err
		}
		if err := cw.initialize(ctx); err != nil {
			return fmt.Errorf("chaos: priming %s object: %w", cw.name, err)
		}
	}

	phase := func(name string, d time.Duration) error {
		until := time.Now().Add(d)
		errs := make([]error, len(workers))
		var wg sync.WaitGroup
		for i, cw := range workers {
			wg.Add(1)
			go func(i int, cw *chaosWorker) {
				defer wg.Done()
				errs[i] = cw.soak(ctx, until)
			}(i, cw)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("chaos: %s phase, %s worker: %w", name, workers[i].name, err)
			}
		}
		return nil
	}

	start := time.Now()
	fmt.Fprintf(w, "chaos soak: %d drives, victim=drive %d, duration=%v, seed=%d\n", nDrives, victim, dur, seed)
	if err := phase("healthy", dur/3); err != nil {
		return err
	}

	fmt.Fprintf(w, "  t=%-8v drive %d KILLED (connections severed, server down, volatile write cache lost)\n", time.Since(start).Round(time.Millisecond), victim)
	// Order matters: sever the network first so no request is in flight
	// when the server drains, then drop the write cache. The crash
	// leaves only what the store explicitly made durable — superblock,
	// journal commits, flushed data — exactly a power cut's residue.
	faults[victim].Down()
	srvs[victim].Close()
	victimCrash.Crash()
	if err := phase("degraded", dur/3); err != nil {
		return err
	}
	if st := mgr.DriveHealth(victim); st == cheops.BreakerClosed {
		return fmt.Errorf("chaos: drive %d breaker still closed after outage traffic", victim)
	}

	// Restart the drive over the surviving media. object.Open replays
	// the metadata journal, repairs reference counts, and reports what
	// it did; the drive then serves on a fresh listener swapped into the
	// victim's dial slot. The shared registry picks up the journal.*
	// counters and the recovery_ms gauge from the reopened store.
	reborn, err := drive.Open(victimInner, drive.Config{
		ID: uint64(1 + victim), Master: victimKey, Secure: true, Metrics: reg,
	})
	if err != nil {
		return fmt.Errorf("chaos: restarting crashed drive %d: %w", victim, err)
	}
	ri := reborn.Store().RecoveryInfo()
	fmt.Fprintf(w, "  t=%-8v drive %d restarted: journal replayed %d records (%d torn tails discarded), %d ref repairs, recovery took %v\n",
		time.Since(start).Round(time.Millisecond), victim, ri.Replayed, ri.TornTails, ri.RefRepairs, ri.Duration.Round(time.Microsecond))
	if ri.Replayed == 0 && ri.TornTails == 0 {
		return fmt.Errorf("chaos: drive %d recovery replayed nothing — the kill lost no state, so the crash path went unexercised", victim)
	}
	relisten := rpc.NewInProcListener(fmt.Sprintf("chaos%d-reborn", victim))
	srvs[victim] = reborn.Serve(relisten)
	victimSlot.set(relisten)

	// The journal restored the drive's metadata, but data writes it
	// acknowledged from volatile cache are gone: every lane it carries
	// is stale until rebuilt. Tell the manager so reads reconstruct
	// around the drive while RepairAll re-creates its components.
	stale := mgr.MarkDriveStale(victim, "restarted after crash: volatile cache contents lost")
	fmt.Fprintf(w, "  t=%-8v drive %d revived; %d lanes marked stale; draining repair ledger\n", time.Since(start).Round(time.Millisecond), victim, stale)
	faults[victim].Revive()
	repairDeadline := time.Now().Add(10 * time.Second)
	for len(mgr.PendingRepairs()) > 0 {
		if time.Now().After(repairDeadline) {
			return fmt.Errorf("chaos: repair ledger not drained: %d entries left", len(mgr.PendingRepairs()))
		}
		if _, err := mgr.RepairAll(ctx); err != nil {
			// A probe refused or failed while the breaker reopens is
			// expected; the next sweep retries.
			time.Sleep(50 * time.Millisecond)
			continue
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := mgr.DriveHealth(victim); st != cheops.BreakerClosed {
		return fmt.Errorf("chaos: drive %d breaker %v after successful repair, want closed", victim, st)
	}

	// Repair replaced component objects, so pre-outage handles are
	// stale (they would pay a reconstruction per access). Reopen.
	for _, cw := range workers {
		if err := cw.open(mgr, drives); err != nil {
			return fmt.Errorf("chaos: reopening %s after repair: %w", cw.name, err)
		}
	}
	if err := phase("recovered", dur/3); err != nil {
		return err
	}

	for _, cw := range workers {
		if err := cw.verifyAll(ctx); err != nil {
			return fmt.Errorf("chaos: final verification of %s object: %w", cw.name, err)
		}
	}

	snap := reg.Snapshot()
	elapsed := time.Since(start)
	var moved int64
	for _, cw := range workers {
		moved += cw.bytesMoved
	}
	mbps := float64(moved) / (1 << 20) / elapsed.Seconds()
	fmt.Fprintf(w, "  t=%-8v all phases complete; every operation verified\n\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "%-28s %10.1f MB/s (%d ops, %d MiB through the outage)\n",
		"soak throughput", mbps, workers[0].ops+workers[1].ops, moved>>20)
	printChaosCounters(w, snap)

	// Per-tenant attribution: each drive keys its op counters by the
	// capability's partition, in its own registry; pull every drive's
	// snapshot over the stats RPC and merge the splits fleet-wide.
	var driveMerged telemetry.Snapshot
	for i, cli := range drives {
		sr, serr := cli.ServerStats(ctx, drive.StatsArgs{})
		if serr != nil {
			return fmt.Errorf("chaos: stats from drive %d: %w", i, serr)
		}
		driveMerged.Merge(sr.Metrics)
	}
	tenants := tenantsFromSnapshot(driveMerged)
	if len(tenants) == 0 {
		return fmt.Errorf("chaos: no per-tenant counters on any drive — partition attribution went unexercised")
	}
	telemetry.WriteTenantTable(w, driveMerged, fmt.Sprintf("merged from %d drives", len(drives)))

	// Every subsystem in this process (manager, stores, reborn drive)
	// defaults its event log to the shared telemetry.Events ring; the
	// outage must have narrated itself there.
	events := telemetry.Events.Recent(0, telemetry.SevInfo)
	evSummary := eventSummary(events)
	var evKeys []string
	for k := range evSummary {
		evKeys = append(evKeys, k)
	}
	sort.Strings(evKeys)
	fmt.Fprintf(w, "\nevent log (%d events):\n", len(events))
	for _, k := range evKeys {
		fmt.Fprintf(w, "  %-28s %6d\n", k, evSummary[k])
	}
	if evSummary["cheops.breaker_open"] == 0 {
		return fmt.Errorf("chaos: no breaker_open event recorded for the outage")
	}
	if evSummary["cheops.breaker_close"] == 0 {
		return fmt.Errorf("chaos: no breaker_close event recorded after repair")
	}

	if snap.Counters["client.retries"] == 0 {
		return fmt.Errorf("chaos: client.retries did not advance — outage never exercised the retry path")
	}
	if snap.Counters["cheops.failovers"] == 0 {
		return fmt.Errorf("chaos: cheops.failovers did not advance — outage never exercised failover")
	}
	if snap.Counters["cheops.breaker_opens"] == 0 {
		return fmt.Errorf("chaos: breaker never opened during the outage")
	}
	if snap.Counters["journal.replays"] == 0 {
		return fmt.Errorf("chaos: journal.replays did not advance — restart recovery went unexercised")
	}

	return writeBenchJSON(jsonOut, benchResult{
		Name:       "chaos",
		Config:     benchConfig{Workers: len(workers), Secure: true},
		Throughput: map[string]float64{"soak": mbps},
		Latency:    latencyFromSnapshot(snap),
		Counters:   chaosCounters(snap),
		Tenants:    tenants,
		Events:     evSummary,
	})
}

// chaosCounterNames are the resilience counters the chaos run reports.
// The journal.* pair comes from the victim's post-restart mount: how
// many committed intent records recovery replayed and how many torn
// record batches the scan discarded.
var chaosCounterNames = []string{
	"client.retries",
	"client.reconnects",
	"client.retries_exhausted",
	"cheops.failovers",
	"cheops.degraded_reads",
	"cheops.degraded_writes",
	"cheops.breaker_opens",
	"cheops.breaker_probes",
	"cheops.cap_renewals",
	"journal.replays",
	"journal.torn_tails",
}

func chaosCounters(snap telemetry.Snapshot) map[string]uint64 {
	out := make(map[string]uint64)
	for _, n := range chaosCounterNames {
		out[n] = snap.Counters[n]
	}
	// recovery_ms is a gauge (one value per restart); report it beside
	// the counters so BENCH_chaos.json carries the whole crash story.
	out["recovery_ms"] = uint64(snap.Gauges["recovery_ms"])
	return out
}

func printChaosCounters(w io.Writer, snap telemetry.Snapshot) {
	fmt.Fprintf(w, "%-28s %10s\n", "counter", "value")
	for _, n := range chaosCounterNames {
		fmt.Fprintf(w, "%-28s %10d\n", n, snap.Counters[n])
	}
	var breakers []string
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "cheops.drive.") && strings.HasSuffix(name, ".breaker") {
			breakers = append(breakers, fmt.Sprintf("%s=%v", name, cheops.BreakerState(v)))
		}
	}
	sort.Strings(breakers)
	fmt.Fprintf(w, "%-28s %10d\n", "cheops.pending_repairs", snap.Gauges["cheops.pending_repairs"])
	fmt.Fprintf(w, "%-28s %10d\n", "recovery_ms", snap.Gauges["recovery_ms"])
	fmt.Fprintf(w, "breakers: %s\n", strings.Join(breakers, " "))
}

// lnSlot holds a drive's current listener behind a lock. The dial path
// captured by long-lived clients goes through the slot, so a restarted
// drive — serving on a fresh listener after its old one closed with
// its server — swaps the new listener in and every later redial lands
// on the new incarnation.
type lnSlot struct {
	mu sync.Mutex
	l  *rpc.InProcListener
}

func (s *lnSlot) set(l *rpc.InProcListener) {
	s.mu.Lock()
	s.l = l
	s.mu.Unlock()
}

func (s *lnSlot) dial() (rpc.Conn, error) {
	s.mu.Lock()
	l := s.l
	s.mu.Unlock()
	return l.Dial()
}

// chaosWorker soaks one logical object: random-offset writes of
// deterministic bytes mirrored into an in-memory model, each followed
// by a read-back window that must match the model exactly. All
// randomness flows from the run seed, so a failure replays.
type chaosWorker struct {
	name       string
	logical    uint64
	size       int
	rng        *rand.Rand
	model      []byte
	obj        *cheops.Object
	ops        int64
	bytesMoved int64
}

func newChaosWorker(name string, logical uint64, size int, seed int64) *chaosWorker {
	return &chaosWorker{
		name:    name,
		logical: logical,
		size:    size,
		rng:     rand.New(rand.NewSource(seed)),
		model:   make([]byte, size),
	}
}

func (cw *chaosWorker) open(mgr *cheops.Manager, drives []*client.Drive) error {
	obj, err := cheops.OpenObject(mgr, drives, cw.logical, capability.Read|capability.Write)
	if err != nil {
		return err
	}
	cw.obj = obj
	return nil
}

func (cw *chaosWorker) initialize(ctx context.Context) error {
	cw.rng.Read(cw.model)
	if err := cw.obj.WriteAt(ctx, 0, cw.model); err != nil {
		return err
	}
	cw.bytesMoved += int64(len(cw.model))
	return nil
}

func (cw *chaosWorker) soak(ctx context.Context, until time.Time) error {
	buf := make([]byte, 48<<10)
	for round := 0; time.Now().Before(until) || round == 0; round++ {
		n := 1 + cw.rng.Intn(len(buf))
		off := cw.rng.Intn(cw.size - n + 1)
		chunk := buf[:n]
		cw.rng.Read(chunk)
		if err := cw.obj.WriteAt(ctx, uint64(off), chunk); err != nil {
			return fmt.Errorf("write [%d,%d): %w", off, off+n, err)
		}
		copy(cw.model[off:], chunk)

		rn := 1 + cw.rng.Intn(len(buf))
		roff := cw.rng.Intn(cw.size - rn + 1)
		got, err := cw.obj.ReadAt(ctx, uint64(roff), rn)
		if err != nil {
			return fmt.Errorf("read [%d,%d): %w", roff, roff+rn, err)
		}
		if !bytes.Equal(got, cw.model[roff:roff+rn]) {
			return fmt.Errorf("read [%d,%d): data does not match the model", roff, roff+rn)
		}
		cw.ops += 2
		cw.bytesMoved += int64(n + rn)
	}
	return nil
}

func (cw *chaosWorker) verifyAll(ctx context.Context) error {
	got, err := cw.obj.ReadAt(ctx, 0, cw.size)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, cw.model) {
		for i := range got {
			if got[i] != cw.model[i] {
				return fmt.Errorf("byte %d differs (got %#x want %#x)", i, got[i], cw.model[i])
			}
		}
	}
	return nil
}
