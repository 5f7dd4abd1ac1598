package cheops

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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

// faultRig is the chaos variant of the test rig: every connection to
// drive i — the manager's and the data path's — runs through
// faults[i], and every client can re-dial through it, so one
// Down/Revive call models a whole drive crashing and returning. Every
// handle retries under policy; the zero policy stands for four
// attempts of at most 250 ms each. Each drive's media sits behind a
// volatile write cache, and every redial goes to the listener in
// lns[i], so powerCut and restart can replace a drive under its
// clients.
type faultRig struct {
	mgr    *Manager
	drives []*client.Drive
	raw    []*drive.Drive
	faults []*rpc.Faults
	reg    *telemetry.Registry

	media []*blockdev.MemDisk
	disks []*blockdev.CrashDisk
	keys  []crypt.Key
	srvs  []*rpc.Server
	lns   []*atomic.Pointer[rpc.InProcListener]
}

func newFaultRig(t *testing.T, n int, mc ManagerConfig, policy client.RetryPolicy) *faultRig {
	t.Helper()
	r := &faultRig{reg: telemetry.NewRegistry()}
	if policy == (client.RetryPolicy{}) {
		policy = client.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, AttemptTimeout: 250 * time.Millisecond}
	}
	var refs []DriveRef
	for i := 0; i < n; i++ {
		master := crypt.NewRandomKey()
		media := blockdev.NewMemDisk(4096, 16384)
		disk := blockdev.NewCrashDisk(media, int64(1+i))
		drv, err := drive.NewFormat(disk, drive.Config{ID: uint64(1 + i), Master: master, Secure: true})
		if err != nil {
			t.Fatal(err)
		}
		ln := new(atomic.Pointer[rpc.InProcListener])
		ln.Store(rpc.NewInProcListener(fmt.Sprintf("fd%d", i)))
		r.raw = append(r.raw, drv)
		r.media, r.disks, r.keys = append(r.media, media), append(r.disks, disk), append(r.keys, master)
		r.srvs, r.lns = append(r.srvs, drv.Serve(ln.Load())), append(r.lns, ln)
		t.Cleanup(func() { r.srvs[i].Close() })
		f := rpc.NewFaults(int64(1 + i))
		r.faults = append(r.faults, f)
		dial := func() (rpc.Conn, error) { return f.Dial(ln.Load().Dial) }
		mk := func() *client.Drive {
			conn, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			c := client.New(conn, uint64(1+i), clientSeq.Add(1)+500,
				client.WithMetrics(r.reg), client.WithRetry(policy), client.WithDialer(dial))
			t.Cleanup(func() { c.Close() })
			return c
		}
		refs = append(refs, DriveRef{Client: mk(), DriveID: uint64(1 + i), Master: master})
		r.drives = append(r.drives, mk())
	}
	mc.Drives = refs
	mc.Metrics = r.reg
	if mc.FailThreshold == 0 {
		mc.FailThreshold = 3
	}
	if mc.BreakerCooldown == 0 {
		mc.BreakerCooldown = 100 * time.Millisecond
	}
	mgr, err := NewManager(testCtx, mc, true)
	if err != nil {
		t.Fatal(err)
	}
	r.mgr = mgr
	return r
}

// powerCut takes drive i down the way a power cut does. The network
// goes first, so no request is in flight when the server drains; then
// the write cache is dropped, leaving only what the store made durable.
func (r *faultRig) powerCut(i int) {
	r.faults[i].Down()
	r.srvs[i].Close()
	r.disks[i].Crash()
}

// restart mounts drive i again over the media its power cut left — the
// mount replays the journal into reg — and serves it on a fresh
// listener, where every later redial of its clients lands.
func (r *faultRig) restart(t *testing.T, i int, events *telemetry.EventLog) *drive.Drive {
	t.Helper()
	drv, err := drive.Open(r.media[i], drive.Config{
		ID: uint64(1 + i), Master: r.keys[i], Secure: true, Metrics: r.reg, Events: events,
	})
	if err != nil {
		t.Fatalf("restarting drive %d: %v", i, err)
	}
	ln := rpc.NewInProcListener(fmt.Sprintf("fd%d-restarted", i))
	r.raw[i], r.srvs[i] = drv, drv.Serve(ln)
	r.lns[i].Store(ln)
	return drv
}

// drainRepairs sweeps RepairAll until the repair ledger is empty. A
// sweep refused while the victim's breaker recloses is tried again.
func drainRepairs(t *testing.T, mgr *Manager) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(mgr.PendingRepairs()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("repair ledger stuck: %+v", mgr.PendingRepairs())
		}
		mgr.RepairAll(testCtx)
		time.Sleep(10 * time.Millisecond)
	}
}

// soaker writes random extents of one logical object and reads random
// extents back, checking every read against an in-memory model. All of
// its randomness comes from its seed, so a failure replays.
type soaker struct {
	name  string
	id    uint64
	obj   *Object
	model []byte
	rng   *rand.Rand
}

func (r *faultRig) newSoaker(t *testing.T, p Pattern, width, size int, seed int64) *soaker {
	t.Helper()
	id, err := r.mgr.Create(testCtx, p, 16<<10, width, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &soaker{name: p.String(), id: id, model: make([]byte, size), rng: rand.New(rand.NewSource(seed))}
	s.reopen(t, r)
	s.rng.Read(s.model)
	if err := s.obj.WriteAt(testCtx, 0, s.model); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *soaker) reopen(t *testing.T, r *faultRig) {
	t.Helper()
	obj, err := OpenObject(r.mgr, r.drives, s.id, capability.Read|capability.Write)
	if err != nil {
		t.Fatal(err)
	}
	s.obj = obj
}

func (s *soaker) soak(rounds int) error {
	for i := 0; i < rounds; i++ {
		n := 1 + s.rng.Intn(48<<10)
		off := s.rng.Intn(len(s.model) - n + 1)
		chunk := make([]byte, n)
		s.rng.Read(chunk)
		if err := s.obj.WriteAt(testCtx, uint64(off), chunk); err != nil {
			return fmt.Errorf("%s round %d write [%d,%d): %w", s.name, i, off, off+n, err)
		}
		copy(s.model[off:], chunk)
		roff := s.rng.Intn(len(s.model) - n + 1)
		got, err := s.obj.ReadAt(testCtx, uint64(roff), n)
		if err != nil {
			return fmt.Errorf("%s round %d read [%d,%d): %w", s.name, i, roff, roff+n, err)
		}
		if !bytes.Equal(got, s.model[roff:roff+n]) {
			return fmt.Errorf("%s round %d read [%d,%d) does not match the model", s.name, i, roff, roff+n)
		}
	}
	return nil
}

func (s *soaker) verify(t *testing.T) {
	t.Helper()
	got, err := s.obj.ReadAt(testCtx, 0, len(s.model))
	if err != nil || !bytes.Equal(got, s.model) {
		t.Fatalf("%s object does not match the model: %v", s.name, err)
	}
}

// TestChaosSeverReviveRepair is the acceptance scenario. A RAID 5 and a
// mirrored object are soaked concurrently over four drives while one
// drive loses power: every operation during the outage must complete
// with correct data via the degraded paths. The drive then restarts
// through journal recovery, is marked stale, and the repair ledger
// drains; the breaker recloses, full redundancy returns, and the
// outage shows in the counters, the test's own event ring and the
// drives' per-tenant stats.
//
// Drive 2, not drive 0, takes the fault: the manager keeps its
// directory on drive 0, and losing it is a different property.
func TestChaosSeverReviveRepair(t *testing.T) {
	const victim = 2
	events := telemetry.NewEventLog(256)
	// Threshold 1: a lane enters the repair ledger on its first failed
	// write and later traffic skips it, so the breaker sees few
	// failures.
	r := newFaultRig(t, 4, ManagerConfig{FailThreshold: 1, Events: events}, client.RetryPolicy{})
	soakers := []*soaker{
		r.newSoaker(t, RAID5, 4, 256<<10, 11),
		r.newSoaker(t, Mirror1, 3, 128<<10, 12),
	}
	soak := func(phase string, rounds int) {
		t.Helper()
		errs := make([]error, len(soakers))
		var wg sync.WaitGroup
		for i, s := range soakers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = s.soak(rounds)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("%s phase: %v", phase, err)
		}
	}

	soak("healthy", 10)

	r.powerCut(victim)
	soak("degraded", 20) // every op must survive the outage on redundancy
	if st := r.mgr.DriveHealth(victim); st == BreakerClosed {
		t.Fatal("victim's breaker never opened during the outage")
	}
	if len(r.mgr.PendingRepairs()) == 0 {
		t.Fatal("no pending repairs recorded from degraded writes")
	}

	ri := r.restart(t, victim, events).Store().RecoveryInfo()
	t.Logf("drive %d restarted: journal replayed %d records, discarded %d torn tails, %d ref repairs, recovery took %v",
		victim, ri.Replayed, ri.TornTails, ri.RefRepairs, ri.Duration)
	if ri.Replayed+ri.TornTails == 0 {
		t.Fatal("recovery replayed nothing: the power cut lost no state, so the crash path went unexercised")
	}
	// Journal recovery restored the drive's metadata, but data writes
	// it acknowledged from its volatile cache are gone.
	stale := r.mgr.MarkDriveStale(victim, "restarted after a power cut")
	t.Logf("%d more lanes marked stale; %d pending repairs", stale, len(r.mgr.PendingRepairs()))
	r.faults[victim].Revive()
	drainRepairs(t, r.mgr)
	if st := r.mgr.DriveHealth(victim); st != BreakerClosed {
		t.Fatalf("breaker %v after successful repair, want closed", st)
	}

	// The repair moved the victim's components to fresh objects; the
	// old handles keep reading correctly (via reconstruction) but
	// reopened handles serve all lanes directly.
	for _, s := range soakers {
		s.verify(t)
		s.reopen(t, r)
	}
	soak("recovered", 10)
	for _, s := range soakers {
		s.verify(t)
	}

	snap := r.reg.Snapshot()
	for _, c := range []string{"client.retries", "client.reconnects", "cheops.failovers", "cheops.degraded_writes",
		"cheops.degraded_reads", "cheops.breaker_opens", "cheops.breaker_probes", "journal.replays", "journal.torn_tails"} {
		t.Logf("%-24s %d", c, snap.Counters[c])
	}
	t.Logf("%-24s %d", "recovery_ms", snap.Gauges["recovery_ms"])
	for _, c := range []string{"client.retries", "cheops.failovers", "cheops.degraded_writes", "cheops.degraded_reads", "cheops.breaker_opens", "journal.replays"} {
		if snap.Counters[c] == 0 {
			t.Errorf("counter %s did not advance", c)
		}
	}
	seen := map[string]int{}
	for _, e := range events.Recent(0, telemetry.SevInfo) {
		seen[e.Subsystem+"."+e.Name]++
	}
	if seen["cheops.breaker_open"] == 0 || seen["cheops.breaker_close"] == 0 {
		t.Errorf("the outage's breaker transitions are missing from the event ring: %v", seen)
	}

	// Each drive keys its op counters by the capability's partition;
	// the merged stats of all four carry the split.
	var merged telemetry.Snapshot
	for i, cli := range r.drives {
		sr, err := cli.ServerStats(testCtx, drive.StatsArgs{})
		if err != nil {
			t.Fatalf("stats from drive %d: %v", i, err)
		}
		merged.Merge(sr.Metrics)
	}
	if len(telemetry.TenantParts(merged)) == 0 {
		t.Error("no per-tenant counters on any drive")
	}
}

// TestChaosMirrorDegradedWrite covers the mirror path: with one
// replica's drive down, writes land on the surviving replicas, reads
// fall over to them, and repair restores the lost replica.
func TestChaosMirrorDegradedWrite(t *testing.T) {
	const victim = 1
	r := newFaultRig(t, 3, ManagerConfig{}, client.RetryPolicy{})
	id, err := r.mgr.Create(testCtx, Mirror1, 16<<10, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := OpenObject(r.mgr, r.drives, id, capability.Read|capability.Write)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("mirrored"), 4<<10)
	if err := obj.WriteAt(testCtx, 0, payload); err != nil {
		t.Fatal(err)
	}

	r.faults[victim].Down()
	update := bytes.Repeat([]byte("DEGRADED"), 2<<10)
	if err := obj.WriteAt(testCtx, 0, update); err != nil {
		t.Fatalf("degraded mirror write: %v", err)
	}
	copy(payload, update)
	got, err := obj.ReadAt(testCtx, 0, len(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("degraded mirror read: %v", err)
	}
	if len(r.mgr.PendingRepairs()) == 0 {
		t.Fatal("skipped replica not in the repair ledger")
	}

	r.faults[victim].Revive()
	drainRepairs(t, r.mgr)
	obj, err = OpenObject(r.mgr, r.drives, id, capability.Read|capability.Write)
	if err != nil {
		t.Fatal(err)
	}
	got, err = obj.ReadAt(testCtx, 0, len(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-repair mirror read: %v", err)
	}
}

// TestCreateRollsBackOnNetworkFault is the save-path rollback under a
// real network fault rather than a destroyed directory object: drive 0
// (which persists the manager's directory) crashes, a Create whose
// components live on other drives fails at the save step, and both the
// descriptor table and the component drives are left clean.
func TestCreateRollsBackOnNetworkFault(t *testing.T) {
	r := newFaultRig(t, 3, ManagerConfig{}, client.RetryPolicy{})
	r.faults[0].Down()
	if _, err := r.mgr.Create(testCtx, Mirror1, 32<<10, 2, 1); err == nil {
		t.Fatal("create succeeded with the directory drive down")
	}
	r.mgr.mu.Lock()
	n := len(r.mgr.objects)
	r.mgr.mu.Unlock()
	if n != 0 {
		t.Fatalf("descriptor table holds %d entries after failed create", n)
	}
	for di := 1; di <= 2; di++ {
		ids, err := r.raw[di].Store().List(r.mgr.Partition())
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 0 {
			t.Fatalf("drive %d still holds orphaned components %v", di, ids)
		}
	}
	// The manager itself must recover once the drive returns.
	r.faults[0].Revive()
	if _, err := r.mgr.Create(testCtx, Mirror1, 32<<10, 2, 1); err != nil {
		t.Fatalf("create after revive: %v", err)
	}
}

// TestReplaceComponentRollsBackOnNetworkFault crashes the directory
// drive mid-repair: the rebuilt replacement object must be cleaned off
// its drive and the descriptor must keep naming the old component.
func TestReplaceComponentRollsBackOnNetworkFault(t *testing.T) {
	r := newFaultRig(t, 4, ManagerConfig{}, client.RetryPolicy{})
	id, err := r.mgr.Create(testCtx, Mirror1, 32<<10, 2, 1) // components on drives 1 and 2
	if err != nil {
		t.Fatal(err)
	}
	obj, err := OpenObject(r.mgr, r.drives, id, capability.Read|capability.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.WriteAt(testCtx, 0, []byte("survives the fault")); err != nil {
		t.Fatal(err)
	}
	before, err := r.mgr.Stat(id)
	if err != nil {
		t.Fatal(err)
	}

	r.faults[0].Down()
	if err := r.mgr.ReplaceComponent(testCtx, id, 0, 3); err == nil {
		t.Fatal("replace succeeded with the directory drive down")
	}
	after, err := r.mgr.Stat(id)
	if err != nil {
		t.Fatal(err)
	}
	if after.Components[0] != before.Components[0] {
		t.Fatalf("component swap not rolled back: %+v -> %+v", before.Components[0], after.Components[0])
	}
	ids, err := r.raw[3].Store().List(r.mgr.Partition())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("drive 3 still holds replacement object %v", ids)
	}
}

// TestCapabilityRenewalMidHandle gives component capabilities a
// lifetime shorter than the handle's: the drive rejects the expired
// capability with the typed status, the object renews at the manager,
// and the caller never sees the expiry.
func TestCapabilityRenewalMidHandle(t *testing.T) {
	r := newFaultRig(t, 2, ManagerConfig{CapExpiry: 100 * time.Millisecond}, client.RetryPolicy{})
	id, err := r.mgr.Create(testCtx, Stripe0, 16<<10, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := OpenObject(r.mgr, r.drives, id, capability.Read|capability.Write)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("renewable"), 1<<10)
	if err := obj.WriteAt(testCtx, 0, data); err != nil {
		t.Fatal(err)
	}

	time.Sleep(150 * time.Millisecond) // outlive the capability set

	got, err := obj.ReadAt(testCtx, 0, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read across capability expiry: %v", err)
	}
	if got := r.reg.Snapshot().Counters["cheops.cap_renewals"]; got == 0 {
		t.Fatal("expiry was never renewed — the test did not exercise renewal")
	}
}
