package cheops

import (
	"bytes"
	"fmt"
	"math/rand"
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
// attempts of at most 250 ms each.
type faultRig struct {
	mgr    *Manager
	drives []*client.Drive
	raw    []*drive.Drive
	faults []*rpc.Faults
	reg    *telemetry.Registry
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
		dev := blockdev.NewMemDisk(4096, 16384)
		drv, err := drive.NewFormat(dev, drive.Config{ID: uint64(1 + i), Master: master, Secure: true})
		if err != nil {
			t.Fatal(err)
		}
		r.raw = append(r.raw, drv)
		l := rpc.NewInProcListener(fmt.Sprintf("fd%d", i))
		srv := drv.Serve(l)
		t.Cleanup(srv.Close)
		f := rpc.NewFaults(int64(1 + i))
		r.faults = append(r.faults, f)
		dial := func() (rpc.Conn, error) { return f.Dial(l.Dial) }
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

// TestChaosSeverReviveRepair is the acceptance scenario: one of four
// drives is crashed while striped traffic runs, every operation during
// the outage must complete with correct data via the degraded paths,
// and after revival the repair ledger drains, the breaker recloses,
// and full redundancy is restored.
func TestChaosSeverReviveRepair(t *testing.T) {
	const victim = 2
	// Threshold 1: with a single object, the victim's lane enters the
	// repair ledger on its first failed write and all later traffic
	// skips the lane, so the breaker sees few failures. A fleet of
	// objects (the nasdbench -workload chaos soak) trips the default threshold.
	r := newFaultRig(t, 4, ManagerConfig{FailThreshold: 1}, client.RetryPolicy{})
	id, err := r.mgr.Create(testCtx, RAID5, 16<<10, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := OpenObject(r.mgr, r.drives, id, capability.Read|capability.Write)
	if err != nil {
		t.Fatal(err)
	}

	model := make([]byte, 256<<10)
	rng := rand.New(rand.NewSource(11))
	rng.Read(model)
	if err := obj.WriteAt(testCtx, 0, model); err != nil {
		t.Fatal(err)
	}

	soak := func(rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			n := 1 + rng.Intn(48<<10)
			off := rng.Intn(len(model) - n + 1)
			chunk := make([]byte, n)
			rng.Read(chunk)
			if err := obj.WriteAt(testCtx, uint64(off), chunk); err != nil {
				t.Fatalf("round %d write [%d,%d): %v", i, off, off+n, err)
			}
			copy(model[off:], chunk)
			roff := rng.Intn(len(model) - n + 1)
			got, err := obj.ReadAt(testCtx, uint64(roff), n)
			if err != nil {
				t.Fatalf("round %d read [%d,%d): %v", i, roff, roff+n, err)
			}
			if !bytes.Equal(got, model[roff:roff+n]) {
				t.Fatalf("round %d read [%d,%d) does not match model", i, roff, roff+n)
			}
		}
	}

	soak(10) // healthy

	r.faults[victim].Down()
	soak(20) // every op must survive the outage on redundancy
	if st := r.mgr.DriveHealth(victim); st == BreakerClosed {
		t.Fatal("victim's breaker never opened during the outage")
	}
	if len(r.mgr.PendingRepairs()) == 0 {
		t.Fatal("no pending repairs recorded from degraded writes")
	}

	r.faults[victim].Revive()
	deadline := time.Now().Add(10 * time.Second)
	for len(r.mgr.PendingRepairs()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("repair ledger stuck: %+v", r.mgr.PendingRepairs())
		}
		r.mgr.RepairAll(testCtx)
		time.Sleep(10 * time.Millisecond)
	}
	if st := r.mgr.DriveHealth(victim); st != BreakerClosed {
		t.Fatalf("breaker %v after successful repair, want closed", st)
	}

	// The repair moved the victim's component to a fresh object; the
	// old handle keeps reading correctly (via reconstruction) but a
	// reopened handle serves all lanes directly.
	got, err := obj.ReadAt(testCtx, 0, len(model))
	if err != nil || !bytes.Equal(got, model) {
		t.Fatalf("stale handle read after repair: %v", err)
	}
	obj, err = OpenObject(r.mgr, r.drives, id, capability.Read|capability.Write)
	if err != nil {
		t.Fatal(err)
	}
	soak(10) // recovered

	got, err = obj.ReadAt(testCtx, 0, len(model))
	if err != nil || !bytes.Equal(got, model) {
		t.Fatalf("final verification failed: %v", err)
	}

	snap := r.reg.Snapshot()
	for _, c := range []string{"client.retries", "cheops.failovers", "cheops.degraded_writes", "cheops.degraded_reads", "cheops.breaker_opens"} {
		if snap.Counters[c] == 0 {
			t.Errorf("counter %s did not advance; counters = %v", c, snap.Counters)
		}
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
	deadline := time.Now().Add(10 * time.Second)
	for len(r.mgr.PendingRepairs()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("repair ledger stuck: %+v", r.mgr.PendingRepairs())
		}
		r.mgr.RepairAll(testCtx)
		time.Sleep(10 * time.Millisecond)
	}
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
