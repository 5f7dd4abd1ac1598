package cheops

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"nasd/internal/bufpool"
	"nasd/internal/capability"
	"nasd/internal/client"
)

// poolSlack is how far bufpool.Outstanding may drift over a measured
// loop: the pool is process-wide, and a drive recycles a reply's buffer
// just after the client has seen the reply, so a few are in flight.
const poolSlack = 16

// TestDataPathRecyclesBuffers: a read's legs land in the caller's
// result and a read-modify-write's pre-reads and parity in pooled
// buffers that go back, so the pool's outstanding count stays where it
// was over a thousand reads and a thousand one-unit writes, on RAID 5
// and on mirrors, healthy or degraded.
func TestDataPathRecyclesBuffers(t *testing.T) {
	const unit = 16 << 10
	for _, tc := range []struct {
		name    string
		pattern Pattern
		width   int
		stripe  int // logical bytes per stripe
	}{
		{"raid5", RAID5, 4, 3 * unit},
		{"mirror", Mirror1, 2, unit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tc.width)
			id, err := r.mgr.Create(testCtx, tc.pattern, unit, tc.width, 0)
			if err != nil {
				t.Fatal(err)
			}
			obj, err := OpenObject(r.mgr, r.drives, id, capability.Read|capability.Write)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(19))
			const stripes = 8
			model := make([]byte, stripes*tc.stripe)
			rng.Read(model)
			if err := obj.WriteAt(testCtx, 0, model); err != nil {
				t.Fatal(err)
			}
			chunk := make([]byte, unit)
			round := func() {
				t.Helper()
				off := rng.Intn(stripes) * tc.stripe
				got, err := obj.ReadAt(testCtx, uint64(off), tc.stripe)
				if err != nil || !bytes.Equal(got, model[off:off+tc.stripe]) {
					t.Fatalf("read of stripe at %d: %v", off, err)
				}
				off = rng.Intn(len(model)/unit) * unit
				rng.Read(chunk)
				if err := obj.WriteAt(testCtx, uint64(off), chunk); err != nil {
					t.Fatalf("write of unit at %d: %v", off, err)
				}
				copy(model[off:], chunk)
			}
			measure := func(what string, rounds int) {
				t.Helper()
				round() // warm the pool's size classes and the drives' caches
				before := bufpool.Outstanding()
				for i := 0; i < rounds; i++ {
					round()
				}
				if grew := bufpool.Outstanding() - before; grew > poolSlack {
					t.Fatalf("%s: bufpool.Outstanding grew by %d over %d stripe reads and %d unit writes", what, grew, rounds, rounds)
				}
			}
			measure("healthy", 1000)
			// One component's drive goes away: its reads are rebuilt from
			// the survivors, its writes skipped into the ledger.
			r.drives[obj.Desc().Components[0].Drive].Close()
			measure("degraded", 100)
			if r.mgr.Metrics().Counter("cheops.degraded_reads").Load() == 0 {
				t.Fatal("no read went degraded")
			}
		})
	}
}

// TestReplaceComponentRecyclesBuffers: a rebuild reads every chunk into
// one buffer and xors the survivors out of pooled ones. What the pool
// has outstanding afterwards is the rebuilt component's blocks in the
// new drive's cache, not a frame per survivor per chunk on top.
func TestReplaceComponentRecyclesBuffers(t *testing.T) {
	const unit = 16 << 10
	for _, tc := range []struct {
		name      string
		pattern   Pattern
		width     int
		component int // bytes a component holds
	}{
		{"raid5", RAID5, 4, 1 << 20},
		{"mirror", Mirror1, 2, 3 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tc.width+1)
			id, err := r.mgr.Create(testCtx, tc.pattern, unit, tc.width, 0)
			if err != nil {
				t.Fatal(err)
			}
			obj, err := OpenObject(r.mgr, r.drives, id, capability.Read|capability.Write)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 3<<20)
			rand.New(rand.NewSource(23)).Read(data)
			if err := obj.WriteAt(testCtx, 0, data); err != nil {
				t.Fatal(err)
			}
			before := bufpool.Outstanding()
			if err := r.mgr.ReplaceComponent(testCtx, id, 1, tc.width); err != nil {
				t.Fatal(err)
			}
			cached := int64(tc.component / 4096)
			if grew := bufpool.Outstanding() - before; grew > cached+poolSlack {
				t.Fatalf("bufpool.Outstanding grew by %d over a rebuild that caches %d blocks", grew, cached)
			}
			obj2, err := OpenObject(r.mgr, r.drives, id, capability.Read)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := obj2.ReadAt(testCtx, 0, len(data)); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read after rebuild: %v", err)
			}
		})
	}
}

// TestShortComponentReadsZeros: a component object that ends before the
// range asked of it (a stripe whose other lanes were never written)
// yields zeros for the rest, also into a buffer that held something
// else: the legs fill the caller's memory, they do not allocate it.
func TestShortComponentReadsZeros(t *testing.T) {
	const unit = 8 << 10
	r := newRig(t, 4)
	id, err := r.mgr.Create(testCtx, RAID5, unit, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := OpenObject(r.mgr, r.drives, id, capability.Read|capability.Write)
	if err != nil {
		t.Fatal(err)
	}
	// Half a unit on the first data lane of stripe 0: that component and
	// the parity hold 4 KiB, the two other lanes nothing.
	half := bytes.Repeat([]byte{0x5C}, unit/2)
	if err := obj.WriteAt(testCtx, 0, half); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Clone(half), make([]byte, unit/2)...)
	for comp := range obj.Desc().Components {
		dst := bytes.Repeat([]byte{0xAA}, unit)
		if err := obj.readComponent(testCtx, comp, 0, dst, 0); err != nil {
			t.Fatal(err)
		}
		if comp == obj.parityIndex(0) || comp == 1 { // stripe 0: parity on 0, first data lane on 1
			if !bytes.Equal(dst, want) {
				t.Fatalf("component %d: short read did not zero its tail", comp)
			}
		} else if !bytes.Equal(dst, make([]byte, unit)) {
			t.Fatalf("component %d: read of an empty component left garbage", comp)
		}
	}
	got, err := obj.ReadAt(testCtx, 0, 3*unit)
	if err != nil || !bytes.Equal(got[:unit], want) || !bytes.Equal(got[unit:], make([]byte, 2*unit)) {
		t.Fatalf("stripe read over short components: %v", err)
	}
	// The same through reconstruction: with the first data lane gone its
	// range is the xor of three survivors, two of them empty.
	r.drives[obj.Desc().Components[1].Drive].Close()
	dst := bytes.Repeat([]byte{0xAA}, unit)
	if err := obj.readComponent(testCtx, 1, 0, dst, 0); err != nil || !bytes.Equal(dst, want) {
		t.Fatalf("reconstruction over short survivors: %v", err)
	}
}

// TestTimedOutLegLeavesPooledBuffersAlone: a leg whose attempts run
// into the handle's AttemptTimeout has stopped touching its buffer by
// the time it returns, so the read-modify-write that follows may take
// the same pooled buffers at once. Every send to one drive is held for
// longer than an attempt may take, so each attempt gives up before its
// request even reaches the drive, and the reply lands after that. On
// each object the first write that meets the slow drive times out on a
// pre-read (served by reconstruction into the pooled buffer) and on a
// write leg (skipped into the ledger, which keeps later operations on
// that object off the lane), the next object's write starts
// immediately, and every read-back still matches the model (run under
// -race). A call gives up on a deadline that passed during its send
// (rpc.Client.Call), so exactly one pre-read per object is
// reconstructed; four attempts per leg keep a healthy drive that is
// briefly slow under load from failing a leg of its own.
func TestTimedOutLegLeavesPooledBuffersAlone(t *testing.T) {
	const unit, stripe, victim, objects = 8 << 10, 3 * (8 << 10), 2, 6
	// No breaker: every leg to the victim is really sent, and times out.
	r := newFaultRig(t, 4, ManagerConfig{FailThreshold: 1 << 20},
		client.RetryPolicy{MaxAttempts: 4, AttemptTimeout: 25 * time.Millisecond})
	rng := rand.New(rand.NewSource(29))
	objs := make([]*Object, objects)
	models := make([][]byte, objects)
	for i := range objs {
		id, err := r.mgr.Create(testCtx, RAID5, unit, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if objs[i], err = OpenObject(r.mgr, r.drives, id, capability.Read|capability.Write); err != nil {
			t.Fatal(err)
		}
		models[i] = make([]byte, 4*stripe)
		rng.Read(models[i])
		if err := objs[i].WriteAt(testCtx, 0, models[i]); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		for i, obj := range objs {
			got, err := obj.ReadAt(testCtx, 0, len(models[i]))
			if err != nil || !bytes.Equal(got, models[i]) {
				t.Fatalf("%s: object %d reads back different from its model: %v", when, i, err)
			}
		}
	}
	r.faults[victim].Delay(30 * time.Millisecond)
	before := r.mgr.Metrics().Counter("cheops.degraded_reads").Load()
	chunk := make([]byte, unit)
	for i, obj := range objs {
		// Component 2 is the second data lane of stripe 0 and the parity
		// of stripe 2: the slow drive is met as either, in turn.
		off := []int{unit, 2 * stripe}[i%2]
		rng.Read(chunk)
		if err := obj.WriteAt(testCtx, uint64(off), chunk); err != nil {
			t.Fatalf("object %d: write of unit at %d: %v", i, off, err)
		}
		copy(models[i][off:], chunk)
	}
	if got := r.mgr.Metrics().Counter("cheops.degraded_reads").Load() - before; got != objects {
		t.Fatalf("%d pre-reads timed out and were reconstructed, want one per object (%d)", got, objects)
	}
	check("slow drive")
	r.faults[victim].Delay(0)
	check("drive fast again")
}
