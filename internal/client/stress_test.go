package client

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"nasd/internal/capability"
)

// TestConcurrentClientsOneDrive hammers a single secure drive with
// several concurrent clients doing mixed operations (create, write,
// read, attr, snapshot, remove). Run under -race this exercises the
// locking of the object store, cache, layout, and RPC mux together.
func TestConcurrentClientsOneDrive(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)

	const nWorkers = 6
	const opsPerWorker = 30
	var wg sync.WaitGroup
	errs := make([]error, nWorkers)
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = func() error {
				// Each worker gets its own connection (its own nonce
				// counter) but shares the drive.
				conn, err := r.listener.Dial()
				if err != nil {
					return err
				}
				cli := New(conn, 7, uint64(3000+w))
				defer cli.Close()

				createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
				payload := bytes.Repeat([]byte{byte(w)}, 8192)
				for i := 0; i < opsPerWorker; i++ {
					obj, err := cli.Create(testCtx, &createCap, 1)
					if err != nil {
						return fmt.Errorf("create: %w", err)
					}
					rw := r.mint(t, 1, obj, 1, capability.Read|capability.Write|capability.GetAttr|capability.Version|capability.Remove)
					if err := cli.Write(testCtx, &rw, 1, obj, 0, payload); err != nil {
						return fmt.Errorf("write: %w", err)
					}
					got, err := cli.Read(testCtx, &rw, 1, obj, 0, len(payload))
					if err != nil {
						return fmt.Errorf("read: %w", err)
					}
					if !bytes.Equal(got, payload) {
						return fmt.Errorf("worker %d object %d corrupted", w, obj)
					}
					if i%5 == 0 {
						snap, err := cli.VersionObject(testCtx, &rw, 1, obj)
						if err != nil {
							return fmt.Errorf("snapshot: %w", err)
						}
						sc := r.mint(t, 1, snap, 1, capability.Read|capability.Remove)
						sg, err := cli.Read(testCtx, &sc, 1, snap, 0, 16)
						if err != nil || !bytes.Equal(sg, payload[:16]) {
							return fmt.Errorf("snapshot read: %w", err)
						}
						if err := cli.Remove(testCtx, &sc, 1, snap); err != nil {
							return fmt.Errorf("snapshot remove: %w", err)
						}
					}
					if i%3 == 0 {
						if err := cli.Remove(testCtx, &rw, 1, obj); err != nil {
							return fmt.Errorf("remove: %w", err)
						}
					}
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
	// The partition is consistent afterwards: usage accounting matches
	// a fresh scan of the surviving objects.
	p, err := r.drv.Store().GetPartition(1)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := r.drv.Store().List(1)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(ids)) != p.ObjectCount {
		t.Fatalf("object count %d != listed %d", p.ObjectCount, len(ids))
	}
	if p.UsedBlocks < 0 {
		t.Fatalf("negative usage: %d", p.UsedBlocks)
	}
}

// TestConcurrentWritersShareCapability runs writers that share one
// capability, and so one cached signer on each side: the client's, which
// signs, and the drive's, which verifies. Payload tags are computed
// outside the signer's digest lock, so under -race this checks that
// tagging touches no shared mutable state, and the read-back checks that
// no writer's tag or digest was computed over another's payload.
func TestConcurrentWritersShareCapability(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	obj, err := r.cli.Create(testCtx, &createCap, 1)
	if err != nil {
		t.Fatal(err)
	}
	rw := r.mint(t, 1, obj, 1, capability.Read|capability.Write)
	conn, err := r.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	other := New(conn, 7, 1002)
	defer other.Close()

	const writers, rounds, region = 4, 8, 16 << 10
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli := r.cli
			if w%2 == 1 {
				cli = other
			}
			for i := 0; i < rounds; i++ {
				payload := bytes.Repeat([]byte{byte(w*rounds + i)}, region)
				if err := cli.Write(testCtx, &rw, 1, obj, uint64(w*region), payload); err != nil {
					errs[w] = fmt.Errorf("writer %d round %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.cli.Read(testCtx, &rw, 1, obj, 0, writers*region)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		want := bytes.Repeat([]byte{byte(w*rounds + rounds - 1)}, region)
		if !bytes.Equal(got[w*region:(w+1)*region], want) {
			t.Fatalf("writer %d's region does not hold its last payload", w)
		}
	}
}
