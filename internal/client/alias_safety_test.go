package client

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/rpc"
)

// TestConcurrentReadsAliasSafety is the pooled-frame lifecycle stress
// test, meant to run under -race (scripts/check.sh runs the whole
// suite that way). Several goroutines hammer overlapping windowed and
// one-request reads of distinct per-object patterns over a real TCP
// connection — so receive frames, reply headers, cache blocks, and
// read buffers are constantly recycled through the buffer pool — while
// every reader asserts its payload is exactly its object's pattern. A
// buffer released too early (still referenced by another request) or
// recycled across requests shows up as a pattern mismatch or a race
// report.
func TestConcurrentReadsAliasSafety(t *testing.T) {
	master := crypt.NewRandomKey()
	// Small cache so reads constantly evict and refill pooled entries.
	dev := blockdev.NewMemDisk(4096, 1<<14)
	drv, err := drive.NewFormat(dev, drive.Config{ID: 11, Master: master, Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := rpc.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := drv.Serve(l)
	defer srv.Close()

	const (
		part    = 1
		objSize = 1 << 20
		readers = 4
		rounds  = 8
	)
	fm := crypt.NewHierarchy(master)
	if err := fm.AddPartition(part); err != nil {
		t.Fatal(err)
	}

	setupConn, err := rpc.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	setup := New(setupConn, 11, 1, WithSecurity(true))
	defer setup.Close()
	ctx := context.Background()
	if err := setup.CreatePartition(ctx, crypt.KeyID{Type: crypt.MasterKey}, master, part, 0); err != nil {
		t.Fatal(err)
	}
	kid, key, _ := fm.CurrentWorkingKey(part)
	mint := func(obj, ver uint64, rights capability.Rights) capability.Capability {
		return capability.Mint(capability.Public{
			DriveID: 11, Partition: part, Object: obj, ObjVer: ver, Rights: rights,
			Expiry: time.Now().Add(time.Hour).UnixNano(), Key: kid,
		}, key)
	}

	// One object per reader, each with a distinct byte pattern.
	pattern := func(id int) []byte {
		p := make([]byte, objSize)
		for i := range p {
			p[i] = byte(id*131 + i*31)
		}
		return p
	}
	cc := mint(0, 0, capability.CreateObj)
	objs := make([]uint64, readers)
	for i := 0; i < readers; i++ {
		obj, err := setup.Create(ctx, &cc, part)
		if err != nil {
			t.Fatal(err)
		}
		wc := mint(obj, 1, capability.Write)
		if err := setup.Write(ctx, &wc, part, obj, 0, pattern(i)); err != nil {
			t.Fatal(err)
		}
		objs[i] = obj
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := rpc.DialTCP(l.Addr())
			if err != nil {
				errs <- err
				return
			}
			cli := New(conn, 11, uint64(100+id), WithSecurity(true))
			defer cli.Close()
			rc := mint(objs[id], 1, capability.Read)
			want := pattern(id)
			dst := make([]byte, objSize)
			for r := 0; r < rounds; r++ {
				// Alternate a windowed Read with one-request ReadIntos,
				// a fragment at a time; both must survive concurrent
				// frame recycling.
				if r%2 == 0 {
					got, err := cli.Read(ctx, &rc, part, objs[id], 0, objSize)
					if err != nil {
						errs <- fmt.Errorf("reader %d round %d: %v", id, r, err)
						return
					}
					if !bytes.Equal(got, want) {
						errs <- fmt.Errorf("reader %d round %d: windowed payload corrupted", id, r)
						return
					}
					continue
				}
				for off := 0; off < objSize; off += DefaultFragmentSize {
					frag := dst[off : off+DefaultFragmentSize]
					n, err := cli.ReadInto(ctx, &rc, part, objs[id], uint64(off), frag)
					if err != nil {
						errs <- fmt.Errorf("reader %d round %d: %v", id, r, err)
						return
					}
					if n != len(frag) || !bytes.Equal(frag, want[off:off+n]) {
						errs <- fmt.Errorf("reader %d round %d: ReadInto payload corrupted at %d (n=%d)", id, r, off, n)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
