// Activedisk: Section 6's Active Disks — the frequent-sets kernel
// executes on the drives, so only count vectors cross the network.
//
// The example distributes a transaction dataset across four drives,
// runs the same pass-1 counting both ways — shipping the data to the
// client versus shipping the code to the drives — verifies the results
// agree, and reports how many bytes each approach moved.
//
// Run with: go run ./examples/activedisk
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"
	"time"

	"nasd/internal/active"
	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/mining"
	"nasd/internal/rpc"
)

const (
	nDrives = 4
	catalog = 300
	perMB   = 8
)

func main() {
	ctx := context.Background()
	var targets []active.Target
	var clis []*client.Drive
	var shares [][]byte
	want := make([]uint32, catalog)

	for i := 0; i < nDrives; i++ {
		master := crypt.NewRandomKey()
		dev := blockdev.NewMemDisk(4096, 32768)
		drv, err := drive.NewFormat(dev, drive.Config{ID: uint64(1 + i), Master: master, Secure: true})
		if err != nil {
			log.Fatal(err)
		}
		active.Register(drv) // install the on-drive kernel
		if err := drv.Store().CreatePartition(1, 0); err != nil {
			log.Fatal(err)
		}
		if err := drv.Keys().AddPartition(1); err != nil {
			log.Fatal(err)
		}

		// Each drive holds its share of the transactions.
		share := mining.Generate(mining.GenConfig{
			CatalogSize: catalog, MeanItems: 8,
			TotalBytes: perMB << 20, Seed: int64(100 + i),
		})
		shares = append(shares, share)
		mining.CountItems(share, want)
		obj, err := drv.Store().Create(1)
		if err != nil {
			log.Fatal(err)
		}
		if err := drv.Store().Write(1, obj, 0, share); err != nil {
			log.Fatal(err)
		}

		l := rpc.NewInProcListener(fmt.Sprintf("drive%d", i))
		srv := drv.Serve(l)
		defer srv.Close()
		conn, err := l.Dial()
		if err != nil {
			log.Fatal(err)
		}
		cli := client.New(conn, uint64(1+i), uint64(50+i))
		clis = append(clis, cli)

		kid, key, err := drv.Keys().CurrentWorkingKey(1)
		if err != nil {
			log.Fatal(err)
		}
		cap := capability.Mint(capability.Public{
			DriveID: uint64(1 + i), Partition: 1, Object: obj, ObjVer: 1,
			Rights: capability.Read | capability.GetAttr,
			Expiry: time.Now().Add(time.Hour).UnixNano(), Key: kid,
		}, key)
		targets = append(targets, active.Target{Drive: cli, Cap: cap, Partition: 1, Object: obj})
	}
	total := nDrives * perMB << 20
	fmt.Printf("%d drives, %d MB of transactions total\n", nDrives, total>>20)

	// Conventional way: pull every byte to the client and count there.
	start := time.Now()
	clientCounts := make([]uint32, catalog)
	var moved int64
	for i, tgt := range targets {
		for off := uint64(0); off < uint64(len(shares[i])); off += mining.ChunkSize {
			n := mining.ChunkSize
			if off+uint64(n) > uint64(len(shares[i])) {
				n = int(uint64(len(shares[i])) - off)
			}
			chunk, err := clis[i].Read(ctx, &tgt.Cap, 1, tgt.Object, off, n)
			if err != nil {
				log.Fatal(err)
			}
			moved += int64(len(chunk))
			mining.CountItems(chunk, clientCounts)
		}
	}
	fmt.Printf("client-side scan: %d MB crossed the network in %v\n", moved>>20, time.Since(start).Round(time.Millisecond))

	// Active Disks way: ship the kernel, pull only count vectors.
	start = time.Now()
	driveCounts, err := active.Scan(ctx, targets, catalog)
	if err != nil {
		log.Fatal(err)
	}
	resultBytes := nDrives * catalog * 4
	fmt.Printf("active-disk scan: %d KB crossed the network in %v (%.0fx reduction)\n",
		resultBytes>>10, time.Since(start).Round(time.Millisecond),
		float64(moved)/float64(resultBytes))

	if !reflect.DeepEqual(clientCounts, driveCounts) || !reflect.DeepEqual(driveCounts, want) {
		log.Fatal("count mismatch between client-side and on-drive scans")
	}
	fmt.Println("counts agree; active disk example complete")
}
