package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// runParallel stands up one secure in-process drive and hammers it with
// N concurrent client workers, each on its own connection and its own
// object — the drive-side concurrency the fine-grained locking scheme
// exists for. It reports per-phase aggregate throughput and the
// per-layer lock contention counters, so the effect of adding workers
// is visible both as bandwidth and as lock-wait telemetry.
func runParallel(w io.Writer, workers, sizeMB int, jsonOut string) error {
	if workers < 1 {
		return fmt.Errorf("-parallel needs at least 1 worker")
	}
	master := crypt.NewRandomKey()
	reg := telemetry.NewRegistry()
	blocks := int64(workers*sizeMB)*1024 + 8192 // 4 KiB blocks, headroom for metadata
	media := blockdev.Instrument(blockdev.NewMemDisk(4096, blocks), reg)
	drv, err := drive.NewFormat(media, drive.Config{
		ID: 1, Master: master, Secure: true, Metrics: reg, Media: media,
	})
	if err != nil {
		return err
	}
	l := rpc.NewInProcListener("nasdbench-parallel")
	srv := drv.Serve(l, rpc.WithWorkers(workers))
	defer srv.Close()

	ctx, _ := telemetry.WithRequestID(context.Background())
	const part = 1
	setup, err := l.Dial()
	if err != nil {
		return err
	}
	adminCli := client.New(setup, 1, 1)
	defer adminCli.Close()
	if err := adminCli.CreatePartition(ctx, crypt.KeyID{Type: crypt.MasterKey}, master, part, 0); err != nil {
		return err
	}
	keys := crypt.NewHierarchy(master)
	if err := keys.AddPartition(part); err != nil {
		return err
	}
	mint := func(obj, ver uint64, rights capability.Rights) (capability.Capability, error) {
		kid, key, err := keys.CurrentWorkingKey(part)
		if err != nil {
			return capability.Capability{}, err
		}
		return capability.Mint(capability.Public{
			DriveID: 1, Partition: part, Object: obj, ObjVer: ver,
			Rights: rights, Expiry: time.Now().Add(time.Hour).UnixNano(), Key: kid,
		}, key), nil
	}

	// Each worker gets its own connection, object, and data pattern.
	clis := make([]*client.Drive, workers)
	objs := make([]uint64, workers)
	for i := 0; i < workers; i++ {
		conn, err := l.Dial()
		if err != nil {
			return err
		}
		clis[i] = client.New(conn, 1, uint64(100+i))
		defer clis[i].Close()
		cc, err := mint(0, 0, capability.CreateObj)
		if err != nil {
			return err
		}
		objs[i], err = clis[i].Create(ctx, &cc, part)
		if err != nil {
			return err
		}
	}

	run := func(phase string, op func(i int) error) (time.Duration, error) {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		start := time.Now()
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := op(i); err != nil {
					errs <- fmt.Errorf("%s worker %d: %w", phase, i, err)
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return 0, err
		}
		return time.Since(start), nil
	}

	perWorker := sizeMB << 20
	writeDur, err := run("write", func(i int) error {
		data := make([]byte, perWorker)
		for j := range data {
			data[j] = byte(j*31 + i)
		}
		wc, err := mint(objs[i], 1, capability.Write)
		if err != nil {
			return err
		}
		wctx, _ := telemetry.WithRequestID(context.Background())
		return clis[i].WritePipelined(wctx, &wc, part, objs[i], 0, data)
	})
	if err != nil {
		return err
	}
	if err := adminCli.Flush(ctx); err != nil {
		return err
	}
	readDur, err := run("read", func(i int) error {
		rc, err := mint(objs[i], 1, capability.Read)
		if err != nil {
			return err
		}
		rctx, _ := telemetry.WithRequestID(context.Background())
		got, err := clis[i].ReadPipelined(rctx, &rc, part, objs[i], 0, perWorker)
		if err != nil {
			return err
		}
		want := make([]byte, perWorker)
		for j := range want {
			want[j] = byte(j*31 + i)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("read-back mismatch")
		}
		return nil
	})
	if err != nil {
		return err
	}

	total := float64(workers * sizeMB)
	fmt.Fprintf(w, "nasdbench -workload parallel: %d workers x %d MB, distinct objects, one drive\n", workers, sizeMB)
	fmt.Fprintf(w, "  write: %8.1f MB/s aggregate (%v)\n", total/writeDur.Seconds(), writeDur.Round(time.Millisecond))
	fmt.Fprintf(w, "  read:  %8.1f MB/s aggregate (%v)\n", total/readDur.Seconds(), readDur.Round(time.Millisecond))
	fmt.Fprintln(w)
	writeLockTable(w, reg.Snapshot())
	if jsonOut != "" {
		return writeBenchJSON(jsonOut, benchResult{
			Name:   "parallel",
			Config: benchConfig{SizeMB: sizeMB, Workers: workers, Secure: true},
			Throughput: map[string]float64{
				"write": total / writeDur.Seconds(),
				"read":  total / readDur.Seconds(),
			},
			Latency: latencyFromSnapshot(reg.Snapshot()),
		})
	}
	return nil
}

// writeLockTable prints the per-layer lock contention counters the
// store's lock meters publish (see DESIGN.md §4).
func writeLockTable(w io.Writer, snap telemetry.Snapshot) {
	var prefixes []string
	for name := range snap.Counters {
		if strings.HasSuffix(name, ".acquire") && strings.Contains(name, "lock") {
			prefixes = append(prefixes, strings.TrimSuffix(name, ".acquire"))
		}
	}
	sort.Strings(prefixes)
	if len(prefixes) == 0 {
		return
	}
	fmt.Fprintf(w, "lock contention by layer:\n")
	fmt.Fprintf(w, "  %-18s %12s %12s %12s %12s\n", "layer", "acquire", "contended", "wait-p50", "wait-p95")
	for _, p := range prefixes {
		h := snap.Histograms[p+".wait_ns"]
		fmt.Fprintf(w, "  %-18s %12d %12d %12s %12s\n", p,
			snap.Counters[p+".acquire"], snap.Counters[p+".contended"],
			time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.95)))
	}
}
