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
	r, err := newSingleDriveRig(rigConfig{
		dev:    blockdev.NewMemDisk(4096, int64(workers*sizeMB)*1024+8192), // 4 KiB blocks, headroom for metadata
		secure: true, serve: []rpc.ServerOption{rpc.WithWorkers(workers)},
	})
	if err != nil {
		return err
	}
	defer r.close()
	ctx, reg := r.ctx, r.reg

	// Each worker gets its own connection, object, and data pattern.
	clis := make([]*client.Drive, workers)
	objs := make([]uint64, workers)
	for i := 0; i < workers; i++ {
		if clis[i], err = r.dial(uint64(100 + i)); err != nil {
			return err
		}
		defer clis[i].Close()
		cc := r.mint(0, 0, capability.CreateObj)
		objs[i], err = clis[i].Create(ctx, &cc, rigPart)
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
		wc := r.mint(objs[i], 1, capability.Write)
		wctx, _ := telemetry.WithRequestID(context.Background())
		return clis[i].WritePipelined(wctx, &wc, rigPart, objs[i], 0, data)
	})
	if err != nil {
		return err
	}
	if err := r.admin.Flush(ctx); err != nil {
		return err
	}
	readDur, err := run("read", func(i int) error {
		rc := r.mint(objs[i], 1, capability.Read)
		rctx, _ := telemetry.WithRequestID(context.Background())
		got, err := clis[i].ReadPipelined(rctx, &rc, rigPart, objs[i], 0, perWorker)
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
