package client

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"nasd/internal/capability"
	"nasd/internal/telemetry"
)

// This file implements striped-transfer pipelining over the multiplexed
// RPC connection: a large read or write is split into fragments and up
// to window fragments are kept in flight at once, so the drive's media
// transfer overlaps the SAN transfer of neighbouring fragments (the
// Zebra-style pipelined stripe access the paper's Figure 9 workload
// depends on). A fragment is one request (readOne or writeOne), so it
// is reissued by do() under the handle's retry policy and budget and
// nowhere else; reissues count in the client.retries counter.

// The annotation keys of a window's span.
var (
	keyFrags  = telemetry.NewKey("frags")
	keyWindow = telemetry.NewKey("window")
	keyBytes  = telemetry.NewKey("bytes")
)

// runWindowed splits [0, n) into d.fragSize fragments, fragment i
// covering [i*fragSize, min((i+1)*fragSize, n)), and calls op on each
// with at most d.window in flight: min(window, fragments) workers, the
// k-th started on fragment k, each taking the next index from one
// counter when it is done. The first failure cancels the fragments not
// yet issued and those in flight. It returns
// how many bytes from 0 the fragments returned in full (op's count),
// up to and including the first that came back short, and the first
// real (non-cancellation) error by fragment index, or ctx's error if
// the caller canceled, or the first cancellation. The window gets a
// parent span called name; each fragment's request opens a child via
// ctx, so the timeline shows the fragments overlapping in flight.
func (d *Drive) runWindowed(ctx context.Context, name string, n int, op func(ctx context.Context, start, end int) (int, error)) (int, error) {
	frags := (n + d.fragSize - 1) / d.fragSize
	ctx, sp := d.spans.StartSpan(ctx, name)
	sp.Int(keyFrags, int64(frags))
	sp.Int(keyWindow, int64(d.window))
	sp.Int(keyBytes, int64(n))
	defer sp.End()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// w is what the workers share. fail and canceled are the lowest
	// fragment indexes that failed for real or were canceled, short the
	// lowest that returned short and got its count.
	w := struct {
		next                  atomic.Int64
		wg                    sync.WaitGroup
		mu                    sync.Mutex
		fail, canceled, short int
		failErr, cancelErr    error
		got                   int
	}{fail: frags, canceled: frags, short: frags}
	worker := func(i int) {
		defer w.wg.Done()
		for ; i < frags && cctx.Err() == nil; i = int(w.next.Add(1) - 1) {
			start, end := i*d.fragSize, min((i+1)*d.fragSize, n)
			got, err := op(cctx, start, end)
			w.mu.Lock()
			if err != nil {
				cancel()
				if out, _ := Classify(err); out != Canceled && out != TimedOut {
					if i < w.fail {
						w.fail, w.failErr = i, err
					}
				} else if i < w.canceled {
					w.canceled, w.cancelErr = i, err
				}
			} else if got < end-start && i < w.short {
				w.short, w.got = i, got
			}
			w.mu.Unlock()
		}
	}
	// A worker per fragment of the first window, started in index
	// order, issues the window as a goroutine per fragment did. Taking
	// first fragments from the counter in the order the workers happen
	// to run raised the p99 latency of bench/'s stream_read_512k by 40 %
	// on a 2-CPU host.
	workers := min(d.window, frags)
	w.next.Store(int64(workers))
	w.wg.Add(workers)
	for k := 0; k < workers; k++ {
		go worker(k)
	}
	w.wg.Wait()
	switch {
	case w.failErr != nil:
		return 0, w.failErr
	case ctx.Err() != nil:
		return 0, ctx.Err()
	case w.cancelErr != nil:
		return 0, w.cancelErr
	case w.short < frags:
		return w.short*d.fragSize + w.got, nil
	}
	return n, nil
}

// readChunk bounds what Read allocates before the drive has answered.
// A longer read goes chunk by chunk into a buffer that grows only while
// the object keeps filling whole chunks, so a length far past the
// object's end costs memory in proportion to the bytes the object
// holds, not to the length asked for.
const readChunk = 16 << 20

// Read fetches object bytes [off, off+n) into a buffer of its own, cut
// to what the object held. A negative n is an error and sends nothing.
func (d *Drive) Read(ctx context.Context, cap *capability.Capability, part uint16, obj, off uint64, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("client: read length %d is negative", n)
	}
	out := make([]byte, min(n, readChunk))
	done := 0
	for {
		got, err := d.ReadInto(ctx, cap, part, obj, off+uint64(done), out[done:])
		if err != nil {
			return nil, err
		}
		done += got
		if done < len(out) || len(out) == n {
			return out[:done], nil
		}
		out = append(out, make([]byte, min(n-len(out), readChunk))...)
	}
}

// ReadInto fetches object bytes [off, off+len(dst)) into dst and returns
// how many bytes were read: one request when dst fits in one fragment,
// a window of concurrent fragment reads above that. A range that runs
// past the end of the object reads short, and the count runs up to the
// first fragment that came back short. Once ReadInto returns, error or
// not, nothing writes dst any more.
func (d *Drive) ReadInto(ctx context.Context, cap *capability.Capability, part uint16, obj, off uint64, dst []byte) (int, error) {
	if len(dst) <= d.fragSize {
		return d.readOne(ctx, cap, part, obj, off, dst)
	}
	return d.runWindowed(ctx, "client.read_pipelined", len(dst), func(cctx context.Context, start, end int) (int, error) {
		return d.readOne(cctx, cap, part, obj, off+uint64(start), dst[start:end])
	})
}

// Write stores data at off: one request when data fits in one fragment,
// a window of concurrent fragment writes above that. Fragments cover
// disjoint ranges, so completion order does not affect the final
// contents; after an error the write may have landed partially, exactly
// like a torn serial write.
func (d *Drive) Write(ctx context.Context, cap *capability.Capability, part uint16, obj, off uint64, data []byte) error {
	if len(data) <= d.fragSize {
		return d.writeOne(ctx, cap, part, obj, off, data)
	}
	_, err := d.runWindowed(ctx, "client.write_pipelined", len(data), func(cctx context.Context, start, end int) (int, error) {
		return end - start, d.writeOne(cctx, cap, part, obj, off+uint64(start), data[start:end])
	})
	return err
}

// ReadPipelined is Read; bench/ is its only caller.
func (d *Drive) ReadPipelined(ctx context.Context, cap *capability.Capability, part uint16, obj, off uint64, n int) ([]byte, error) {
	return d.Read(ctx, cap, part, obj, off, n)
}

// WritePipelined is Write; bench/ is its only caller.
func (d *Drive) WritePipelined(ctx context.Context, cap *capability.Capability, part uint16, obj, off uint64, data []byte) error {
	return d.Write(ctx, cap, part, obj, off, data)
}
