package client

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"nasd/internal/capability"
)

// This file implements striped-transfer pipelining over the multiplexed
// RPC connection: a large read or write is split into fragments and up
// to window fragments are kept in flight at once, so the drive's media
// transfer overlaps the SAN transfer of neighbouring fragments (the
// Zebra-style pipelined stripe access the paper's Figure 9 workload
// depends on). A fragment is one request (readOne or writeOne), so it
// is reissued by do() under the handle's retry policy and budget and
// nowhere else; reissues count in the client.retries counter.

// fragPlan describes one fragment of a pipelined transfer.
type fragPlan struct {
	index int
	off   uint64 // object offset
	start int    // offset into the caller's buffer
	n     int
}

// planFragments splits [0, n) into fragSize pieces.
func planFragments(off uint64, n, fragSize int) []fragPlan {
	frags := make([]fragPlan, 0, (n+fragSize-1)/fragSize)
	for start := 0; start < n; start += fragSize {
		fn := n - start
		if fn > fragSize {
			fn = fragSize
		}
		frags = append(frags, fragPlan{index: len(frags), off: off + uint64(start), start: start, n: fn})
	}
	return frags
}

// runWindowed executes op over frags with at most d.window in flight,
// canceling the remainder after the first failure. It returns the first
// real (non-cancellation) error, or ctx's error if the caller canceled.
// The window gets a parent span called name; each fragment's request
// opens a child via ctx, so the timeline shows the fragments
// overlapping in flight.
func (d *Drive) runWindowed(ctx context.Context, name string, frags []fragPlan, bytes int, op func(ctx context.Context, f fragPlan) error) error {
	ctx, sp := d.spans.StartSpan(ctx, name)
	sp.Annotate("frags", strconv.Itoa(len(frags)))
	sp.Annotate("window", strconv.Itoa(d.window))
	sp.Annotate("bytes", strconv.Itoa(bytes))
	defer sp.End()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(frags))
	sem := make(chan struct{}, d.window)
	var wg sync.WaitGroup
	for _, f := range frags {
		if cctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(f fragPlan) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := op(cctx, f); err != nil {
				errs[f.index] = err
				cancel()
			}
		}(f)
	}
	wg.Wait()
	var firstCancel error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if out, _ := Classify(err); out == Canceled || out == TimedOut {
			if firstCancel == nil {
				firstCancel = err
			}
			continue
		}
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstCancel
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
	frags := planFragments(off, len(dst), d.fragSize)
	got := make([]int, len(frags))
	err := d.runWindowed(ctx, "client.read_pipelined", frags, len(dst), func(cctx context.Context, f fragPlan) error {
		n, err := d.readOne(cctx, cap, part, obj, f.off, dst[f.start:f.start+f.n])
		got[f.index] = n
		return err
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for i, f := range frags {
		total += got[i]
		if got[i] < f.n {
			break
		}
	}
	return total, nil
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
	frags := planFragments(off, len(data), d.fragSize)
	return d.runWindowed(ctx, "client.write_pipelined", frags, len(data), func(cctx context.Context, f fragPlan) error {
		return d.writeOne(cctx, cap, part, obj, f.off, data[f.start:f.start+f.n])
	})
}

// ReadPipelined is Read; bench/ is its only caller.
func (d *Drive) ReadPipelined(ctx context.Context, cap *capability.Capability, part uint16, obj, off uint64, n int) ([]byte, error) {
	return d.Read(ctx, cap, part, obj, off, n)
}

// WritePipelined is Write; bench/ is its only caller.
func (d *Drive) WritePipelined(ctx context.Context, cap *capability.Capability, part uint16, obj, off uint64, data []byte) error {
	return d.Write(ctx, cap, part, obj, off, data)
}
