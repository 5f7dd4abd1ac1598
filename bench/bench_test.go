package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/telemetry"
)

// smokeConfig runs a workload at a sixteenth of its size, so that five
// set-ups on the modelled medium fit a unit test. The data set still
// outgrows the cache by the same factor.
func smokeConfig(seconds time.Duration) config {
	return config{seed: 7, seconds: seconds, warmup: 50 * time.Millisecond, scale: 16, setups: 1}
}

// TestManifest holds BENCHMARK.json to what the program measures.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(mf.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if mf.Workloads[i].Name != wl.name || mf.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, mf.Workloads[i].Name, mf.Workloads[i].Why, wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("workload %s: why is %d characters", wl.name, len(wl.why))
		}
	}
	if len(mf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(mf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := mf.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("end_to_end %d: BENCHMARK.json has %v, the program %v", i, got, d)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", d.name, got.Bound)
		}
	}
	if len(mf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(mf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := mf.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %v, the program %v", i, got, d)
		}
	}
}

// TestSmoke runs every workload through both passes and checks that
// each metric of BENCHMARK.json comes out, that every op verified, and
// that the layers report no error, retry or degraded op.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, wl := range workloads {
		e2e, err := runEndToEnd(ctx, wl, smokeConfig(300*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if err := printResult(new(bytes.Buffer), e2e, endToEnd); err != nil {
			t.Error(err)
		}
		if !e2e.correct || e2e.values["ok_ratio"] != 1 {
			t.Errorf("%s: ok_ratio %v, %d of %d failed: %v", wl.name, e2e.values["ok_ratio"], e2e.failed, e2e.attempted, e2e.firstErr)
		}
		for _, d := range endToEnd {
			if e2e.values[d.name] <= 0 {
				t.Errorf("%s: %s = %v, want above 0", wl.name, d.name, e2e.values[d.name])
			}
		}

		// 100 ms untraced for the base rate, 100 ms traced.
		layers, err := runTraced(ctx, wl, smokeConfig(200*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if err := printResult(new(bytes.Buffer), layers, perLayer); err != nil {
			t.Error(err)
		}
		if !layers.correct {
			t.Errorf("%s: traced pass: %d of %d failed: %v", wl.name, layers.failed, layers.attempted, layers.firstErr)
		}
		zero := []string{"drive.errors", "client.retries", "cheops.degraded_ops"}
		// The two read-only workloads give every pooled buffer back. The
		// others do not, which is the program's doing (see README.md,
		// findings), so the benchmark reports it and the test lets it be.
		if wl.name == "small_read_8k" || wl.name == "stream_read_512k" {
			zero = append(zero, "bufpool.outstanding_end")
		}
		for _, name := range zero {
			if v := layers.values[name]; v != 0 {
				t.Errorf("%s: %s = %v, want 0", wl.name, name, v)
			}
		}
		if layers.values["client.samples"] < 1 || layers.values["client.rpcs_per_op"] < 1 {
			t.Errorf("%s: traced pass saw %v ops, %v rpcs per op", wl.name, layers.values["client.samples"], layers.values["client.rpcs_per_op"])
		}
	}
}

// TestCorruptBlockLowersOkRatio damages one data block on the medium
// and expects the verification to notice.
func TestCorruptBlockLowersOkRatio(t *testing.T) {
	cfg := smokeConfig(100 * time.Millisecond)
	corrupted := false
	cfg.corrupt = func(st stepper) {
		// The first block of object 0 is the one whose bytes are the
		// start of its pattern; the populate has flushed it.
		want := make([]byte, blockSize)
		fill(want, streamKey(cfg.seed, 0), 0)
		mem := st.base().drives[0].mem
		got := make([]byte, blockSize)
		for b := int64(0); b < mem.Blocks(); b++ {
			if err := mem.ReadBlock(b, got); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, want) {
				got[100] ^= 0xff
				if err := mem.WriteBlock(b, got); err != nil {
					t.Fatal(err)
				}
				corrupted = true
				return
			}
		}
	}
	res, err := runEndToEnd(context.Background(), workloads[1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !corrupted {
		t.Fatal("no block on the medium holds the start of object 0")
	}
	if res.correct || res.failed == 0 || res.values["ok_ratio"] >= 1 {
		t.Errorf("corrupt block went unnoticed: correct=%v failed=%d ok_ratio=%v", res.correct, res.failed, res.values["ok_ratio"])
	}
}

// TestInterposerFidelity checks that the interposers leave the program's
// own counts alone: a ranged read still reaches the device as one range,
// and a fixed op sequence moves the registry exactly as it does with
// nothing interposed.
func TestInterposerFidelity(t *testing.T) {
	for _, tr := range []*tracer{nil, newTracer(16)} {
		reg := telemetry.NewRegistry()
		var dev blockdev.Device = blockdev.NewMemDisk(blockSize, 64)
		if tr != nil {
			tr.on.Store(true)
			dev = tr.wrapDevice(dev, 0)
		}
		idev := blockdev.Instrument(dev, reg)
		if err := blockdev.ReadBlocks(idev, 8, make([]byte, 8*blockSize)); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if blocks, calls := snap.Counters["blockdev.reads"], snap.Histograms["blockdev.read_ns"].Count; blocks != 8 || calls != 1 {
			t.Errorf("wrapped=%v: an 8-block range was counted as %d blocks in %d calls", tr != nil, blocks, calls)
		}
		if tr != nil && len(tr.recorded()) != 1 {
			t.Errorf("an 8-block range reached the device under the wrapper as %d calls", len(tr.recorded()))
		}
	}

	ctx := context.Background()
	const ops = 400
	for _, wl := range []workload{workloads[0], workloads[4]} {
		var counts [2]map[string]uint64
		for i, tr := range []*tracer{nil, newTracer(1 << 16)} {
			st, err := wl.build(ctx, 7, tr, 16)
			if err != nil {
				t.Fatal(err)
			}
			if tr != nil {
				tr.on.Store(true)
			}
			m := &meter{}
			for op := 0; op < ops; op++ {
				st.step(ctx, m, op)
				if !m.done() {
					t.Fatalf("%s: op %d: %v", wl.name, op, m.firstErr)
				}
			}
			counts[i] = st.base().snapshot().Counters
			st.base().close()
			if tr != nil && len(tr.recorded()) < ops {
				t.Errorf("%s: %d ops left %d spans", wl.name, ops, len(tr.recorded()))
			}
		}
		for _, name := range []string{"blockdev.reads", "blockdev.writes", "rpc.server.requests", "rpc.client.calls"} {
			if counts[0][name] != counts[1][name] {
				t.Errorf("%s: %s is %d with nothing interposed and %d with the interposers", wl.name, name, counts[0][name], counts[1][name])
			}
		}
		if counts[0]["rpc.server.requests"] < ops {
			t.Errorf("%s: %d ops made %d requests", wl.name, ops, counts[0]["rpc.server.requests"])
		}
	}
}

func TestSpanAnalysis(t *testing.T) {
	// One op on drive 0: a 100 ns root, one rpc on the wire from 10 to
	// 90, through qos from 20 to 80, in the drive from 30 to 70, with
	// one device call from 40 to 60.
	spans := []span{
		{start: 10, end: 90, op: 1, msg: 5, kind: spanWire},
		{start: 20, end: 80, op: 1, msg: 5, kind: spanOuter},
		{start: 30, end: 70, op: 1, msg: 5, kind: spanInner},
		{start: 40, end: 60, kind: spanDev},
		{start: 0, end: 100, op: 1, drive: -1, kind: spanOp},
	}
	st := analyse(spans)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"client self", st.clientSelfPerOp, 0.020},
		{"rpc self", st.rpcSelfPerRPC, 0.020},
		{"qos self", st.qosSelfPerRPC, 0.020},
		{"drive handle", st.handlePerRPC, 0.040},
		{"drive self", st.driveSelfPerRPC, 0.020},
		{"device busy", st.devBusyPerOp, 0.020},
	} {
		if c.got != c.want {
			t.Errorf("%s: %v us, want %v", c.name, c.got, c.want)
		}
	}
	if want := []int32{4, 0, 1, 2, -1}; !slices.Equal(st.parents, want) {
		t.Errorf("parents %v, want %v", st.parents, want)
	}
}
