package qos

import (
	"testing"
	"time"

	"nasd/internal/telemetry"
)

// TestSvcTrustsFirstSamples: an op with an empty histogram is forecast
// at the prior, and the first svc after the histogram gets samples
// returns their p90, not a cached empty read.
func TestSvcTrustsFirstSamples(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newEstimator(reg)
	if got := e.svc("read"); got != defaultSvc {
		t.Fatalf("svc with no samples = %v, want the %v prior", got, defaultSvc)
	}
	h := reg.Histogram("drive.op.read.svc_ns")
	for i := 0; i < 10; i++ {
		h.Observe(int64(40 * time.Millisecond))
	}
	snap := h.Snapshot()
	want := time.Duration(snap.Quantile(0.90))
	if got := e.svc("read"); got != want {
		t.Fatalf("svc after 10 samples = %v, want their p90 %v", got, want)
	}
}
