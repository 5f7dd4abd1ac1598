package experiments

import (
	"fmt"
	"math"
	"testing"
	"time"

	"nasd/internal/drive"
)

// TestCostModelMatchesTable1 checks the instruction model lands within
// 20% of every Table 1 cell (EXPERIMENTS.md reports the exact
// deviations). The paper's warm-cache small-request comms share is the
// loosest fit; totals are much tighter.
func TestCostModelMatchesTable1(t *testing.T) {
	for _, row := range paperTable1 {
		c := CostModel(row.op, row.size, row.cold)
		instr := row.instrK * 1e3
		relErr := math.Abs(float64(c.Total())-instr) / instr
		if relErr > 0.20 {
			t.Errorf("%s: model %d instr, paper %.0f (%.1f%% off)", row.label, c.Total(), instr, 100*relErr)
		}
		// Communications dominates everywhere in the paper (70-97%);
		// the model must reproduce that domination.
		if pct := c.CommsPercent(); pct < row.commsPct-15 || pct > row.commsPct+10 {
			t.Errorf("%s: comms%% = %.1f, paper %.0f", row.label, pct, row.commsPct)
		}
		// Estimated op time at 200 MHz / CPI 2.2 within 20%.
		gotMs := c.Time(TargetMHz, TargetCPI).Seconds() * 1e3
		if math.Abs(gotMs-row.msec)/row.msec > 0.20 {
			t.Errorf("%s: time %.2f ms, paper %.2f ms", row.label, gotMs, row.msec)
		}
	}
}

func TestCostModelMonotonicInSize(t *testing.T) {
	for _, op := range []drive.Op{drive.OpReadObject, drive.OpWriteObject} {
		prev := uint64(0)
		for _, size := range []int{1, 1024, 8192, 65536, 524288} {
			c := CostModel(op, size, false).Total()
			if c <= prev {
				t.Errorf("%v: cost not increasing at size %d", op, size)
			}
			prev = c
		}
	}
}

func TestCostModelColdCostsMore(t *testing.T) {
	for _, size := range []int{1, 8192, 65536, 524288} {
		warm := CostModel(drive.OpReadObject, size, false).Total()
		cold := CostModel(drive.OpReadObject, size, true).Total()
		if cold <= warm {
			t.Errorf("size %d: cold (%d) not above warm (%d)", size, cold, warm)
		}
	}
}

func TestOpCostTime(t *testing.T) {
	c := OpCost{Comms: 100_000, Object: 100_000}
	// 200k instructions at CPI 2.2 on 200 MHz = 2.2 ms.
	got := c.Time(200, 2.2)
	want := 2200 * time.Microsecond
	if got < want-time.Microsecond || got > want+time.Microsecond {
		t.Fatalf("time = %v, want %v", got, want)
	}
}

// Ablation: DCE-class vs lean RPC instruction costs across request
// sizes — the paper's "workstation-class implementations of
// communications certainly are [too expensive]" argument in numbers.
func BenchmarkRPCCostModels(b *testing.B) {
	for _, size := range []int{1, 8 << 10, 64 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				c := CostModel(drive.OpReadObject, size, false)
				sink += c.Total()
			}
			c := CostModel(drive.OpReadObject, size, false)
			b.ReportMetric(float64(c.Total()), "DCE-instr")
			// The lean stack the paper anticipates for commodity drives.
			lean := 5000 + 0.4*float64(size)
			b.ReportMetric(lean, "lean-instr")
			_ = sink
		})
	}
}
