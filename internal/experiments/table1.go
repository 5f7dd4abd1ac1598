package experiments

import (
	"time"

	"nasd/internal/drive"
	"nasd/internal/hw"
	"nasd/internal/sim"
)

func init() { register("table1", runTable1) }

// paperTable1 is the measured cost and estimated performance of read
// and write requests from Table 1 of the paper.
var paperTable1 = []struct {
	op       drive.Op
	cold     bool
	size     int
	label    string
	instrK   float64 // total instructions, thousands
	commsPct float64
	msec     float64 // @200 MHz, CPI 2.2
}{
	{drive.OpReadObject, true, 1, "read cold 1B", 46, 70, 0.51},
	{drive.OpReadObject, true, 8 << 10, "read cold 8KB", 67, 79, 0.74},
	{drive.OpReadObject, true, 64 << 10, "read cold 64KB", 247, 90, 2.7},
	{drive.OpReadObject, true, 512 << 10, "read cold 512KB", 1488, 92, 16.4},
	{drive.OpReadObject, false, 1, "read warm 1B", 38, 92, 0.42},
	{drive.OpReadObject, false, 8 << 10, "read warm 8KB", 57, 94, 0.63},
	{drive.OpReadObject, false, 64 << 10, "read warm 64KB", 224, 97, 2.5},
	{drive.OpReadObject, false, 512 << 10, "read warm 512KB", 1410, 97, 15.6},
	{drive.OpWriteObject, true, 1, "write cold 1B", 43, 73, 0.47},
	{drive.OpWriteObject, true, 8 << 10, "write cold 8KB", 71, 82, 0.78},
	{drive.OpWriteObject, true, 64 << 10, "write cold 64KB", 269, 92, 3.0},
	{drive.OpWriteObject, true, 512 << 10, "write cold 512KB", 1947, 96, 21.3},
	{drive.OpWriteObject, false, 1, "write warm 1B", 37, 92, 0.41},
	{drive.OpWriteObject, false, 8 << 10, "write warm 8KB", 57, 94, 0.64},
	{drive.OpWriteObject, false, 64 << 10, "write warm 64KB", 253, 97, 2.8},
	{drive.OpWriteObject, false, 512 << 10, "write warm 512KB", 1871, 97, 20.4},
}

// runTable1 reproduces Table 1: the instruction model's
// totals, communications percentages, and estimated 200 MHz service
// times, plus the Barracuda microbenchmark comparison from the caption.
func runTable1(quick bool) (*Result, error) {
	res := &Result{
		ID:    "table1",
		Title: "Measured cost and estimated performance of read and write requests",
	}
	for _, row := range paperTable1 {
		c := CostModel(row.op, row.size, row.cold)
		res.Rows = append(res.Rows,
			Row{
				Series: "total instructions (thousands)",
				X:      row.label, Paper: row.instrK,
				Got: float64(c.Total()) / 1e3, Unit: "kinstr",
			},
			Row{
				Series: "communications share",
				X:      row.label, Paper: row.commsPct,
				Got: c.CommsPercent(), Unit: "%",
			},
			Row{
				Series: "operation time @200MHz CPI 2.2",
				X:      row.label, Paper: row.msec,
				Got: c.Time(TargetMHz, TargetCPI).Seconds() * 1e3, Unit: "ms",
			},
		)
	}

	// Barracuda comparison (caption): simulated drive microbenchmarks.
	for _, bc := range []struct {
		label string
		seq   bool
		size  int
		paper float64
	}{
		{"barracuda cached sector", true, 512, 0.30},
		{"barracuda random sector", false, 512, 9.4},
		{"barracuda cached 64KB", true, 64 << 10, 2.2},
		{"barracuda random 64KB", false, 64 << 10, 11.1},
	} {
		got := barracudaLatency(bc.seq, bc.size)
		res.Rows = append(res.Rows, Row{
			Series: "Seagate Barracuda comparison",
			X:      bc.label, Paper: bc.paper,
			Got: got.Seconds() * 1e3, Unit: "ms",
		})
	}
	res.Summary = "NASD control is affordable on a 200 MHz drive core; 70-97% of every request is communications"
	return res, nil
}

// barracudaLatency runs the hw disk model for one microbenchmark.
func barracudaLatency(sequential bool, size int) time.Duration {
	env := sim.NewEnv(1)
	d := hw.NewDisk(env, hw.BarracudaST34371W)
	var elapsed time.Duration
	env.Go("io", func(p *sim.Proc) {
		if sequential {
			d.Read(p, 0, 4096)
			p.Wait(50 * time.Millisecond) // firmware readahead fills
			start := p.Now()
			d.Read(p, 4096, size)
			elapsed = p.Now() - start
		} else {
			d.Read(p, 0, 4096)
			start := p.Now()
			d.Read(p, 1<<30, size)
			elapsed = p.Now() - start
		}
	})
	env.Run()
	return elapsed
}
