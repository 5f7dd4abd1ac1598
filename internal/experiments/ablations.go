package experiments

import (
	"fmt"
	"time"

	"nasd/internal/drive"
	"nasd/internal/hw"
	"nasd/internal/sim"
)

func init() {
	register("ablation-rpc", runAblationRPC)
	register("ablation-security", runAblationSecurity)
}

// runAblationRPC quantifies the paper's Section 4.4 conclusion — "NASD
// control is not necessarily too expensive but workstation-class
// implementations of communications certainly are" — by re-running the
// Figure 7 single-client configuration under three protocol stacks:
// the measured DCE RPC costs, a lean drive protocol (the "less costly
// RPC mechanism" the paper says commodity NASD drives must have), and
// an intermediate UDP-class stack.
func runAblationRPC(quick bool) (*Result, error) {
	res := &Result{
		ID:    "ablation-rpc",
		Title: "RPC stack ablation: per-client bandwidth vs protocol cost (Fig 7 config, 1 client)",
	}
	simTime := 2 * time.Second
	if quick {
		simTime = time.Second
	}
	stacks := []struct {
		name  string
		proto hw.ProtocolCost
	}{
		{"DCE RPC / UDP / IP (measured)", hw.DCERPCCost},
		{"UDP-class stack", hw.ProtocolCost{PerMessage: 12000, SendPerByte: 1.2, RecvPerByte: 3.0}},
		{"lean drive protocol", hw.LeanRPCCost},
	}
	for _, st := range stacks {
		got := ablationRPCRun(st.proto, simTime)
		res.Rows = append(res.Rows, Row{
			Series: "per-client cached-read bandwidth",
			X:      st.name,
			Got:    got,
			Unit:   "MB/s",
		})
	}
	// With the lean stack the limit moves to the wire (16.9 MB/s OC-3
	// payload), an order of magnitude above the DCE result.
	res.Summary = "the protocol stack, not NASD control, bounds client bandwidth; a lean stack recovers the wire rate"
	return res, nil
}

// ablationRPCRun is fig7 with one client and a configurable stack on
// both ends.
func ablationRPCRun(proto hw.ProtocolCost, simTime time.Duration) float64 {
	const (
		stripeUnit = 512 << 10
		width      = 4
	)
	env := sim.NewEnv(7)
	drives := make([]*hw.Host, width)
	for i := range drives {
		cpu := hw.NewCPU(env, fmt.Sprintf("nasd%d", i), 133, 2.2)
		nic := hw.NewDuplex(env, fmt.Sprintf("nasd%d.atm", i), hw.OC3ATMBytesPerSec, hw.LANLatency)
		drives[i] = hw.NewHost(env, fmt.Sprintf("nasd%d", i), cpu, nic, proto)
	}
	cpu := hw.NewCPU(env, "client", 233, 2.2)
	nic := hw.NewDuplex(env, "client.atm", hw.OC3ATMBytesPerSec, hw.LANLatency)
	cl := hw.NewHost(env, "client", cpu, nic, proto)

	var bytes sim.Counter
	env.Go("client", func(p *sim.Proc) {
		for {
			events := make([]*sim.Event, width)
			for u := 0; u < width; u++ {
				drv := drives[u]
				ev := env.NewEvent()
				events[u] = ev
				env.Go("req", func(q *sim.Proc) {
					fig7Request(q, cl, drv, stripeUnit)
					ev.Fire(nil)
				})
			}
			sim.WaitAll(p, events...)
			bytes.Add(width * stripeUnit)
		}
	})
	env.RunUntil(simTime)
	return bytes.RatePerSec(simTime) / hw.MB
}

// runAblationSecurity quantifies Section 4.1's security argument. The
// paper disabled its security protocol because "software
// implementations operating at disk rates are not available with the
// computational resources we expect on a disk", and proposes DES-class
// MAC hardware instead. The ablation compares request service times on
// the 200 MHz drive core for three designs: security off (the paper's
// measurement mode), software MACs (a per-byte digest charge on the
// drive CPU), and hardware MACs (fixed setup cost only, digest at line
// rate).
func runAblationSecurity(quick bool) (*Result, error) {
	res := &Result{
		ID:    "ablation-security",
		Title: "Security ablation: 512 KB read service time on the drive core",
	}
	const (
		size = 512 << 10
		// Software MAC on a 200 MHz embedded core: ~10 instructions per
		// byte for a DES-class keyed digest.
		swMACPerByte = 10.0
		// Hardware MAC: capability recompute + setup only.
		hwMACFixed = 4000.0
	)
	base := CostModel(drive.OpReadObject, size, false)
	modes := []struct {
		name  string
		extra float64 // added instructions
	}{
		{"security disabled (paper's runs)", 0},
		{"software MAC", swMACPerByte * size},
		{"hardware MAC (proposed ASIC)", hwMACFixed},
	}
	for _, m := range modes {
		total := float64(base.Total()) + m.extra
		ms := total * TargetCPI / (TargetMHz * 1e6) * 1e3
		res.Rows = append(res.Rows, Row{
			Series: "512 KB warm read",
			X:      m.name,
			Got:    ms,
			Unit:   "ms",
		})
		// Implied single-stream bandwidth.
		res.Rows = append(res.Rows, Row{
			Series: "implied drive throughput",
			X:      m.name,
			Got:    float64(size) / (ms / 1e3) / 1e6,
			Unit:   "MB/s",
		})
	}
	res.Summary = "software MACs more than double the data-path cost; the paper's few-10k-gate MAC hardware makes security nearly free"
	return res, nil
}
