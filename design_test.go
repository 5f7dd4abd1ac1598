package nasd_test

// The metric map of DESIGN.md §5 names the families an operator reads
// the paper's costs from. This test holds it to the live registry, so
// a family renamed or deleted in the code cannot stay in the docs.

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/cheops"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/qos"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// metricMapFamilies returns the backticked families of the first column
// of DESIGN.md's "Metric → paper mapping" table. A row whose first cell
// does not open with a family (the exemplar and event-log rows) names
// no registry metric.
func metricMapFamilies(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := bytes.Cut(doc, []byte("**Metric → paper mapping.**"))
	if !ok {
		t.Fatal(`DESIGN.md has no "Metric → paper mapping" table`)
	}
	tick := regexp.MustCompile("`([^`]+)`")
	var fams []string
	for _, line := range strings.Split(strings.TrimSpace(string(table)), "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		if cell := strings.TrimSpace(strings.Split(line, "|")[1]); strings.HasPrefix(cell, "`") {
			for _, m := range tick.FindAllStringSubmatch(cell, -1) {
				fams = append(fams, m[1])
			}
		}
	}
	if len(fams) == 0 {
		t.Fatal("the metric map names no family")
	}
	return fams
}

// expandFamily returns the names a family stands for: each {a,b}
// alternation multiplies them.
func expandFamily(fam string) []string {
	i := strings.IndexByte(fam, '{')
	if i < 0 {
		return []string{fam}
	}
	j := i + strings.IndexByte(fam[i:], '}')
	var out []string
	for _, alt := range strings.Split(fam[i+1:j], ",") {
		out = append(out, expandFamily(fam[:i]+alt+fam[j+1:])...)
	}
	return out
}

// TestDesignMetricMap builds an in-process stack (a secure drive on an
// instrumented device, reopened so that recovery ran, behind qos and an
// rpc server; a client; a Cheops manager whose striped object is written
// and read through them), all publishing into one registry, and
// requires every name the metric map's families expand to in its
// snapshot: <op> is read, <P> the Cheops partition, N drive 0, and a
// trailing * any name under the prefix.
func TestDesignMetricMap(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	master := crypt.NewRandomKey()
	mem := blockdev.NewMemDisk(4096, 1<<14)
	cfg := drive.Config{ID: 1, Master: master, Secure: true, Metrics: reg}
	first, err := drive.NewFormat(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A commit left unflushed, so that the reopen below recovers.
	if err := first.Store().CreatePartition(9, 0); err != nil {
		t.Fatal(err)
	}
	idev := blockdev.Instrument(mem, reg)
	cfg.Media = idev
	drv, err := drive.Open(idev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := qos.New(drv, qos.Config{Classify: drive.QoSClassify, Shed: true, Metrics: reg})
	srv := rpc.NewServer(ctl, rpc.WithMetrics(reg))
	l := rpc.NewInProcListener("design")
	go srv.Serve(l)
	defer func() { srv.Close(); ctl.Close() }()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli := client.New(conn, 1, 7, client.WithMetrics(reg))
	defer cli.Close()

	mgr, err := cheops.NewManager(ctx, cheops.ManagerConfig{
		Drives:  []cheops.DriveRef{{Client: cli, DriveID: 1, Master: master}},
		Metrics: reg,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr.Create(ctx, cheops.Stripe0, 32<<10, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := cheops.OpenObject(mgr, []*client.Drive{cli}, id, capability.Read|capability.Write)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("nasd"), 16<<10)
	if err := obj.WriteAt(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if got, err := obj.ReadAt(ctx, 0, len(data)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("striped read back %d bytes (%v)", len(got), err)
	}

	snap := reg.Snapshot()
	var names []string
	for n := range snap.Counters {
		names = append(names, n)
	}
	for n := range snap.Gauges {
		names = append(names, n)
	}
	for n := range snap.Histograms {
		names = append(names, n)
	}
	fill := strings.NewReplacer("<op>", "read", "<P>", strconv.Itoa(int(mgr.Partition())), ".N.", ".0.")
	for _, fam := range metricMapFamilies(t) {
		for _, name := range expandFamily(fill.Replace(fam)) {
			prefix, wild := strings.CutSuffix(name, "*")
			found := false
			for _, n := range names {
				if n == name || wild && strings.HasPrefix(n, prefix) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("DESIGN.md §5 maps %s (from `%s`), which the live registry does not hold", name, fam)
			}
		}
	}
}
