package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"

	"nasd/internal/blockdev"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// The commands run in-process against drives served on loopback TCP
// listeners at ports the kernel picks, exactly as an operator's
// nasdctl reaches nasdd.

// testDrive is one served drive.
type testDrive struct {
	drv    *drive.Drive
	addr   string
	events *telemetry.EventLog
}

// requests is how many requests the drive's rpc server has received.
func (d *testDrive) requests() uint64 {
	return d.drv.Metrics().Counter("rpc.server.requests").Load()
}

// startDrive formats a small in-memory drive and serves it on a
// loopback listener; secure drives enforce capabilities under master.
func startDrive(t *testing.T, id uint64, master crypt.Key, secure bool) *testDrive {
	t.Helper()
	events := telemetry.NewEventLog(64)
	drv, err := drive.NewFormat(blockdev.NewMemDisk(4096, 4096), drive.Config{
		ID: id, Master: master, Secure: secure, Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := rpc.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := drv.Serve(l)
	t.Cleanup(srv.Close)
	return &testDrive{drv: drv, addr: l.Addr(), events: events}
}

// hangUpAddr returns a loopback address that accepts connections and
// closes them at once: a drive that dials but never answers.
func hangUpAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	return l.Addr().String()
}

// nasdctl runs one command line with stdin as write's payload and
// returns what it printed.
func nasdctl(stdin string, args ...string) (string, error) {
	var out bytes.Buffer
	err := command(args, strings.NewReader(stdin), &out)
	return out.String(), err
}

// secureFlags addresses a secure drive (or, with several addresses, a
// fleet of them) under master.
func secureFlags(master crypt.Key, id uint64, addrs ...string) []string {
	return []string{"-addr", strings.Join(addrs, ","), "-id", strconv.FormatUint(id, 10),
		"-master", hex.EncodeToString(master[:]), "-timeout", "10s"}
}

// mustRun runs a command that must succeed.
func mustRun(t *testing.T, flags []string, stdin string, args ...string) string {
	t.Helper()
	out, err := nasdctl(stdin, append(append([]string(nil), flags...), args...)...)
	if err != nil {
		t.Fatalf("nasdctl %s: %v", strings.Join(args, " "), err)
	}
	return out
}

// genkey makes a master key the way an operator does.
func genkey(t *testing.T) crypt.Key {
	t.Helper()
	out, err := nasdctl("", "genkey")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := hex.DecodeString(strings.TrimSpace(out))
	if err != nil {
		t.Fatalf("genkey printed %q: %v", out, err)
	}
	k, err := crypt.KeyFromBytes(raw)
	if err != nil {
		t.Fatalf("genkey printed %q: %v", out, err)
	}
	return k
}

// TestObjectLifecycle drives every partition and object command against
// a secure drive, minting each capability from the master key.
func TestObjectLifecycle(t *testing.T) {
	master := genkey(t)
	d := startDrive(t, 1, master, true)
	f := secureFlags(master, 1, d.addr)

	mustRun(t, f, "", "mkpart", "1", "1000")
	mustRun(t, f, "", "mkpart", "2", "0", "needle")
	if out := mustRun(t, f, "", "partinfo", "2"); !strings.Contains(out, "partition 2 (needle)") {
		t.Fatalf("partinfo 2 = %q", out)
	}
	obj := strings.TrimSpace(mustRun(t, f, "", "create", "1"))
	if _, err := strconv.ParseUint(obj, 10, 64); err != nil {
		t.Fatalf("create printed %q", obj)
	}
	mustRun(t, f, "hello nasd", "write", "1", obj, "0")
	if out := mustRun(t, f, "", "read", "1", obj, "0", "100"); out != "hello nasd" {
		t.Fatalf("read = %q, want the written payload", out)
	}
	// A length of 1<<62 reads what the object holds, no more.
	if out := mustRun(t, f, "", "read", "1", obj, "0", "4611686018427387904"); out != "hello nasd" {
		t.Fatalf("read of 1<<62 bytes = %q, want the written payload", out)
	}
	if out := mustRun(t, f, "", "attr", "1", obj); !strings.HasPrefix(out, "size 10  version 1") {
		t.Fatalf("attr = %q", out)
	}
	snap := strings.TrimSpace(mustRun(t, f, "", "version", "1", obj))
	if out := mustRun(t, f, "", "read", "1", snap, "6", "100"); out != "nasd" {
		t.Fatalf("read of the version = %q", out)
	}
	if out := mustRun(t, f, "", "revoke", "1", obj); out != "new version 2\n" {
		t.Fatalf("revoke = %q", out)
	}
	if out := mustRun(t, f, "", "list", "1"); !strings.Contains(out, obj+"\n") || !strings.Contains(out, snap+"\n") {
		t.Fatalf("list 1 = %q, want %s and %s", out, obj, snap)
	}
	mustRun(t, f, "", "flush")
	mustRun(t, f, "", "remove", "1", snap)
	if out := mustRun(t, f, "", "list", "1"); strings.Contains(out, snap+"\n") {
		t.Fatalf("list 1 after remove = %q", out)
	}
	if _, err := nasdctl("", append(f, "read", "1", snap, "0", "1")...); err == nil {
		t.Fatal("read of a removed object succeeded")
	}
	mustRun(t, f, "", "rmpart", "2")
	if _, err := nasdctl("", append(f, "partinfo", "2")...); err == nil {
		t.Fatal("partinfo of a removed partition succeeded")
	}
	if out := mustRun(t, f, "", "partinfo", "1"); !strings.Contains(out, "partition 1 (classic): quota 1000 blocks") {
		t.Fatalf("partinfo 1 = %q", out)
	}

	// A wrong master key is refused by the drive, not by nasdctl.
	other := secureFlags(genkey(t), 1, d.addr)
	if _, err := nasdctl("", append(other, "read", "1", obj, "0", "1")...); err == nil {
		t.Fatal("read under the wrong master key succeeded")
	}

	// stats: the Table 1 table, the tenant split, the exemplar hint
	// (every nasdctl request is traced), the raw metrics and the last
	// requests served.
	out := mustRun(t, f, "", "stats", "3")
	for _, want := range []string{"drive 1 per-op cost breakdown", "digest%", "write", "part.1",
		"nasdctl trace", "drive.op.read.calls", "last 3 requests:", "req="} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats missing %q:\n%s", want, out)
		}
	}
}

// TestInsecureDrive runs the data path without capabilities.
func TestInsecureDrive(t *testing.T) {
	d := startDrive(t, 4, crypt.Key{}, false)
	f := []string{"-insecure", "-addr", d.addr, "-id", "4", "-retries", "0"}
	mustRun(t, f, "", "mkpart", "3")
	obj := strings.TrimSpace(mustRun(t, f, "", "create", "3"))
	mustRun(t, f, "abc", "write", "3", obj, "5")
	if out := mustRun(t, f, "", "read", "3", obj, "0", "64"); out != "\x00\x00\x00\x00\x00abc" {
		t.Fatalf("read = %q", out)
	}
	if out := mustRun(t, f, "", "list", "3"); out != obj+"\n" {
		t.Fatalf("list = %q", out)
	}
	if out := mustRun(t, f, "", "attr", "3", obj); !strings.HasPrefix(out, "size 8 ") {
		t.Fatalf("attr = %q", out)
	}
}

// TestBadArguments: a number that does not fit its field, a missing
// argument, an unknown name or a malformed flag fails the command
// before it sends a request.
func TestBadArguments(t *testing.T) {
	master := genkey(t)
	d := startDrive(t, 1, master, true)
	f := secureFlags(master, 1, d.addr)
	mustRun(t, f, "", "mkpart", "1")
	obj := strings.TrimSpace(mustRun(t, f, "", "create", "1"))
	for _, args := range [][]string{
		{"mkpart", "65537"},
		{"mkpart", "-1"},
		{"mkpart", "2", "9223372036854775808"},
		{"mkpart", "2", "10", "floppy"},
		{"rmpart", "x"},
		{"create", "70000"},
		{"remove", "1"},
		{"write", "1", obj, "-5"},
		{"read", "1", obj, "0", "18446744073709551615"},
		{"read", "1", obj, "0", "-1"},
		{"read", "1", "18446744073709551616", "0", "1"},
		{"stats", "4294967296"},
		{"events", "4294967296"},
		{"events", "10", "loud"},
		{"trace", "0x10"},
		{"fleet", "-pretty"},
		{"top", "-interval", "soon"},
		{"frobnicate"},
	} {
		before := d.requests()
		if out, err := nasdctl("payload", append(f, args...)...); err == nil {
			t.Errorf("nasdctl %s succeeded: %q", strings.Join(args, " "), out)
		}
		if got := d.requests(); got != before {
			t.Errorf("nasdctl %s sent %d requests, want none", strings.Join(args, " "), got-before)
		}
	}

	// Command lines rejected before any connection is made.
	for _, args := range [][]string{
		{"-addr", d.addr, "-master", "zz", "flush"},
		{"-addr", d.addr, "-master", "abcd", "flush"},
	} {
		if _, err := nasdctl("", args...); err == nil {
			t.Errorf("nasdctl %s succeeded", strings.Join(args, " "))
		}
	}
	if _, err := nasdctl("", f...); !errors.Is(err, errUsage) {
		t.Errorf("no command: %v, want the usage error", err)
	}
	if _, err := nasdctl("", "-no-such-flag"); !errors.Is(err, errUsage) {
		t.Errorf("unknown flag: %v, want the usage error", err)
	}
	if _, err := nasdctl("", "-h"); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
	if _, err := nasdctl("", "-addr", hangUpAddr(t), "-insecure", "-retries", "0", "flush"); err == nil {
		t.Error("flush against a drive that hangs up succeeded")
	}
}

// TestTraceCommand: a request nasdctl issued is found on the drive by
// its trace ID and rendered as a timeline from every listed drive.
func TestTraceCommand(t *testing.T) {
	master := genkey(t)
	d1, d2 := startDrive(t, 1, master, true), startDrive(t, 1, master, true)
	f := secureFlags(master, 1, d1.addr)
	mustRun(t, f, "", "mkpart", "1")
	obj := strings.TrimSpace(mustRun(t, f, "", "create", "1"))
	mustRun(t, f, "trace me", "write", "1", obj, "0")
	mustRun(t, f, "", "read", "1", obj, "0", "8")

	reads := d1.drv.Spans().Recent(1, "drive.read")
	if len(reads) != 1 {
		t.Fatalf("drive recorded %d drive.read spans, want 1", len(reads))
	}
	tid := reads[0].TraceID
	out := mustRun(t, secureFlags(master, 1, d1.addr, d2.addr), "", "trace", strconv.FormatUint(tid, 10))
	if !strings.Contains(out, fmt.Sprintf("trace %d:", tid)) || !strings.Contains(out, "drive.read") {
		t.Fatalf("trace timeline:\n%s", out)
	}
	if out := mustRun(t, f, "", "trace", "1"); out != "(no spans for trace 1)\n" {
		t.Fatalf("trace of an unknown ID = %q", out)
	}
	if _, err := nasdctl("", append(secureFlags(master, 1, d1.addr, hangUpAddr(t)), "trace", "1")...); err == nil {
		t.Fatal("trace with a drive that hangs up succeeded")
	}
}

// fleetRig is two live drives with traffic from two tenants, a warning
// in the first drive's event ring, and an address that hangs up.
func fleetRig(t *testing.T) (master crypt.Key, d1, d2 *testDrive, down string) {
	t.Helper()
	master = genkey(t)
	d1, d2 = startDrive(t, 1, master, true), startDrive(t, 2, master, true)
	for _, d := range []*testDrive{d1, d2} {
		f := secureFlags(master, d.drv.ID(), d.addr)
		for _, part := range []string{"1", "2"} {
			mustRun(t, f, "", "mkpart", part)
			obj := strings.TrimSpace(mustRun(t, f, "", "create", part))
			mustRun(t, f, "fleet traffic", "write", part, obj, "0")
			mustRun(t, f, "", "read", part, obj, "0", "13")
		}
	}
	d1.events.Emit(telemetry.SevWarn, "breaker", "open", "lane 0 timed out")
	return master, d1, d2, hangUpAddr(t)
}

// TestFleetCommand renders the fleet table of two live drives and one
// that hangs up: per-drive rows, the total, the tenant split, the down
// row and the exemplar drilldown hint; -json carries the merge.
func TestFleetCommand(t *testing.T) {
	master, d1, d2, down := fleetRig(t)
	f := secureFlags(master, 1, d1.addr, d2.addr, down)

	out := mustRun(t, f, "", "fleet")
	for _, want := range []string{"drive 1 " + d1.addr, "drive 2 " + d2.addr, "TOTAL",
		"part.1", "part.2", "DOWN: ", "nasdctl trace"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet table missing %q:\n%s", want, out)
		}
	}

	var fs fleetSnapshot
	if err := json.Unmarshal([]byte(mustRun(t, f, "", "fleet", "-json")), &fs); err != nil {
		t.Fatal(err)
	}
	if len(fs.Drives) != 3 || fs.Drives[2].Err == "" || fs.Drives[0].Err != "" || fs.Drives[1].Err != "" {
		t.Fatalf("fleet -json drives: %+v", fs.Drives)
	}
	sum := fs.Drives[0].Metrics.Counters["drive.op.write.calls"] + fs.Drives[1].Metrics.Counters["drive.op.write.calls"]
	if got := fs.Merged.Counters["drive.op.write.calls"]; got != sum || got != 4 {
		t.Fatalf("merged write calls = %d, want the per-drive sum %d = 4", got, sum)
	}
	if len(fs.Drives[0].Events) == 0 || len(fs.Drives[1].Events) == 0 {
		t.Fatal("a drive's event ring did not come along with its snapshot")
	}
}

// TestTopCommand: the second refresh shows rates between polls, and
// warnings from the drives' rings are listed under the table.
func TestTopCommand(t *testing.T) {
	master, d1, d2, _ := fleetRig(t)
	out := mustRun(t, secureFlags(master, 1, d1.addr, d2.addr), "", "top", "-samples", "2", "-interval", "1ms")
	if n := strings.Count(out, "nasd top — 2 drive(s)"); n != 2 {
		t.Fatalf("%d refreshes, want 2:\n%s", n, out)
	}
	for _, want := range []string{"ops/s", "MB/s in", "recent events (warn and above):", "lane 0 timed out"} {
		if !strings.Contains(out, want) {
			t.Fatalf("top missing %q:\n%s", want, out)
		}
	}
}

// TestEventsCommand merges the rings of two drives, stamped with their
// addresses, and filters by severity.
func TestEventsCommand(t *testing.T) {
	master, d1, d2, down := fleetRig(t)
	f := secureFlags(master, 1, d1.addr, d2.addr)

	out := mustRun(t, f, "", "events")
	if !strings.Contains(out, d1.addr) || !strings.Contains(out, d2.addr) || !strings.Contains(out, "start") {
		t.Fatalf("events do not cover both drives:\n%s", out)
	}
	out = mustRun(t, f, "", "events", "8", "warn")
	if f := strings.Fields(out); len(f) < 5 || f[1] != "warn" || f[2] != d1.addr || f[3] != "breaker" || strings.Count(out, "\n") != 1 {
		t.Fatalf("events 8 warn:\n%s", out)
	}
	if out := mustRun(t, f, "", "events", "8", "error"); out != "(no events)\n" {
		t.Fatalf("events 8 error = %q", out)
	}
	if _, err := nasdctl("", append(secureFlags(master, 1, d1.addr, down), "events")...); err == nil {
		t.Fatal("events with a drive that hangs up succeeded")
	}
	if _, err := nasdctl("", append(secureFlags(master, 1, d1.addr, "127.0.0.1:0"), "events")...); err == nil {
		t.Fatal("events with an address that refuses succeeded")
	}
}
