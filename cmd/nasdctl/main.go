// Command nasdctl is a CLI client for a NASD drive daemon. It plays
// both roles of the architecture from one process: the administrator /
// file manager role (it holds the master key and mints capabilities)
// and the client role (it uses those capabilities against the drive).
//
// Usage:
//
//	nasdctl genkey
//	nasdctl -addr HOST:PORT -id DRIVEID -master HEXKEY <command> [args]
//
// Commands:
//
//	mkpart PART [QUOTA_BLOCKS] [BACKEND]
//	                                create a partition; BACKEND is
//	                                classic or needle (default: the
//	                                drive's -backend setting)
//	rmpart PART                     remove an empty partition
//	partinfo PART                   show partition usage
//	create PART                     create an object, print its ID
//	remove PART OBJ                 remove an object
//	list PART                       list object IDs
//	write PART OBJ OFF              write stdin at offset
//	read PART OBJ OFF LEN           read to stdout
//	attr PART OBJ                   show object attributes
//	version PART OBJ                copy-on-write snapshot, print new ID
//	revoke PART OBJ                 bump version (revoke capabilities)
//	flush                           force write-behind data to media
//	stats [TRACE_N]                 show the drive's telemetry: the
//	                                per-op Table 1-style cost table,
//	                                every raw metric, and (with TRACE_N)
//	                                the last TRACE_N served requests
//	trace TRACEID                   pull the spans of one trace from
//	                                every drive named by -addr (comma-
//	                                separated), merge them, and print
//	                                an indented timeline with
//	                                stragglers flagged
//	fleet [-json]                   one aggregated snapshot of every
//	                                -addr drive: per-drive and total
//	                                throughput, per-tenant (partition)
//	                                split, p99 exemplars; -json emits
//	                                the raw snapshot for scripts
//	top [-interval D] [-samples N]  live fleet view: the fleet table
//	                                refreshed every interval with op/s
//	                                and MB/s rates between polls, plus
//	                                recent warn+ events
//	events [N] [SEVERITY]           merge the structured event logs of
//	                                every -addr drive (breaker trips,
//	                                journal recovery, compactions, ...)
//	                                into one timeline; N per drive
//	                                (default 128), minimum SEVERITY
//	                                info|warn|error (default info)
//
// Every number is checked against the field it fills (a partition is
// 16 bits, a read length a non-negative int) before the first request
// is sent, so a bad argument fails the command and reaches no drive.
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"time"

	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/object"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

func main() {
	if err := command(os.Args[1:], os.Stdin, os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatalf("nasdctl: %v", err)
	}
}

// errUsage reports a command line the flag set has already explained
// on stderr.
var errUsage = errors.New("usage")

// command runs one nasdctl invocation: args is the command line after
// the program name, in feeds write's payload and out takes what the
// command prints.
func command(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("nasdctl", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "drive address (trace, fleet, top and events accept a comma-separated list)")
	driveID := fs.Uint64("id", 1, "drive identity")
	masterHex := fs.String("master", "", "master key (64 hex chars)")
	insecure := fs.Bool("insecure", false, "talk to an insecure drive")
	timeout := fs.Duration("timeout", 30*time.Second, "per-command deadline (0 = none)")
	retries := fs.Int("retries", 3, "retries per request after the first attempt (0 = fail fast); idempotent requests reconnect and reissue on transport errors")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	args = fs.Args()
	if len(args) == 0 {
		fs.Usage()
		return errUsage
	}
	if args[0] == "genkey" {
		k := crypt.NewRandomKey()
		_, err := fmt.Fprintln(out, hex.EncodeToString(k[:]))
		return err
	}

	var master crypt.Key
	if !*insecure {
		raw, err := hex.DecodeString(*masterHex)
		if err == nil {
			master, err = crypt.KeyFromBytes(raw)
		}
		if err != nil {
			return fmt.Errorf("bad -master: %v", err)
		}
	}
	addrs := strings.Split(*addr, ",")
	conn, err := rpc.DialTCP(addrs[0])
	if err != nil {
		return fmt.Errorf("dial: %v", err)
	}
	opts := []client.Option{client.WithSecurity(!*insecure)}
	if *retries > 0 {
		// Transient daemon hiccups (restart, dropped TCP connection)
		// are retried with backoff over a fresh dial instead of
		// failing the command. The per-attempt timeout divides the
		// command deadline across the attempts so a silently dropped
		// message is reissued while the deadline still has room,
		// rather than stalling the first attempt until it expires.
		p := client.RetryPolicy{MaxAttempts: *retries + 1}
		if *timeout > 0 {
			p.AttemptTimeout = *timeout / time.Duration(p.MaxAttempts)
		}
		opts = append(opts,
			client.WithRetry(p),
			client.WithDialer(func() (rpc.Conn, error) { return rpc.DialTCP(addrs[0]) }))
	}
	cli := client.New(conn, *driveID, newClientID(), opts...)
	defer cli.Close()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	c := ctl{ctx: ctx, cli: cli, addrs: addrs, driveID: *driveID, master: master,
		keys: crypt.NewHierarchy(master), secure: !*insecure, in: in, out: out}
	return c.run(args)
}

// newClientID names one client connection. A drive keeps a nonce
// window per client ID, so two connections must never share one: the
// process ID in the high word keeps processes apart, a random low word
// the connections of one process.
func newClientID() uint64 {
	return uint64(os.Getpid())<<32 | uint64(rand.Uint32())
}

type ctl struct {
	ctx     context.Context
	cli     *client.Drive
	addrs   []string // every -addr entry; cli is connected to addrs[0]
	driveID uint64
	master  crypt.Key
	keys    *crypt.Hierarchy
	secure  bool
	in      io.Reader // write's payload
	out     io.Writer
}

func (c *ctl) masterID() crypt.KeyID { return crypt.KeyID{Type: crypt.MasterKey} }

// mint issues a capability for the command being run. Partition keys
// are derived deterministically from the master key, matching the
// drive's own hierarchy.
func (c *ctl) mint(part uint16, obj, ver uint64, rights capability.Rights) (capability.Capability, error) {
	_ = c.keys.AddPartition(part) // an error means it was added already
	kid, key, err := c.keys.CurrentWorkingKey(part)
	if err != nil {
		return capability.Capability{}, err
	}
	return capability.Mint(capability.Public{
		DriveID: c.driveID, Partition: part, Object: obj, ObjVer: ver,
		Rights: rights, Expiry: time.Now().Add(10 * time.Minute).UnixNano(), Key: kid,
	}, key), nil
}

// partCap mints a partition-scope capability, or none on an insecure
// drive.
func (c *ctl) partCap(part uint16, rights capability.Rights) (*capability.Capability, error) {
	if !c.secure {
		return nil, nil
	}
	cp, err := c.mint(part, 0, 0, rights)
	if err != nil {
		return nil, err
	}
	return &cp, nil
}

func (c *ctl) objCap(part uint16, obj uint64, rights capability.Rights) (*capability.Capability, error) {
	if !c.secure {
		return nil, nil
	}
	// Fetch the current version with a partition-scope capability.
	wc, err := c.mint(part, 0, 0, capability.GetAttr)
	if err != nil {
		return nil, err
	}
	attrs, err := c.cli.GetAttr(c.ctx, &wc, part, obj)
	if err != nil {
		return nil, err
	}
	cp, err := c.mint(part, obj, attrs.Version, rights)
	if err != nil {
		return nil, err
	}
	return &cp, nil
}

// argSpec is what a command takes on its command line: at least need
// arguments, the first len(bits) of them numbers that must each fit in
// as many bits as the field they fill.
type argSpec struct {
	need int
	bits []int
}

// Field widths: a partition ID, an object ID / offset / trace ID, a
// record count on the stats RPC, a quota (int64) and a read length
// (int), both non-negative.
const (
	partBits  = 16
	u64Bits   = 64
	countBits = 32
	quotaBits = 63
	lenBits   = strconv.IntSize - 1
)

var argSpecs = map[string]argSpec{
	"mkpart":   {1, []int{partBits, quotaBits}},
	"rmpart":   {1, []int{partBits}},
	"partinfo": {1, []int{partBits}},
	"create":   {1, []int{partBits}},
	"remove":   {2, []int{partBits, u64Bits}},
	"list":     {1, []int{partBits}},
	"write":    {3, []int{partBits, u64Bits, u64Bits}},
	"read":     {4, []int{partBits, u64Bits, u64Bits, lenBits}},
	"attr":     {2, []int{partBits, u64Bits}},
	"version":  {2, []int{partBits, u64Bits}},
	"revoke":   {2, []int{partBits, u64Bits}},
	"stats":    {0, []int{countBits}},
	"trace":    {1, []int{u64Bits}},
	"events":   {0, []int{countBits}},
}

// parseArgs checks rest against cmd's argSpec and returns its numbers,
// zero where an optional one is absent.
func parseArgs(cmd string, rest []string) ([]uint64, error) {
	spec := argSpecs[cmd]
	if len(rest) < spec.need {
		return nil, fmt.Errorf("%s needs %d arguments", cmd, spec.need)
	}
	nums := make([]uint64, len(spec.bits))
	for i, bits := range spec.bits[:min(len(spec.bits), len(rest))] {
		v, err := strconv.ParseUint(rest[i], 10, bits)
		if err != nil {
			return nil, fmt.Errorf("%s: argument %d is %q, want a number from 0 to %d",
				cmd, i+1, rest[i], uint64(math.MaxUint64)>>(64-bits))
		}
		nums[i] = v
	}
	return nums, nil
}

func (c *ctl) run(args []string) error {
	cmd, rest := args[0], args[1:]
	nums, err := parseArgs(cmd, rest)
	if err != nil {
		return err
	}
	switch cmd {
	case "mkpart":
		part, quota := uint16(nums[0]), int64(nums[1])
		if len(rest) > 2 {
			kind, err := object.ParseBackendKind(rest[2])
			if err != nil {
				return err
			}
			return c.cli.CreatePartitionBackend(c.ctx, c.masterID(), c.master, part, quota, kind)
		}
		return c.cli.CreatePartition(c.ctx, c.masterID(), c.master, part, quota)
	case "rmpart":
		return c.cli.RemovePartition(c.ctx, c.masterID(), c.master, uint16(nums[0]))
	case "partinfo":
		p, err := c.cli.GetPartition(c.ctx, c.masterID(), c.master, uint16(nums[0]))
		if err != nil {
			return err
		}
		fmt.Fprintf(c.out, "partition %d (%s): quota %d blocks, used %d blocks, %d objects\n",
			p.ID, p.Backend, p.QuotaBlocks, p.UsedBlocks, p.ObjectCount)
		return nil
	case "create":
		part := uint16(nums[0])
		cp, err := c.partCap(part, capability.CreateObj)
		if err != nil {
			return err
		}
		id, err := c.cli.Create(c.ctx, cp, part)
		if err != nil {
			return err
		}
		fmt.Fprintln(c.out, id)
		return nil
	case "remove":
		part, obj := uint16(nums[0]), nums[1]
		cp, err := c.objCap(part, obj, capability.Remove)
		if err != nil {
			return err
		}
		return c.cli.Remove(c.ctx, cp, part, obj)
	case "list":
		part := uint16(nums[0])
		cp, err := c.partCap(part, capability.Read)
		if err != nil {
			return err
		}
		ids, err := c.cli.List(c.ctx, cp, part)
		if err != nil {
			return err
		}
		for _, id := range ids {
			fmt.Fprintln(c.out, id)
		}
		return nil
	case "write":
		part, obj, off := uint16(nums[0]), nums[1], nums[2]
		data, err := io.ReadAll(c.in)
		if err != nil {
			return err
		}
		cp, err := c.objCap(part, obj, capability.Write)
		if err != nil {
			return err
		}
		return c.cli.Write(c.ctx, cp, part, obj, off, data)
	case "read":
		part, obj := uint16(nums[0]), nums[1]
		cp, err := c.objCap(part, obj, capability.Read)
		if err != nil {
			return err
		}
		data, err := c.cli.Read(c.ctx, cp, part, obj, nums[2], int(nums[3]))
		if err != nil {
			return err
		}
		_, err = c.out.Write(data)
		return err
	case "attr":
		part, obj := uint16(nums[0]), nums[1]
		cp, err := c.objCap(part, obj, capability.GetAttr)
		if err != nil {
			return err
		}
		a, err := c.cli.GetAttr(c.ctx, cp, part, obj)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.out, "size %d  version %d  created %s  modified %s\n",
			a.Size, a.Version, a.CreateTime.Format(time.RFC3339), a.ModTime.Format(time.RFC3339))
		return nil
	case "version":
		part, obj := uint16(nums[0]), nums[1]
		cp, err := c.objCap(part, obj, capability.Version)
		if err != nil {
			return err
		}
		id, err := c.cli.VersionObject(c.ctx, cp, part, obj)
		if err != nil {
			return err
		}
		fmt.Fprintln(c.out, id)
		return nil
	case "revoke":
		part, obj := uint16(nums[0]), nums[1]
		cp, err := c.objCap(part, obj, capability.SetAttr)
		if err != nil {
			return err
		}
		v, err := c.cli.BumpVersion(c.ctx, cp, part, obj)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.out, "new version %d\n", v)
		return nil
	case "flush":
		return c.cli.Flush(c.ctx)
	case "stats":
		return c.stats(uint32(nums[0]))
	case "trace":
		return c.trace(nums[0])
	case "fleet":
		return c.fleet(rest)
	case "top":
		return c.top(rest)
	case "events":
		n := uint32(128)
		if len(rest) > 0 {
			n = uint32(nums[0])
		}
		minSev := telemetry.SevInfo
		if len(rest) > 1 {
			if minSev, err = telemetry.ParseSeverity(rest[1]); err != nil {
				return err
			}
		}
		return c.events(n, minSev)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// stats prints the drive's Table 1-style cost table, its per-tenant
// split and p99 exemplars, every raw metric, and the last traceN
// requests it served.
func (c *ctl) stats(traceN uint32) error {
	sr, err := c.cli.ServerStats(c.ctx, drive.StatsArgs{TraceN: traceN})
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "drive %d per-op cost breakdown (measured; cf. paper Table 1):\n\n", sr.DriveID)
	rows := opRows(sr.Metrics)
	writeOpTable(c.out, rows)
	writeTenantTable(c.out, sr.Metrics, "this drive, cumulative")
	writeExemplars(c.out, rows)
	fmt.Fprintln(c.out)
	writeText(c.out, sr.Metrics)
	if len(sr.Spans) > 0 {
		fmt.Fprintf(c.out, "\nlast %d requests:\n", len(sr.Spans))
		for _, r := range sr.Spans {
			note := make(map[string]string, len(r.Annotations))
			for _, a := range r.Annotations {
				note[a.Key] = a.Value
			}
			in, _ := strconv.Atoi(note["bytes_in"])
			out, _ := strconv.Atoi(note["bytes_out"])
			fmt.Fprintf(c.out, "  req=%d %-10s %-12s %10s %8dB\n",
				r.TraceID, strings.TrimPrefix(r.Name, telemetry.RequestSpanPrefix), note["status"],
				r.Dur().Round(time.Microsecond), in+out)
		}
	}
	return nil
}

// trace pulls every span recorded for one trace ID from each drive in
// c.addrs and prints the merged timeline. The client half of the trace
// stays in the process that issued the request.
func (c *ctl) trace(traceID uint64) error {
	clis, closeExtra, err := c.fleetClients()
	if err != nil {
		return err
	}
	defer closeExtra()
	sets := make([][]telemetry.SpanRecord, len(clis))
	for i, cli := range clis {
		sr, err := cli.ServerStats(c.ctx, drive.StatsArgs{SpanTrace: traceID})
		if err != nil {
			return fmt.Errorf("spans from %s: %v", c.addrs[i], err)
		}
		sets[i] = sr.Spans
	}
	writeTimeline(c.out, traceID, mergeSpans(sets...))
	return nil
}
