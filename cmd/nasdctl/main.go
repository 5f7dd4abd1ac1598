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
//	                                separated), merge them with this
//	                                process's own client spans, and
//	                                print an indented timeline with
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
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"log"
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
	addr := flag.String("addr", "127.0.0.1:7070", "drive address (trace accepts a comma-separated list)")
	driveID := flag.Uint64("id", 1, "drive identity")
	masterHex := flag.String("master", "", "master key (64 hex chars)")
	insecure := flag.Bool("insecure", false, "talk to an insecure drive")
	timeout := flag.Duration("timeout", 30*time.Second, "per-command deadline (0 = none)")
	retries := flag.Int("retries", 3, "retries per request after the first attempt (0 = fail fast); idempotent requests reconnect and reissue on transport errors")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if args[0] == "genkey" {
		k := crypt.NewRandomKey()
		fmt.Println(hex.EncodeToString(k[:]))
		return
	}

	var master crypt.Key
	if !*insecure {
		raw, err := hex.DecodeString(*masterHex)
		if err != nil {
			log.Fatalf("nasdctl: bad -master: %v", err)
		}
		master, err = crypt.KeyFromBytes(raw)
		if err != nil {
			log.Fatalf("nasdctl: bad -master: %v", err)
		}
	}
	addrs := strings.Split(*addr, ",")
	conn, err := rpc.DialTCP(addrs[0])
	if err != nil {
		log.Fatalf("nasdctl: dial: %v", err)
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
	cli := client.New(conn, *driveID, uint64(os.Getpid())<<32|uint64(time.Now().UnixNano()&0xffffffff), opts...)
	defer cli.Close()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	c := ctl{ctx: ctx, cli: cli, addrs: addrs, driveID: *driveID, master: master, keys: crypt.NewHierarchy(master), secure: !*insecure}
	if err := c.run(args); err != nil {
		log.Fatalf("nasdctl: %v", err)
	}
}

type ctl struct {
	ctx     context.Context
	cli     *client.Drive
	addrs   []string // every -addr entry; cli is connected to addrs[0]
	driveID uint64
	master  crypt.Key
	keys    *crypt.Hierarchy
	secure  bool
}

func (c *ctl) masterID() crypt.KeyID { return crypt.KeyID{Type: crypt.MasterKey} }

// mint issues a capability for the command being run. Partition keys
// are derived deterministically from the master key, matching the
// drive's own hierarchy.
func (c *ctl) mint(part uint16, obj, ver uint64, rights capability.Rights) (capability.Capability, error) {
	if err := c.keys.AddPartition(part); err != nil {
		// Already added in this process: fine.
		_ = err
	}
	kid, key, err := c.keys.CurrentWorkingKey(part)
	if err != nil {
		return capability.Capability{}, err
	}
	return capability.Mint(capability.Public{
		DriveID: c.driveID, Partition: part, Object: obj, ObjVer: ver,
		Rights: rights, Expiry: time.Now().Add(10 * time.Minute).UnixNano(), Key: kid,
	}, key), nil
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

func parseU(s string) uint64 {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		log.Fatalf("nasdctl: bad number %q", s)
	}
	return v
}

func (c *ctl) run(args []string) error {
	cmd := args[0]
	rest := args[1:]
	need := func(n int) {
		if len(rest) < n {
			log.Fatalf("nasdctl: %s needs %d arguments", cmd, n)
		}
	}
	switch cmd {
	case "mkpart":
		need(1)
		var quota int64
		if len(rest) > 1 {
			quota = int64(parseU(rest[1]))
		}
		if len(rest) > 2 {
			kind, err := object.ParseBackendKind(rest[2])
			if err != nil {
				return err
			}
			return c.cli.CreatePartitionBackend(c.ctx, c.masterID(), c.master, uint16(parseU(rest[0])), quota, kind)
		}
		return c.cli.CreatePartition(c.ctx, c.masterID(), c.master, uint16(parseU(rest[0])), quota)
	case "rmpart":
		need(1)
		return c.cli.RemovePartition(c.ctx, c.masterID(), c.master, uint16(parseU(rest[0])))
	case "partinfo":
		need(1)
		p, err := c.cli.GetPartition(c.ctx, c.masterID(), c.master, uint16(parseU(rest[0])))
		if err != nil {
			return err
		}
		fmt.Printf("partition %d (%s): quota %d blocks, used %d blocks, %d objects\n",
			p.ID, p.Backend, p.QuotaBlocks, p.UsedBlocks, p.ObjectCount)
		return nil
	case "create":
		need(1)
		part := uint16(parseU(rest[0]))
		var cp *capability.Capability
		if c.secure {
			mc, err := c.mint(part, 0, 0, capability.CreateObj)
			if err != nil {
				return err
			}
			cp = &mc
		}
		id, err := c.cli.Create(c.ctx, cp, part)
		if err != nil {
			return err
		}
		fmt.Println(id)
		return nil
	case "remove":
		need(2)
		part := uint16(parseU(rest[0]))
		obj := parseU(rest[1])
		cp, err := c.objCap(part, obj, capability.Remove)
		if err != nil {
			return err
		}
		return c.cli.Remove(c.ctx, cp, part, obj)
	case "list":
		need(1)
		part := uint16(parseU(rest[0]))
		var cp *capability.Capability
		if c.secure {
			mc, err := c.mint(part, 0, 0, capability.Read)
			if err != nil {
				return err
			}
			cp = &mc
		}
		ids, err := c.cli.List(c.ctx, cp, part)
		if err != nil {
			return err
		}
		for _, id := range ids {
			fmt.Println(id)
		}
		return nil
	case "write":
		need(3)
		part := uint16(parseU(rest[0]))
		obj := parseU(rest[1])
		off := parseU(rest[2])
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		cp, err := c.objCap(part, obj, capability.Write)
		if err != nil {
			return err
		}
		return c.cli.Write(c.ctx, cp, part, obj, off, data)
	case "read":
		need(4)
		part := uint16(parseU(rest[0]))
		obj := parseU(rest[1])
		cp, err := c.objCap(part, obj, capability.Read)
		if err != nil {
			return err
		}
		data, err := c.cli.Read(c.ctx, cp, part, obj, parseU(rest[2]), int(parseU(rest[3])))
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	case "attr":
		need(2)
		part := uint16(parseU(rest[0]))
		obj := parseU(rest[1])
		cp, err := c.objCap(part, obj, capability.GetAttr)
		if err != nil {
			return err
		}
		a, err := c.cli.GetAttr(c.ctx, cp, part, obj)
		if err != nil {
			return err
		}
		fmt.Printf("size %d  version %d  created %s  modified %s\n",
			a.Size, a.Version, a.CreateTime.Format(time.RFC3339), a.ModTime.Format(time.RFC3339))
		return nil
	case "version":
		need(2)
		part := uint16(parseU(rest[0]))
		obj := parseU(rest[1])
		cp, err := c.objCap(part, obj, capability.Version)
		if err != nil {
			return err
		}
		id, err := c.cli.VersionObject(c.ctx, cp, part, obj)
		if err != nil {
			return err
		}
		fmt.Println(id)
		return nil
	case "revoke":
		need(2)
		part := uint16(parseU(rest[0]))
		obj := parseU(rest[1])
		cp, err := c.objCap(part, obj, capability.SetAttr)
		if err != nil {
			return err
		}
		v, err := c.cli.BumpVersion(c.ctx, cp, part, obj)
		if err != nil {
			return err
		}
		fmt.Printf("new version %d\n", v)
		return nil
	case "flush":
		return c.cli.Flush(c.ctx)
	case "stats":
		var args drive.StatsArgs
		if len(rest) > 0 {
			args.TraceN = uint32(parseU(rest[0]))
		}
		sr, err := c.cli.ServerStats(c.ctx, args)
		if err != nil {
			return err
		}
		fmt.Printf("drive %d per-op cost breakdown (measured; cf. paper Table 1):\n\n", sr.DriveID)
		telemetry.WriteOpTable(os.Stdout, sr.Metrics, "drive.op")
		telemetry.WriteTenantTable(os.Stdout, sr.Metrics, "this drive, cumulative")
		telemetry.WriteExemplars(os.Stdout, sr.Metrics, "drive.op")
		fmt.Println()
		telemetry.WriteText(os.Stdout, sr.Metrics)
		if len(sr.Spans) > 0 {
			fmt.Printf("\nlast %d requests:\n", len(sr.Spans))
			for _, r := range sr.Spans {
				note := make(map[string]string, len(r.Annotations))
				for _, a := range r.Annotations {
					note[a.Key] = a.Value
				}
				in, _ := strconv.Atoi(note["bytes_in"])
				out, _ := strconv.Atoi(note["bytes_out"])
				fmt.Printf("  req=%d %-10s %-12s %10s %8dB\n",
					r.TraceID, strings.TrimPrefix(r.Name, telemetry.RequestSpanPrefix), note["status"],
					r.Dur().Round(time.Microsecond), in+out)
			}
		}
		return nil
	case "trace":
		need(1)
		return c.trace(parseU(rest[0]))
	case "fleet":
		return c.fleet(rest)
	case "top":
		return c.top(rest)
	case "events":
		return c.events(rest)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// trace pulls every span recorded for one trace ID from each drive in
// c.addrs, merges them with the spans this process recorded itself
// (relevant when the traced operation ran in-process), and prints the
// combined timeline.
func (c *ctl) trace(traceID uint64) error {
	sets := [][]telemetry.SpanRecord{telemetry.ProcessSpans.ByTrace(traceID)}
	for i, addr := range c.addrs {
		cli := c.cli
		if i > 0 {
			addr := addr
			conn, err := rpc.DialTCP(addr)
			if err != nil {
				return fmt.Errorf("dial %s: %v", addr, err)
			}
			cli = client.New(conn, c.driveID, uint64(os.Getpid())<<32|uint64(i),
				client.WithSecurity(c.secure),
				client.WithRetry(client.RetryPolicy{}),
				client.WithDialer(func() (rpc.Conn, error) { return rpc.DialTCP(addr) }))
			defer cli.Close()
		}
		sr, err := cli.ServerStats(c.ctx, drive.StatsArgs{SpanTrace: traceID})
		if err != nil {
			return fmt.Errorf("spans from %s: %v", addr, err)
		}
		sets = append(sets, sr.Spans)
	}
	telemetry.WriteTimeline(os.Stdout, traceID, telemetry.MergeSpans(sets...))
	return nil
}
