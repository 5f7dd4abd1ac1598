package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/object"
	"nasd/internal/qos"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// The modelled medium: 200 MiB/s and 50 us per device call, as
// blockdev.NewThrottle models it. It is a rate model, not a latency
// model: the pacer forgives up to 2 ms of idle time.
const (
	mediumBytesPerSec = 200 << 20
	mediumPerCall     = 50 * time.Microsecond
	blockSize         = 4096
)

type driveSpec struct {
	index       int // position in the rig; drive id is index+1
	blocks      int64
	cacheBlocks int
	modelled    bool // throttle the memdisk to the modelled medium
	qos         bool // put a default qos controller in front, as nasdd -qos does
}

// driveRig is one drive assembled from the repo's public constructors
// in the order cmd/nasdd uses: device, Instrument, drive, qos, server.
// With a tracer the three interposers sit around those same values.
type driveRig struct {
	spec   driveSpec
	id     uint64
	master crypt.Key
	reg    *telemetry.Registry
	mem    *blockdev.MemDisk
	tdev   *tracedDev // nil without a tracer
	ctl    *qos.Controller
	srv    *rpc.Server
	lis    *rpc.InProcListener
}

func newDriveRig(spec driveSpec, rng *rand.Rand, tr *tracer) (*driveRig, error) {
	d := &driveRig{spec: spec, id: uint64(spec.index + 1), reg: telemetry.NewRegistry()}
	for i := range d.master {
		d.master[i] = byte(rng.Uint32())
	}
	d.mem = blockdev.NewMemDisk(blockSize, spec.blocks)
	var dev blockdev.Device = d.mem
	if spec.modelled {
		dev = blockdev.NewThrottle(d.mem, mediumBytesPerSec, mediumPerCall)
	}
	if tr != nil {
		d.tdev = tr.wrapDevice(dev, spec.index)
		dev = d.tdev
	}
	spans := telemetry.NewSpanLog(telemetry.DefaultSpanLogSize)
	idev := blockdev.Instrument(dev, d.reg).WithSpanLog(spans)
	cfg := drive.Config{ID: d.id, Master: d.master, Secure: true, Metrics: d.reg, Media: idev, Spans: spans}
	cfg.Store.CacheBlocks = spec.cacheBlocks
	drv, err := drive.NewFormat(idev, cfg)
	if err != nil {
		return nil, fmt.Errorf("drive %d: format: %w", d.id, err)
	}

	var handler rpc.Handler = drv
	if tr != nil {
		handler = tr.wrapHandler(handler, spec.index, spanInner)
	}
	if spec.qos {
		d.ctl = qos.New(handler, qos.Config{
			Classify: drive.QoSClassify,
			Shed:     true,
			Metrics:  d.reg,
			Events:   drv.Events(),
		})
		handler = d.ctl
		if tr != nil {
			handler = tr.wrapHandler(handler, spec.index, spanOuter)
		}
	}
	d.srv = rpc.NewServer(handler,
		rpc.WithMetrics(d.reg),
		rpc.WithProcNames(func(p uint16) string { return drive.Op(p).String() }))
	d.lis = rpc.NewInProcListener(fmt.Sprintf("bench-drive-%d", d.id))
	go d.srv.Serve(d.lis)
	return d, nil
}

// dial opens one client connection over the in-process transport.
func (d *driveRig) dial(clientID uint64, creg *telemetry.Registry, tr *tracer) (*client.Drive, error) {
	conn, err := d.lis.Dial()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		conn = tr.wrapConn(conn, d.spec.index)
	}
	return client.New(conn, d.id, clientID, client.WithMetrics(creg)), nil
}

// serveTCP adds a loopback TCP listener to the same server.
func (d *driveRig) serveTCP() (string, error) {
	l, err := rpc.ListenTCP("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go d.srv.Serve(l)
	return l.Addr(), nil
}

func (d *driveRig) close() {
	d.srv.Close()
	if d.ctl != nil {
		d.ctl.Close()
	}
}

// partitionCap creates partition part with the given engine and mints
// one partition-scope capability for everything the workload does.
func (d *driveRig) partitionCap(ctx context.Context, cli *client.Drive, part uint16, backend object.BackendKind) (*capability.Capability, error) {
	err := cli.CreatePartitionBackend(ctx, crypt.KeyID{Type: crypt.MasterKey}, d.master, part, 0, backend)
	if err != nil {
		return nil, fmt.Errorf("drive %d: create partition: %w", d.id, err)
	}
	keys := crypt.NewHierarchy(d.master)
	if err := keys.AddPartition(part); err != nil {
		return nil, err
	}
	kid, key, err := keys.CurrentWorkingKey(part)
	if err != nil {
		return nil, err
	}
	c := capability.Mint(capability.Public{
		DriveID: d.id, Partition: part,
		Rights: capability.Read | capability.Write | capability.GetAttr | capability.Remove | capability.CreateObj,
		Key:    kid,
	}, key)
	return &c, nil
}

// rig is one workload's whole stack: drives, the client-side registry
// and whatever the workload keeps between ops.
type rig struct {
	drives []*driveRig
	creg   *telemetry.Registry // client.*, rpc.client.* and cheops.*
	conns  []*client.Drive
}

func (r *rig) close() {
	for _, c := range r.conns {
		c.Close()
	}
	for _, d := range r.drives {
		d.close()
	}
}

// snapshot merges every registry of the rig. bufpool is one pool for
// the process that each drive publishes, so its gauges are taken from
// the first drive alone.
func (r *rig) snapshot() telemetry.Snapshot {
	s := r.creg.Snapshot()
	for i, d := range r.drives {
		ds := d.reg.Snapshot()
		if i > 0 {
			for name := range ds.Gauges {
				if strings.HasPrefix(name, "bufpool.") {
					delete(ds.Gauges, name)
				}
			}
		}
		s.Merge(ds)
	}
	return s
}

func (r *rig) deviceFlushes() int64 {
	var n int64
	for _, d := range r.drives {
		if d.tdev != nil {
			n += d.tdev.flushes.Load()
		}
	}
	return n
}
