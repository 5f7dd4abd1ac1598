package main

import (
	"context"
	"runtime"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/object"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// rigPart is the one partition a single-drive rig creates.
const rigPart = 1

// rigConfig is what differs between the single-drive workloads.
type rigConfig struct {
	dev     blockdev.Device // the medium, before instrumentation
	secure  bool
	store   object.Config
	backend object.BackendKind // engine of rigPart
	serve   []rpc.ServerOption
}

// singleDriveRig is what the stats, parallel and smallobj workloads
// share: drive 1 formatted over an instrumented device and served on an
// in-process listener, rigPart created on it, and the key hierarchy to
// mint capabilities for it. Drive, media and every client connection
// publish into reg.
type singleDriveRig struct {
	reg   *telemetry.Registry
	ctx   context.Context // carries the set-up request ID
	admin *client.Drive   // the connection that created the partition
	l     *rpc.InProcListener
	srv   *rpc.Server
	keys  *crypt.Hierarchy
}

func newSingleDriveRig(cfg rigConfig) (*singleDriveRig, error) {
	master := crypt.NewRandomKey()
	r := &singleDriveRig{reg: telemetry.NewRegistry(), keys: crypt.NewHierarchy(master)}
	media := blockdev.Instrument(cfg.dev, r.reg)
	drv, err := drive.NewFormat(media, drive.Config{
		ID: 1, Master: master, Secure: cfg.secure, Metrics: r.reg, Media: media, Store: cfg.store,
	})
	if err != nil {
		return nil, err
	}
	r.l = rpc.NewInProcListener("nasdbench")
	r.srv = drv.Serve(r.l, cfg.serve...)
	r.ctx, _ = telemetry.WithRequestID(context.Background())
	if r.admin, err = r.dial(1); err == nil {
		err = r.admin.CreatePartitionBackend(r.ctx, crypt.KeyID{Type: crypt.MasterKey}, master, rigPart, 0, cfg.backend)
	}
	if err == nil {
		err = r.keys.AddPartition(rigPart)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// dial opens another client connection to the rig's drive.
func (r *singleDriveRig) dial(clientID uint64) (*client.Drive, error) {
	conn, err := r.l.Dial()
	if err != nil {
		return nil, err
	}
	return client.New(conn, 1, clientID, client.WithMetrics(r.reg)), nil
}

// mint issues a one-hour capability for obj in rigPart.
func (r *singleDriveRig) mint(obj, ver uint64, rights capability.Rights) capability.Capability {
	kid, key, err := r.keys.CurrentWorkingKey(rigPart)
	if err != nil {
		panic("nasdbench: rig partition has no working key: " + err.Error())
	}
	return capability.Mint(capability.Public{
		DriveID: 1, Partition: rigPart, Object: obj, ObjVer: ver,
		Rights: rights, Expiry: time.Now().Add(time.Hour).UnixNano(), Key: kid,
	}, key)
}

func (r *singleDriveRig) close() {
	if r.admin != nil {
		r.admin.Close()
	}
	r.srv.Close()
}

// allocDelta runs fn and returns what it cost per op in heap
// allocations and bytes (runtime.MemStats deltas across the call, both
// halves of the in-process client+drive pair) and how long it took.
func allocDelta(ops float64, fn func() error) (allocs, bytes float64, dur time.Duration, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = fn()
	dur = time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / ops, float64(after.TotalAlloc-before.TotalAlloc) / ops, dur, err
}
