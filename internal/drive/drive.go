package drive

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/bufpool"
	"nasd/internal/capability"
	"nasd/internal/crypt"
	"nasd/internal/object"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// Kernel is an Active Disk extension function (Section 6): it consumes
// an object's data as a stream of chunks and returns a small result.
// Kernels run entirely on the drive; only the result crosses the
// network.
type Kernel func(params []byte, data func(off uint64, n int) ([]byte, error), size uint64) ([]byte, error)

// Config configures a drive.
type Config struct {
	// ID is the drive's identity, baked into every capability.
	ID uint64
	// Master is the root of the drive's key hierarchy. The file manager
	// holds the same master key (exchanged out of band) and derives the
	// same hierarchy, so capabilities verify with no per-capability
	// state exchange.
	Master crypt.Key
	// Secure enables capability and digest enforcement. The paper's
	// measurements ran with security disabled ("we disabled these
	// security protocols because our prototype does not currently
	// support such hardware"); functional deployments enable it.
	Secure bool
	// Store carries object-system tuning.
	Store object.Config
	// Metrics is the registry the drive publishes telemetry into; nil
	// gets a private registry. Share one registry between the drive,
	// its RPC server, and an instrumented device so /metrics and the
	// stats RPC return the whole picture.
	Metrics *telemetry.Registry
	// Media, when set, supplies the media busy-time clock used to split
	// per-request service time into object-system vs media components
	// (pass the *blockdev.Instrumented wrapping the drive's device).
	Media MediaClock
	// Spans is the log the drive records request span trees into; nil
	// gets a private log. Pass the same log to the device's WithSpanLog
	// so per-I/O media spans land in the same place.
	Spans *telemetry.SpanLog
	// Events is the structured event ring the drive and its store emit
	// state transitions into (start/stop, journal recovery, needle
	// compactions); nil uses the process-wide telemetry.Events ring.
	// Multi-drive processes that want per-drive /events separation pass
	// each drive its own ring.
	Events *telemetry.EventLog
}

// NonceWindow is how far behind a client's highest nonce counter the
// drive still accepts one it has not seen. A client keeps every counter
// it has in flight inside this window (client.Drive takes a counter
// only when the oldest one it still waits on is less than NonceWindow
// behind), so the drive never refuses an honest request as a replay.
const NonceWindow = 256

// Drive is a NASD drive: object store + keys + request handler.
// It implements rpc.Handler, so it can be served over any transport.
type Drive struct {
	id       uint64
	store    *object.Store
	keys     *crypt.Hierarchy
	verifier *capability.Verifier
	nonces   *crypt.NonceWindow
	secure   bool
	tel      *driveTel

	mu      sync.Mutex
	kernels map[string]Kernel
}

// resolveMetrics gives the drive and its object store one shared
// registry (so lock-contention meters from the object/cache/layout
// layers land next to the drive's op metrics) defaulting to a private
// one, and one shared event ring defaulting to the process-wide
// telemetry.Events.
func resolveMetrics(cfg *Config) {
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.Store.Metrics == nil {
		cfg.Store.Metrics = cfg.Metrics
	}
	if cfg.Events == nil {
		cfg.Events = telemetry.Events
	}
	if cfg.Store.Events == nil {
		cfg.Store.Events = cfg.Events
	}
}

// NewFormat formats dev and returns a fresh drive.
func NewFormat(dev blockdev.Device, cfg Config) (*Drive, error) {
	resolveMetrics(&cfg)
	st, err := object.Format(dev, cfg.Store)
	if err != nil {
		return nil, err
	}
	return fromStore(st, cfg), nil
}

// Open attaches to an existing formatted device.
func Open(dev blockdev.Device, cfg Config) (*Drive, error) {
	resolveMetrics(&cfg)
	st, err := object.Open(dev, cfg.Store)
	if err != nil {
		return nil, err
	}
	d := fromStore(st, cfg)
	// Rebuild key state for existing partitions.
	for _, p := range st.Partitions() {
		if err := d.keys.AddPartition(p.ID); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func fromStore(st *object.Store, cfg Config) *Drive {
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	spans := cfg.Spans
	if spans == nil {
		spans = telemetry.NewSpanLog(telemetry.DefaultSpanLogSize)
	}
	events := cfg.Events
	if events == nil {
		events = telemetry.Events
	}
	keys := crypt.NewHierarchy(cfg.Master)
	d := &Drive{
		id:       cfg.ID,
		store:    st,
		keys:     keys,
		verifier: capability.NewVerifier(keys, 0),
		nonces:   crypt.NewNonceWindow(NonceWindow, 4096),
		secure:   cfg.Secure,
		tel:      newDriveTel(reg, cfg.Media, spans, events),
		kernels:  make(map[string]Kernel),
	}
	events.Emitf(telemetry.SevInfo, "drive", "start", "drive %d attached (%d partitions)", cfg.ID, len(st.Partitions()))
	// Hot-path caches publish alongside the drive's op metrics: the
	// capability digest cache and the shared byte-buffer pool.
	d.verifier.Cache().Publish(reg)
	bufpool.Publish(reg)
	// The buffer cache keeps its own counters; publish them as
	// pull-style gauges so hit rates show up in every snapshot.
	reg.Func("drive.cache.hits", func() int64 { return d.store.CacheStats().Hits })
	reg.Func("drive.cache.misses", func() int64 { return d.store.CacheStats().Misses })
	reg.Func("drive.cache.prefetches", func() int64 { return d.store.CacheStats().Prefetches })
	reg.Func("drive.cache.evictions", func() int64 { return d.store.CacheStats().Evictions })
	reg.Func("drive.cache.writebacks", func() int64 { return d.store.CacheStats().WriteBacks })
	return d
}

// ID returns the drive identity.
func (d *Drive) ID() uint64 { return d.id }

// Store exposes the underlying object store (for co-located components
// such as simulations and tests; remote clients go through RPC).
func (d *Drive) Store() *object.Store { return d.store }

// Keys exposes the key hierarchy (for co-located file managers in
// tests; a real file manager derives its own from the shared master).
func (d *Drive) Keys() *crypt.Hierarchy { return d.keys }

// RegisterKernel installs an Active Disk kernel under a name.
func (d *Drive) RegisterKernel(name string, k Kernel) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.kernels[name] = k
}

// --- Authorization -------------------------------------------------------

// authorize performs the complete drive-side admission check for a
// capability-bearing request: stateless capability validation (Section
// 4.1), then nonce freshness. It returns a non-nil reply on
// rejection. curVer is the object's current logical version (0 for
// partition-scope operations). The time spent here is the "security"
// component of the request's Table 1-style cost split, accumulated
// into ph.
func (d *Drive) authorize(req *rpc.Request, ph *phases, part uint16, obj uint64, curVer uint64, op capability.Rights, off, length uint64) *rpc.Reply {
	if !d.secure {
		return nil
	}
	start := time.Now()
	defer func() { ph.digest += time.Since(start) }()
	pub, err := capability.DecodePublic(req.Cap)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusAuthFailure, "capability: %v", err)
	}
	// The capability's partition identity is the request's tenant for
	// telemetry attribution (capability.TenantKey), recorded even when
	// validation below rejects the request — a tenant's auth failures
	// are part of its story.
	ph.setTenant(pub.Partition)
	chk := capability.Check{
		DriveID: d.id, Part: part, Object: obj, ObjVer: curVer,
		Op: op, Offset: off, Length: length, Now: start,
	}
	signer, err := d.verifier.Signer(pub, chk)
	if err == nil && !req.Verify(signer) {
		err = capability.ErrBadDigest
	}
	if err != nil {
		st := rpc.StatusAuthFailure
		if errors.Is(err, capability.ErrExpired) {
			// Expiry is the one renewable rejection: the wire status
			// tells clients to fetch a fresh capability and reissue
			// instead of treating the drive as hostile.
			st = rpc.StatusCapExpired
		}
		return rpc.Errorf(req.MsgID, st, "%v", err)
	}
	return d.checkNonce(req)
}

// authorizeAdmin checks a management request signed directly under a
// named drive key (master or drive key) rather than a capability.
func (d *Drive) authorizeAdmin(req *rpc.Request, ph *phases, ref KeyRef) *rpc.Reply {
	if !d.secure {
		return nil
	}
	start := time.Now()
	defer func() { ph.digest += time.Since(start) }()
	id := crypt.KeyID{Type: crypt.KeyType(ref.Type), Partition: ref.Partition, Version: ref.Version}
	if id.Type != crypt.MasterKey && id.Type != crypt.DriveKey {
		return rpc.Errorf(req.MsgID, rpc.StatusAuthFailure, "management requires master or drive key")
	}
	key, err := d.keys.Lookup(id)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusAuthFailure, "unknown key %v", id)
	}
	// Management requests are rare: each builds its signer afresh.
	if !req.Verify(crypt.NewSigner(key)) {
		return rpc.Errorf(req.MsgID, rpc.StatusAuthFailure, "bad management digest")
	}
	return d.checkNonce(req)
}

// checkNonce records the request's nonce, rejecting a replay. It runs
// only once the request digest has verified: a forged request must not
// move a client's high-water mark, or it could lock out that client's
// genuine requests.
func (d *Drive) checkNonce(req *rpc.Request) *rpc.Reply {
	if err := d.nonces.Check(req.Nonce); err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusReplay, "%v", err)
	}
	return nil
}

// objVersion fetches an object's current logical version number.
func (d *Drive) objVersion(part uint16, obj uint64) (uint64, error) {
	a, err := d.store.GetAttr(part, obj)
	if err != nil {
		return 0, err
	}
	return a.Version, nil
}

// Handle implements rpc.Handler: it decodes, authorizes and executes one
// request, then records it once in each observation sink: the registry
// (the drive.op.* aggregates, service time split into digest /
// object-system / media) and the span log (the per-request record).
func (d *Drive) Handle(req *rpc.Request) *rpc.Reply {
	op := Op(req.Proc)
	ph := &phases{}
	// Resume the caller's trace: the drive-side handler span becomes a
	// child of the client span whose context rode in the request header.
	sp := d.tel.spans.StartRemote(req.Trace.TraceID, req.Trace.Parent, d.tel.spanName(op))
	if mt, ok := d.tel.media.(mediaTracer); ok && sp.Context().TraceID != 0 {
		// Ambient trace context for per-I/O media spans; approximate
		// under concurrent requests, exact when serialized (the same
		// caveat as the media busy-time delta).
		mt.SetTraceContext(sp.Context())
		defer mt.SetTraceContext(telemetry.SpanContext{})
	}
	start := time.Now()
	mediaBefore := d.tel.mediaNanos()
	lockBefore := d.tel.lockWaitNanos()
	rep := d.dispatch(op, req, ph)
	total := time.Since(start)
	if !ph.hasTenant {
		// No capability decoded (insecure mode, admin ops, early decode
		// failures): fall back to the partition leading the argument
		// record, which post-validation always matches the capability's.
		if part, ok := reqPartition(op, req.Args); ok {
			ph.setTenant(part)
		}
	}
	d.tel.record(op, req, rep, total, ph, d.tel.mediaNanos()-mediaBefore, &sp, d.tel.lockWaitNanos()-lockBefore)
	return rep
}

func (d *Drive) dispatch(op Op, req *rpc.Request, ph *phases) *rpc.Reply {
	switch op {
	case OpReadObject:
		return d.handleRead(req, ph)
	case OpWriteObject:
		return d.handleWrite(req, ph)
	case OpGetAttr:
		return d.handleGetAttr(req, ph)
	case OpSetAttr:
		return d.handleSetAttr(req, ph)
	case OpCreateObject:
		return d.handleCreate(req, ph)
	case OpRemoveObject:
		return d.handleRemove(req, ph)
	case OpVersionObject:
		return d.handleVersion(req, ph)
	case OpCreatePartition:
		return d.handleCreatePartition(req, ph)
	case OpResizePartition:
		return d.handleResizePartition(req, ph)
	case OpRemovePartition:
		return d.handleRemovePartition(req, ph)
	case OpGetPartition:
		return d.handleGetPartition(req, ph)
	case OpListObjects:
		return d.handleList(req, ph)
	case OpSetKey:
		return d.handleSetKey(req, ph)
	case OpBumpVersion:
		return d.handleBumpVersion(req, ph)
	case OpFlush:
		if err := d.store.Flush(); err != nil {
			return errReply(req.MsgID, err)
		}
		return &rpc.Reply{Status: rpc.StatusOK}
	case OpExecute:
		return d.handleExecute(req, ph)
	case OpGetStats:
		return d.handleStats(req)
	default:
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "unknown op %d", req.Proc)
	}
}

func (d *Drive) handleRead(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodeReadArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	ver, err := d.objVersion(a.Partition, a.Object)
	if err != nil {
		return errReply(req.MsgID, err)
	}
	if rep := d.authorize(req, ph, a.Partition, a.Object, ver, capability.Read, a.Offset, a.Length); rep != nil {
		return rep
	}
	data, err := d.store.Read(a.Partition, a.Object, a.Offset, int(a.Length))
	if err != nil {
		return errReply(req.MsgID, err)
	}
	// The store lends read results out of the buffer pool; the server
	// hands the buffer back once the transport has serialized the reply.
	// When the drive is called in-process (no server), the buffer simply
	// falls to the GC — Put is optional.
	return &rpc.Reply{Status: rpc.StatusOK, Data: data, PooledData: true}
}

func (d *Drive) handleWrite(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodeWriteArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	ver, err := d.objVersion(a.Partition, a.Object)
	if err != nil {
		return errReply(req.MsgID, err)
	}
	if rep := d.authorize(req, ph, a.Partition, a.Object, ver, capability.Write, a.Offset, uint64(len(req.Data))); rep != nil {
		return rep
	}
	if err := d.store.Write(a.Partition, a.Object, a.Offset, req.Data); err != nil {
		return errReply(req.MsgID, err)
	}
	return &rpc.Reply{Status: rpc.StatusOK}
}

func (d *Drive) handleGetAttr(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodeObjArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	at, err := d.store.GetAttr(a.Partition, a.Object)
	if err != nil {
		return errReply(req.MsgID, err)
	}
	if rep := d.authorize(req, ph, a.Partition, a.Object, at.Version, capability.GetAttr, 0, 0); rep != nil {
		return rep
	}
	return &rpc.Reply{Status: rpc.StatusOK, Args: EncodeAttrsReply(&at)}
}

func (d *Drive) handleSetAttr(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodeSetAttrArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	ver, err := d.objVersion(a.Partition, a.Object)
	if err != nil {
		return errReply(req.MsgID, err)
	}
	if rep := d.authorize(req, ph, a.Partition, a.Object, ver, capability.SetAttr, 0, 0); rep != nil {
		return rep
	}
	if err := d.store.SetAttr(a.Partition, a.Object, a.Attrs, object.SetAttrMask(a.Mask)); err != nil {
		return errReply(req.MsgID, err)
	}
	return &rpc.Reply{Status: rpc.StatusOK}
}

func (d *Drive) handleCreate(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodeObjArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	// Creation uses a partition-scope capability (Object 0, version 0).
	if rep := d.authorize(req, ph, a.Partition, 0, 0, capability.CreateObj, 0, 0); rep != nil {
		return rep
	}
	id, err := d.store.Create(a.Partition)
	if err != nil {
		return errReply(req.MsgID, err)
	}
	return &rpc.Reply{Status: rpc.StatusOK, Args: EncodeIDReply(id)}
}

func (d *Drive) handleRemove(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodeObjArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	ver, err := d.objVersion(a.Partition, a.Object)
	if err != nil {
		return errReply(req.MsgID, err)
	}
	if rep := d.authorize(req, ph, a.Partition, a.Object, ver, capability.Remove, 0, 0); rep != nil {
		return rep
	}
	if err := d.store.Remove(a.Partition, a.Object); err != nil {
		return errReply(req.MsgID, err)
	}
	return &rpc.Reply{Status: rpc.StatusOK}
}

func (d *Drive) handleVersion(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodeObjArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	ver, err := d.objVersion(a.Partition, a.Object)
	if err != nil {
		return errReply(req.MsgID, err)
	}
	if rep := d.authorize(req, ph, a.Partition, a.Object, ver, capability.Version, 0, 0); rep != nil {
		return rep
	}
	id, err := d.store.VersionObject(a.Partition, a.Object)
	if err != nil {
		return errReply(req.MsgID, err)
	}
	return &rpc.Reply{Status: rpc.StatusOK, Args: EncodeIDReply(id)}
}

func (d *Drive) handleCreatePartition(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodePartArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	if rep := d.authorizeAdmin(req, ph, a.AuthKey); rep != nil {
		return rep
	}
	var cerr error
	switch a.Backend {
	case WireBackendDefault:
		cerr = d.store.CreatePartition(a.Partition, a.Quota)
	case WireBackendClassic:
		cerr = d.store.CreatePartitionBackend(a.Partition, a.Quota, object.BackendClassic)
	case WireBackendNeedle:
		cerr = d.store.CreatePartitionBackend(a.Partition, a.Quota, object.BackendNeedle)
	default:
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "unknown backend %d", a.Backend)
	}
	if cerr != nil {
		return errReply(req.MsgID, cerr)
	}
	if err := d.keys.AddPartition(a.Partition); err != nil {
		return errReply(req.MsgID, err)
	}
	// Partition management is rare and must survive power loss.
	if err := d.store.Flush(); err != nil {
		return errReply(req.MsgID, err)
	}
	return &rpc.Reply{Status: rpc.StatusOK}
}

func (d *Drive) handleResizePartition(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodePartArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	if rep := d.authorizeAdmin(req, ph, a.AuthKey); rep != nil {
		return rep
	}
	if err := d.store.ResizePartition(a.Partition, a.Quota); err != nil {
		return errReply(req.MsgID, err)
	}
	return &rpc.Reply{Status: rpc.StatusOK}
}

func (d *Drive) handleRemovePartition(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodePartArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	if rep := d.authorizeAdmin(req, ph, a.AuthKey); rep != nil {
		return rep
	}
	if err := d.store.RemovePartition(a.Partition); err != nil {
		return errReply(req.MsgID, err)
	}
	d.keys.RemovePartition(a.Partition)
	if err := d.store.Flush(); err != nil {
		return errReply(req.MsgID, err)
	}
	return &rpc.Reply{Status: rpc.StatusOK}
}

func (d *Drive) handleGetPartition(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodePartArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	if rep := d.authorizeAdmin(req, ph, a.AuthKey); rep != nil {
		return rep
	}
	p, err := d.store.GetPartition(a.Partition)
	if err != nil {
		return errReply(req.MsgID, err)
	}
	return &rpc.Reply{Status: rpc.StatusOK, Args: EncodePartReply(p)}
}

func (d *Drive) handleList(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodeObjArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	// Listing is the well-known object-list object: partition-scope read.
	if rep := d.authorize(req, ph, a.Partition, 0, 0, capability.Read, 0, 0); rep != nil {
		return rep
	}
	ids, err := d.store.List(a.Partition)
	if err != nil {
		return errReply(req.MsgID, err)
	}
	return &rpc.Reply{Status: rpc.StatusOK, Args: EncodeIDListReply(ids)}
}

func (d *Drive) handleSetKey(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodeSetKeyArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	if rep := d.authorizeAdmin(req, ph, a.AuthKey); rep != nil {
		return rep
	}
	key, err := crypt.KeyFromBytes(a.Key)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	id := crypt.KeyID{Type: crypt.KeyType(a.Target.Type), Partition: a.Target.Partition, Version: a.Target.Version}
	if err := d.keys.SetKey(id, key); err != nil {
		return errReply(req.MsgID, err)
	}
	return &rpc.Reply{Status: rpc.StatusOK}
}

func (d *Drive) handleBumpVersion(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodeObjArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	ver, err := d.objVersion(a.Partition, a.Object)
	if err != nil {
		return errReply(req.MsgID, err)
	}
	// Version bumps are the revocation path: they require SetAttr rights.
	if rep := d.authorize(req, ph, a.Partition, a.Object, ver, capability.SetAttr, 0, 0); rep != nil {
		return rep
	}
	v, err := d.store.BumpVersion(a.Partition, a.Object)
	if err != nil {
		return errReply(req.MsgID, err)
	}
	return &rpc.Reply{Status: rpc.StatusOK, Args: EncodeIDReply(v)}
}

func (d *Drive) handleExecute(req *rpc.Request, ph *phases) *rpc.Reply {
	a, err := DecodeExecuteArgs(req.Args)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "%v", err)
	}
	at, err := d.store.GetAttr(a.Partition, a.Object)
	if err != nil {
		return errReply(req.MsgID, err)
	}
	// Executing a kernel reads the object: Read rights required.
	if rep := d.authorize(req, ph, a.Partition, a.Object, at.Version, capability.Read, 0, 0); rep != nil {
		return rep
	}
	d.mu.Lock()
	k, ok := d.kernels[a.Kernel]
	d.mu.Unlock()
	if !ok {
		return rpc.Errorf(req.MsgID, rpc.StatusBadRequest, "unknown kernel %q", a.Kernel)
	}
	result, err := k(a.Params, func(off uint64, n int) ([]byte, error) {
		return d.store.Read(a.Partition, a.Object, off, n)
	}, at.Size)
	if err != nil {
		return rpc.Errorf(req.MsgID, rpc.StatusError, "kernel: %v", err)
	}
	return &rpc.Reply{Status: rpc.StatusOK, Data: result}
}

// Serve is a convenience that wraps the drive in an RPC server on l.
// It blocks; run on its own goroutine and close the returned server to
// stop. The server shares the drive's telemetry registry, so one
// snapshot covers both RPC-plane and drive-plane metrics with NASD op
// names.
func (d *Drive) Serve(l rpc.Listener) *rpc.Server {
	srv := rpc.NewServer(d,
		rpc.WithMetrics(d.tel.reg),
		rpc.WithProcNames(func(p uint16) string { return Op(p).String() }))
	go srv.Serve(l)
	return srv
}

var _ rpc.Handler = (*Drive)(nil)

// String describes the drive.
func (d *Drive) String() string { return fmt.Sprintf("nasd-drive-%d", d.id) }
