// Package client provides the client-side NASD drive API: typed stubs
// over the RPC layer that attach capabilities, nonces, and request
// digests to every call (the client half of Figure 5).
//
// Every call takes a context.Context: cancellation fails the pending
// call immediately, and deadlines are mapped onto transport timeouts by
// the RPC layer. Read, ReadInto and Write cut a transfer larger than one
// fragment into a window of in-flight fragment requests, which is how
// striped clients keep every drive busy (Section 5.2).
//
// A client never holds drive secrets: it proves possession of a
// capability's private portion by keying each request digest with it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"nasd/internal/bufpool"
	"nasd/internal/capability"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/object"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// Errors surfaced by drive calls. They are matched through errors.Is
// against the *RemoteError carrying the drive's status, so the same
// checks work across client, fmrpc, and afsrpc.
var (
	// ErrAuth means the drive rejected the capability or digest; the
	// caller should return to the file manager for a fresh capability.
	ErrAuth = errors.New("client: authorization rejected; revisit file manager")
	// ErrReplay means the drive saw a stale nonce.
	ErrReplay = errors.New("client: request rejected as replay")
	// ErrCapabilityExpired means the drive rejected the capability
	// specifically because it is past its expiry time. Unlike the
	// general ErrAuth (which it also matches), this condition is
	// renewable: the caller can fetch a fresh capability from the file
	// manager or storage manager and reissue the same request.
	ErrCapabilityExpired = errors.New("client: capability expired; renew and retry")
	// ErrOverloaded means the drive shed the request before executing
	// it (admission queue full, tenant over rate, or deadline
	// unmeetable). It is backpressure, not failure: the request
	// demonstrably never ran, the RemoteError's RetryAfter carries the
	// drive's pacing hint, and health accounting (cheops breakers)
	// must not count it against the drive.
	ErrOverloaded = errors.New("client: drive overloaded; retry later")
)

// RemoteError carries a drive- or manager-reported failure. It is the
// one remote error shape for the whole client plane: the RPC status is
// preserved for programmatic checks, Err optionally wraps a mapped
// domain error (fmrpc and afsrpc use this), and errors.Is recognizes
// ErrAuth and ErrReplay from the status.
type RemoteError struct {
	Status rpc.Status
	Msg    string
	Err    error // optional domain error (e.g. filemgr.ErrPerm)
	// RetryAfter is the drive's pacing hint on StatusRetryLater
	// replies: how long it expects to need before it has room for
	// this request again (0 when the reply carried none).
	RetryAfter time.Duration
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("client: remote returned %v: %s", e.Status, e.Msg)
}

// Unwrap exposes the mapped domain error, if any.
func (e *RemoteError) Unwrap() error { return e.Err }

// Is maps RPC statuses onto the package sentinels so callers can write
// errors.Is(err, client.ErrAuth) regardless of which RPC surface
// produced the failure.
func (e *RemoteError) Is(target error) bool {
	switch target {
	case ErrAuth:
		// Expiry is an authorization failure too: code that funnels
		// all auth rejections back to the file manager keeps working.
		return e.Status == rpc.StatusAuthFailure || e.Status == rpc.StatusCapExpired
	case ErrCapabilityExpired:
		return e.Status == rpc.StatusCapExpired
	case ErrReplay:
		return e.Status == rpc.StatusReplay
	case ErrOverloaded:
		return e.Status == rpc.StatusRetryLater
	}
	return false
}

// Default pipelining parameters: fragments big enough to amortize
// per-request cost, a window deep enough to cover the bandwidth-delay
// product of a switched SAN.
const (
	DefaultFragmentSize = 64 << 10
	DefaultWindow       = 8
)

// Option configures a Drive connection.
type Option func(*Drive)

// WithSecurity sets whether requests carry the security header and
// digests; it must match the drive's configuration. Connections are
// secure by default.
func WithSecurity(secure bool) Option {
	return func(d *Drive) { d.secure = secure }
}

// WithMetrics publishes this connection's telemetry ("client.retries"
// plus the RPC client's "rpc.client.*" family) into reg instead of a
// private registry. Share one registry across the connections of a
// striped client to aggregate them.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(d *Drive) {
		if reg != nil {
			d.reg = reg
		}
	}
}

// WithSpans records this connection's client-side spans into log
// instead of the process-wide telemetry.ProcessSpans.
func WithSpans(log *telemetry.SpanLog) Option {
	return func(d *Drive) {
		if log != nil {
			d.spans = log
		}
	}
}

// Drive is a connection to one NASD drive. With WithRetry and
// WithDialer it is a self-healing handle: requests that fail
// transiently are reissued (with fresh nonces) under deadline-scoped
// backoff, over a replacement connection when the old one died.
type Drive struct {
	connMu   sync.Mutex
	cli      *rpc.Client
	gen      uint64 // bumped per reconnect; names a connection incarnation
	dial     func() (rpc.Conn, error)
	driveID  uint64
	clientID uint64
	nonces   *nonceSeq
	secure   bool
	fragSize int
	window   int
	retry    RetryPolicy
	budget   *retryBudget
	reg      *telemetry.Registry
	spans    *telemetry.SpanLog
	signers  *crypt.DigestCache[crypt.Key, *crypt.Signer]

	retries       *telemetry.Counter // requests re-issued by do()
	reconnects    *telemetry.Counter // replacement connections dialed
	exhausted     *telemetry.Counter // retries abandoned: budget empty
	backpressured *telemetry.Counter // hinted waits after StatusRetryLater
}

// New wraps an RPC connection to a drive. clientID identifies this
// client in nonces. Connections default to secure and pipeline
// transfers in DefaultFragmentSize fragments, DefaultWindow in flight;
// see WithSecurity and WithMetrics.
func New(conn rpc.Conn, driveID, clientID uint64, opts ...Option) *Drive {
	d := &Drive{
		driveID:  driveID,
		clientID: clientID,
		nonces:   newNonceSeq(),
		secure:   true,
		fragSize: DefaultFragmentSize,
		window:   DefaultWindow,
		signers:  crypt.NewDigestCache[crypt.Key, *crypt.Signer](64),
	}
	for _, o := range opts {
		o(d)
	}
	if d.reg == nil {
		d.reg = telemetry.NewRegistry()
	}
	if d.spans == nil {
		d.spans = telemetry.ProcessSpans
	}
	d.budget = newRetryBudget(d.retry.Budget)
	d.retries = d.reg.Counter("client.retries")
	d.reconnects = d.reg.Counter("client.reconnects")
	d.exhausted = d.reg.Counter("client.retries_exhausted")
	d.backpressured = d.reg.Counter("client.backpressure_waits")
	d.cli = rpc.NewClient(conn, rpc.WithClientMetrics(d.reg))
	return d
}

// Close releases the connection.
func (d *Drive) Close() error {
	cli, _ := d.client()
	return cli.Close()
}

// DriveID returns the drive identity this client targets.
func (d *Drive) DriveID() uint64 { return d.driveID }

// Metrics returns the connection's telemetry registry.
func (d *Drive) Metrics() *telemetry.Registry { return d.reg }

// ServerStats fetches the drive's own telemetry snapshot over the
// stats RPC: per-op service times split into digest/object/media
// components (the paper's Table 1 decomposition, measured), cache and
// media counters. args picks which optional sections the drive
// attaches: the last TraceN requests it served, every span of
// SpanTrace, or the tail of its event log. nasdctl's fleet commands
// use it to pull metrics and events in one round trip per drive.
func (d *Drive) ServerStats(ctx context.Context, args drive.StatsArgs) (drive.StatsReply, error) {
	rep, err := d.call(ctx, drive.OpGetStats, nil, args.Encode(), nil)
	if err != nil {
		return drive.StatsReply{}, err
	}
	var sr drive.StatsReply
	err = json.Unmarshal(rep.Data, &sr)
	rep.Release()
	if err != nil {
		return drive.StatsReply{}, fmt.Errorf("client: decoding stats reply: %v", err)
	}
	return sr, nil
}

// The annotation keys of the client span.
var (
	keyRetries = telemetry.NewKey("retries")
	keyRetry   = telemetry.NewKey("retry")
	keyStatus  = telemetry.NewKey("status")
	keyError   = telemetry.NewKey("error")
)

// spanNames holds each op's span name, "client." and the op's name,
// made once so that a request builds no string.
var spanNames = func() (names [drive.OpGetStats + 1]string) {
	for op := range names {
		names[op] = "client." + drive.Op(op).String()
	}
	return names
}()

// signFunc signs req: it may encode into buf, a pooled buffer of at
// least 256 bytes that the attempt owns until its call returns.
type signFunc func(req *rpc.Request, buf []byte)

// do issues one logical request under the retry policy. Every call
// opens a client-side span (a child of ctx's active span, or a new
// root) whose context rides in each attempt's request header, so the
// drive-side span links under it. Each attempt is assembled and signed
// from scratch — drives reject replayed nonce counters, so a retried
// request must carry a fresh nonce and digest.
func (d *Drive) do(ctx context.Context, op drive.Op, sign signFunc, args, data []byte) (*rpc.Reply, error) {
	parent, _ := telemetry.SpanContextFrom(ctx)
	sp := d.spans.Start(parent, spanNames[op])
	defer sp.End()
	sc := sp.Context()
	trace := rpc.TraceContext{TraceID: sc.TraceID, Parent: sc.SpanID}
	var lastErr error
	var lastGen uint64
	for attempt := 0; ; attempt++ {
		rep, gen, err := d.attempt(ctx, op, sign, args, data, trace)
		if err == nil {
			d.budget.refund()
			if attempt > 0 {
				sp.Int(keyRetries, int64(attempt))
			}
			return rep, nil
		}
		lastErr, lastGen = err, gen
		out, hint := Classify(err)
		if !d.reissuable(ctx, op, out, err) || attempt+1 >= d.retry.MaxAttempts {
			break
		}
		// A shed request is pacing, not failure: the drive told this
		// client when to come back, so honoring the hint does not spend
		// retry-budget tokens — the budget guards against retry
		// amplification toward a *failing* drive, and an overloaded
		// drive sheds precisely so that retries stay cheap. MaxAttempts
		// and the caller's deadline still bound the loop.
		if out == Shed {
			d.backpressured.Inc()
		} else if !d.budget.take() {
			d.exhausted.Inc()
			break
		}
		if out == NeverSent || out == Lost {
			if rerr := d.reconnect(gen); rerr != nil {
				// Unreachable right now; keep the dial error, back
				// off, and let the next attempt trigger another dial.
				lastErr = rerr
			}
		}
		d.retries.Inc()
		sp.Note(keyRetry, fmt.Sprintf("%d: %v", attempt+1, err))
		if serr := d.retry.Pause(ctx, attempt, hint); serr != nil {
			lastErr = fmt.Errorf("%w; last error: %v", serr, lastErr)
			break
		}
	}
	var re *RemoteError
	if errors.As(lastErr, &re) {
		sp.Note(keyStatus, re.Status.String())
		return nil, lastErr
	}
	sp.Note(keyError, lastErr.Error())
	// A transport failure leaves the handle holding a dead connection.
	// Even when this request cannot be reissued (the op is
	// non-idempotent, or attempts ran out), repair the connection now
	// so later requests don't inherit the corpse — without this, a
	// severed connection would poison every subsequent create/remove
	// on the handle forever.
	if out, _ := Classify(lastErr); d.dial != nil && (out == Lost || out == NeverSent) {
		_ = d.reconnect(lastGen)
	}
	return nil, lastErr
}

// attempt issues one wire request on the current connection, returning
// the connection generation it used so a retry can name it to
// reconnect(). Its nonce counter stays taken until the call returns.
func (d *Drive) attempt(ctx context.Context, op drive.Op, sign signFunc, args, data []byte, trace rpc.TraceContext) (*rpc.Reply, uint64, error) {
	counter, err := d.nonces.take(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer d.nonces.done(counter)
	cli, gen := d.client()
	req := &rpc.Request{
		Trace: trace,
		Proc:  uint16(op),
		Args:  args,
		Data:  data,
		Nonce: crypt.Nonce{Client: d.clientID, Counter: counter},
	}
	if d.secure {
		req.SecOpts = rpc.SecIntegrity
		buf := bufpool.Get(256)
		defer bufpool.Put(buf)
		sign(req, buf[:0])
	}
	if d.retry.AttemptTimeout > 0 {
		actx, cancel := context.WithTimeout(ctx, d.retry.AttemptTimeout)
		defer cancel()
		ctx = actx
	}
	rep, err := cli.Call(ctx, req)
	if err != nil {
		return nil, gen, err
	}
	if rep.Status != rpc.StatusOK {
		rerr := &RemoteError{Status: rep.Status, Msg: rep.Msg}
		if hint, ok := rpc.RetryAfterHint(rep); ok {
			rerr.RetryAfter = hint
		}
		rep.Release()
		return nil, gen, rerr
	}
	return rep, gen, nil
}

// signer returns the reusable HMAC state for key, creating and caching
// it on first use. Steady-state signing then costs one Reset+digest
// instead of a fresh HMAC key schedule per request.
func (d *Drive) signer(key crypt.Key) *crypt.Signer {
	if s, ok := d.signers.Get(key); ok {
		return s
	}
	s := crypt.NewSigner(key)
	d.signers.Put(key, s)
	return s
}

// call issues a capability-authorized request: the capability's public
// half is encoded into the attempt's buffer, and the request is signed
// under its private half.
func (d *Drive) call(ctx context.Context, op drive.Op, cap *capability.Capability, args, data []byte) (*rpc.Reply, error) {
	return d.do(ctx, op, func(req *rpc.Request, buf []byte) {
		if cap != nil {
			req.Cap = cap.Public.Append(buf)
			req.Sign(d.signer(cap.Private))
		}
	}, args, data)
}

// callAdmin signs a management request directly under key (master or
// drive key held by an administrator or file manager).
func (d *Drive) callAdmin(ctx context.Context, op drive.Op, key crypt.Key, args, data []byte) (*rpc.Reply, error) {
	return d.do(ctx, op, func(req *rpc.Request, _ []byte) {
		req.Sign(d.signer(key))
	}, args, data)
}

// status is the result of a call whose reply carries nothing beyond it:
// the reply's pooled frame goes back at once, not to the collector.
func status(rep *rpc.Reply, err error) error {
	if err == nil {
		rep.Release()
	}
	return err
}

// decoded is the result of a call whose reply carries one argument
// record: decode parses it, and the reply's pooled frame goes back.
func decoded[T any](rep *rpc.Reply, err error, decode func([]byte) (T, error)) (T, error) {
	if err != nil {
		var zero T
		return zero, err
	}
	v, derr := decode(rep.Args)
	rep.Release()
	return v, derr
}

// readOne fetches object bytes [off, off+len(dst)) into dst in one
// request and returns how many bytes were read (short at end-of-object).
// The reply frame goes back to the pool as soon as its bytes are copied
// out, so a streaming reader holds pool turnover to its window size.
func (d *Drive) readOne(ctx context.Context, cap *capability.Capability, part uint16, obj, off uint64, dst []byte) (int, error) {
	args := (&drive.ReadArgs{Partition: part, Object: obj, Offset: off, Length: uint64(len(dst))}).Append(bufpool.Get(drive.ReadArgsSize)[:0])
	rep, err := d.call(ctx, drive.OpReadObject, cap, args, nil)
	bufpool.Put(args)
	if err != nil {
		return 0, err
	}
	n := copy(dst, rep.Data)
	rep.Release()
	return n, nil
}

// writeOne stores data at off in one request.
func (d *Drive) writeOne(ctx context.Context, cap *capability.Capability, part uint16, obj, off uint64, data []byte) error {
	args := (&drive.WriteArgs{Partition: part, Object: obj, Offset: off}).Append(bufpool.Get(drive.WriteArgsSize)[:0])
	defer bufpool.Put(args)
	return status(d.call(ctx, drive.OpWriteObject, cap, args, data))
}

// GetAttr fetches object attributes.
func (d *Drive) GetAttr(ctx context.Context, cap *capability.Capability, part uint16, obj uint64) (object.Attributes, error) {
	args := (&drive.ObjArgs{Partition: part, Object: obj}).Encode()
	rep, err := d.call(ctx, drive.OpGetAttr, cap, args, nil)
	return decoded(rep, err, drive.DecodeAttrsReply)
}

// SetAttr updates attributes selected by mask.
func (d *Drive) SetAttr(ctx context.Context, cap *capability.Capability, part uint16, obj uint64, attrs object.Attributes, mask object.SetAttrMask) error {
	args := (&drive.SetAttrArgs{Partition: part, Object: obj, Mask: uint32(mask), Attrs: attrs}).Encode()
	return status(d.call(ctx, drive.OpSetAttr, cap, args, nil))
}

// Create makes a new object in part, returning its ID. The capability
// must be partition-scope with CreateObj rights.
func (d *Drive) Create(ctx context.Context, cap *capability.Capability, part uint16) (uint64, error) {
	args := (&drive.ObjArgs{Partition: part}).Encode()
	rep, err := d.call(ctx, drive.OpCreateObject, cap, args, nil)
	return decoded(rep, err, drive.DecodeIDReply)
}

// Remove deletes an object.
func (d *Drive) Remove(ctx context.Context, cap *capability.Capability, part uint16, obj uint64) error {
	args := (&drive.ObjArgs{Partition: part, Object: obj}).Encode()
	return status(d.call(ctx, drive.OpRemoveObject, cap, args, nil))
}

// VersionObject snapshots an object copy-on-write, returning the new ID.
func (d *Drive) VersionObject(ctx context.Context, cap *capability.Capability, part uint16, obj uint64) (uint64, error) {
	args := (&drive.ObjArgs{Partition: part, Object: obj}).Encode()
	rep, err := d.call(ctx, drive.OpVersionObject, cap, args, nil)
	return decoded(rep, err, drive.DecodeIDReply)
}

// BumpVersion increments an object's logical version (revoking extant
// capabilities) and returns the new version.
func (d *Drive) BumpVersion(ctx context.Context, cap *capability.Capability, part uint16, obj uint64) (uint64, error) {
	args := (&drive.ObjArgs{Partition: part, Object: obj}).Encode()
	rep, err := d.call(ctx, drive.OpBumpVersion, cap, args, nil)
	return decoded(rep, err, drive.DecodeIDReply)
}

// List returns the IDs of the objects in a partition.
func (d *Drive) List(ctx context.Context, cap *capability.Capability, part uint16) ([]uint64, error) {
	args := (&drive.ObjArgs{Partition: part}).Encode()
	rep, err := d.call(ctx, drive.OpListObjects, cap, args, nil)
	return decoded(rep, err, drive.DecodeIDListReply)
}

// Execute runs a registered Active Disk kernel against an object and
// returns its (small) result.
func (d *Drive) Execute(ctx context.Context, cap *capability.Capability, part uint16, obj uint64, kernel string, params []byte) ([]byte, error) {
	args := (&drive.ExecuteArgs{Partition: part, Object: obj, Kernel: kernel, Params: params}).Encode()
	rep, err := d.call(ctx, drive.OpExecute, cap, args, nil)
	if err != nil {
		return nil, err
	}
	out := bytes.Clone(rep.Data)
	rep.Release()
	return out, nil
}

// Flush forces drive write-behind data to stable storage.
func (d *Drive) Flush(ctx context.Context) error {
	return status(d.call(ctx, drive.OpFlush, nil, nil, nil))
}

// --- Management operations (signed under drive keys) ---------------------

func keyRef(id crypt.KeyID) drive.KeyRef {
	return drive.KeyRef{Type: uint8(id.Type), Partition: id.Partition, Version: id.Version}
}

// CreatePartition creates a partition on the drive's default storage
// engine; authKey must be the master or drive key named by authID.
func (d *Drive) CreatePartition(ctx context.Context, authID crypt.KeyID, authKey crypt.Key, part uint16, quota int64) error {
	args := (&drive.PartArgs{Partition: part, Quota: quota, AuthKey: keyRef(authID)}).Encode()
	return status(d.callAdmin(ctx, drive.OpCreatePartition, authKey, args, nil))
}

// CreatePartitionBackend creates a partition served by the named
// storage engine (classic layout or the needle small-object log). The
// choice is persisted on the drive and fixed for the partition's
// lifetime.
func (d *Drive) CreatePartitionBackend(ctx context.Context, authID crypt.KeyID, authKey crypt.Key, part uint16, quota int64, backend object.BackendKind) error {
	args := (&drive.PartArgs{
		Partition: part, Quota: quota,
		Backend: drive.WireBackend(backend),
		AuthKey: keyRef(authID),
	}).Encode()
	return status(d.callAdmin(ctx, drive.OpCreatePartition, authKey, args, nil))
}

// ResizePartition changes a partition quota.
func (d *Drive) ResizePartition(ctx context.Context, authID crypt.KeyID, authKey crypt.Key, part uint16, quota int64) error {
	args := (&drive.PartArgs{Partition: part, Quota: quota, AuthKey: keyRef(authID)}).Encode()
	return status(d.callAdmin(ctx, drive.OpResizePartition, authKey, args, nil))
}

// RemovePartition deletes an empty partition.
func (d *Drive) RemovePartition(ctx context.Context, authID crypt.KeyID, authKey crypt.Key, part uint16) error {
	args := (&drive.PartArgs{Partition: part, AuthKey: keyRef(authID)}).Encode()
	return status(d.callAdmin(ctx, drive.OpRemovePartition, authKey, args, nil))
}

// GetPartition fetches partition metadata.
func (d *Drive) GetPartition(ctx context.Context, authID crypt.KeyID, authKey crypt.Key, part uint16) (object.Partition, error) {
	args := (&drive.PartArgs{Partition: part, AuthKey: keyRef(authID)}).Encode()
	rep, err := d.callAdmin(ctx, drive.OpGetPartition, authKey, args, nil)
	return decoded(rep, err, drive.DecodePartReply)
}

// SetKey installs a key on the drive (the set-security-key request).
func (d *Drive) SetKey(ctx context.Context, authID crypt.KeyID, authKey crypt.Key, target crypt.KeyID, key crypt.Key) error {
	args := (&drive.SetKeyArgs{
		Target:  keyRef(target),
		Key:     key[:],
		AuthKey: keyRef(authID),
	}).Encode()
	return status(d.callAdmin(ctx, drive.OpSetKey, authKey, args, nil))
}
