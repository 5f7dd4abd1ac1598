package drive

import (
	"fmt"
	"time"

	"nasd/internal/object"
	"nasd/internal/rpc"
)

// Op identifies one NASD request type.
type Op uint16

// The NASD interface (Section 4.1: "less than 20 requests").
const (
	OpReadObject Op = iota + 1
	OpWriteObject
	OpGetAttr
	OpSetAttr
	OpCreateObject
	OpRemoveObject
	OpVersionObject // construct a copy-on-write object version
	OpCreatePartition
	OpResizePartition
	OpRemovePartition
	OpGetPartition
	OpListObjects
	OpSetKey
	OpBumpVersion // revoke capabilities by changing the logical version
	OpFlush
	OpExecute  // Active Disks extension (Section 6): run a registered kernel
	OpGetStats // telemetry snapshot: per-op counters, histograms, trace tail
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpReadObject:
		return "read"
	case OpWriteObject:
		return "write"
	case OpGetAttr:
		return "getattr"
	case OpSetAttr:
		return "setattr"
	case OpCreateObject:
		return "create"
	case OpRemoveObject:
		return "remove"
	case OpVersionObject:
		return "version"
	case OpCreatePartition:
		return "mkpart"
	case OpResizePartition:
		return "resizepart"
	case OpRemovePartition:
		return "rmpart"
	case OpGetPartition:
		return "getpart"
	case OpListObjects:
		return "list"
	case OpSetKey:
		return "setkey"
	case OpBumpVersion:
		return "bumpver"
	case OpFlush:
		return "flush"
	case OpExecute:
		return "execute"
	case OpGetStats:
		return "stats"
	}
	return fmt.Sprintf("op(%d)", uint16(o))
}

// --- Argument encodings -------------------------------------------------
//
// Every op has a fixed little-endian argument record built with the rpc
// codec. Bulk data travels in the request/reply Data field, never in
// Args.

// reqPartition extracts the partition a request addresses without a
// full decode: every partition-addressed op leads its argument record
// with the partition (a deliberate wire-layout invariant this function
// depends on). It feeds per-tenant telemetry attribution for requests
// that never reach authorize (insecure mode, early decode failures).
// Ops with no partition in their arguments (setkey, flush, stats)
// report false.
func reqPartition(op Op, args []byte) (uint16, bool) {
	switch op {
	case OpReadObject, OpWriteObject, OpGetAttr, OpSetAttr, OpCreateObject,
		OpRemoveObject, OpVersionObject, OpListObjects, OpBumpVersion, OpExecute,
		OpCreatePartition, OpResizePartition, OpRemovePartition, OpGetPartition:
		if len(args) >= 2 {
			return uint16(args[0]) | uint16(args[1])<<8, true
		}
	}
	return 0, false
}

// ReadArgs requests object data.
type ReadArgs struct {
	Partition uint16
	Object    uint64
	Offset    uint64
	Length    uint64
}

// ReadArgsSize is the length of an encoded ReadArgs.
const ReadArgsSize = 2 + 8 + 8 + 8

// Encode serializes the arguments.
func (a *ReadArgs) Encode() []byte { return a.Append(make([]byte, 0, ReadArgsSize)) }

// Append appends the encoded arguments to b and returns the extended
// slice, so a caller can encode into a buffer it owns.
func (a *ReadArgs) Append(b []byte) []byte {
	var e rpc.Encoder
	e.Reset(b)
	e.U16(a.Partition)
	e.U64(a.Object)
	e.U64(a.Offset)
	e.U64(a.Length)
	return e.Bytes()
}

// DecodeReadArgs parses ReadArgs.
func DecodeReadArgs(b []byte) (ReadArgs, error) {
	d := rpc.NewDecoder(b)
	a := ReadArgs{Partition: d.U16(), Object: d.U64(), Offset: d.U64(), Length: d.U64()}
	return a, d.Err()
}

// WriteArgs stores object data (payload in Request.Data).
type WriteArgs struct {
	Partition uint16
	Object    uint64
	Offset    uint64
}

// WriteArgsSize is the length of an encoded WriteArgs.
const WriteArgsSize = 2 + 8 + 8

// Encode serializes the arguments.
func (a *WriteArgs) Encode() []byte { return a.Append(make([]byte, 0, WriteArgsSize)) }

// Append appends the encoded arguments to b and returns the extended
// slice, so a caller can encode into a buffer it owns.
func (a *WriteArgs) Append(b []byte) []byte {
	var e rpc.Encoder
	e.Reset(b)
	e.U16(a.Partition)
	e.U64(a.Object)
	e.U64(a.Offset)
	return e.Bytes()
}

// DecodeWriteArgs parses WriteArgs.
func DecodeWriteArgs(b []byte) (WriteArgs, error) {
	d := rpc.NewDecoder(b)
	a := WriteArgs{Partition: d.U16(), Object: d.U64(), Offset: d.U64()}
	return a, d.Err()
}

// ObjArgs names an object (getattr, remove, version, bumpver).
type ObjArgs struct {
	Partition uint16
	Object    uint64
}

// Encode serializes the arguments.
func (a *ObjArgs) Encode() []byte {
	var e rpc.Encoder
	e.U16(a.Partition)
	e.U64(a.Object)
	return e.Bytes()
}

// DecodeObjArgs parses ObjArgs.
func DecodeObjArgs(b []byte) (ObjArgs, error) {
	d := rpc.NewDecoder(b)
	a := ObjArgs{Partition: d.U16(), Object: d.U64()}
	return a, d.Err()
}

// SetAttrArgs updates selected attributes.
type SetAttrArgs struct {
	Partition uint16
	Object    uint64
	Mask      uint32
	Attrs     object.Attributes
}

// Encode serializes the arguments.
func (a *SetAttrArgs) Encode() []byte {
	var e rpc.Encoder
	e.U16(a.Partition)
	e.U64(a.Object)
	e.U32(a.Mask)
	encodeAttrs(&e, &a.Attrs)
	return e.Bytes()
}

// DecodeSetAttrArgs parses SetAttrArgs.
func DecodeSetAttrArgs(b []byte) (SetAttrArgs, error) {
	d := rpc.NewDecoder(b)
	a := SetAttrArgs{Partition: d.U16(), Object: d.U64(), Mask: d.U32()}
	a.Attrs = decodeAttrs(d)
	return a, d.Err()
}

func encodeAttrs(e *rpc.Encoder, at *object.Attributes) {
	e.U64(at.Size)
	e.U64(at.Version)
	e.I64(at.CreateTime.Unix())
	e.I64(at.ModTime.Unix())
	e.I64(at.AttrModTime.Unix())
	e.U64(at.Prealloc)
	e.U64(at.Cluster)
	e.Raw(at.Uninterp[:])
}

func decodeAttrs(d *rpc.Decoder) object.Attributes {
	var at object.Attributes
	at.Size = d.U64()
	at.Version = d.U64()
	at.CreateTime = time.Unix(d.I64(), 0).UTC()
	at.ModTime = time.Unix(d.I64(), 0).UTC()
	at.AttrModTime = time.Unix(d.I64(), 0).UTC()
	at.Prealloc = d.U64()
	at.Cluster = d.U64()
	copy(at.Uninterp[:], d.Raw(len(at.Uninterp)))
	return at
}

// EncodeAttrsReply serializes attributes for a getattr reply.
func EncodeAttrsReply(at *object.Attributes) []byte {
	var e rpc.Encoder
	encodeAttrs(&e, at)
	return e.Bytes()
}

// DecodeAttrsReply parses a getattr reply.
func DecodeAttrsReply(b []byte) (object.Attributes, error) {
	d := rpc.NewDecoder(b)
	at := decodeAttrs(d)
	return at, d.Err()
}

// Wire values for PartArgs.Backend. Zero (the default for callers that
// do not care) defers to the drive's configured default engine.
const (
	WireBackendDefault uint8 = 0
	WireBackendClassic uint8 = 1
	WireBackendNeedle  uint8 = 2
)

// WireBackend converts an object-layer backend kind to its wire value.
func WireBackend(k object.BackendKind) uint8 {
	if k == object.BackendNeedle {
		return WireBackendNeedle
	}
	return WireBackendClassic
}

// PartArgs names a partition with an optional quota (create/resize).
type PartArgs struct {
	Partition uint16
	Quota     int64
	// Backend selects the partition's storage engine on create
	// (WireBackend* values); ignored by the other partition requests.
	Backend uint8
	// AuthKey names the key whose MAC authorizes this management
	// request (drive or partition key; Figure 5's security header).
	AuthKey KeyRef
}

// KeyRef is the wire form of a crypt.KeyID.
type KeyRef struct {
	Type      uint8
	Partition uint16
	Version   uint32
}

func encodeKeyRef(e *rpc.Encoder, k KeyRef) {
	e.U8(k.Type)
	e.U16(k.Partition)
	e.U32(k.Version)
}

func decodeKeyRef(d *rpc.Decoder) KeyRef {
	return KeyRef{Type: d.U8(), Partition: d.U16(), Version: d.U32()}
}

// Encode serializes the arguments.
func (a *PartArgs) Encode() []byte {
	var e rpc.Encoder
	e.U16(a.Partition)
	e.I64(a.Quota)
	e.U8(a.Backend)
	encodeKeyRef(&e, a.AuthKey)
	return e.Bytes()
}

// DecodePartArgs parses PartArgs.
func DecodePartArgs(b []byte) (PartArgs, error) {
	d := rpc.NewDecoder(b)
	a := PartArgs{Partition: d.U16(), Quota: d.I64(), Backend: d.U8(), AuthKey: decodeKeyRef(d)}
	return a, d.Err()
}

// SetKeyArgs installs a key (the set-security-key request).
type SetKeyArgs struct {
	Target  KeyRef // key being installed
	Key     []byte // new key material
	AuthKey KeyRef // key authorizing the installation
}

// Encode serializes the arguments.
func (a *SetKeyArgs) Encode() []byte {
	var e rpc.Encoder
	encodeKeyRef(&e, a.Target)
	e.Bytes32(a.Key)
	encodeKeyRef(&e, a.AuthKey)
	return e.Bytes()
}

// DecodeSetKeyArgs parses SetKeyArgs.
func DecodeSetKeyArgs(b []byte) (SetKeyArgs, error) {
	d := rpc.NewDecoder(b)
	a := SetKeyArgs{Target: decodeKeyRef(d)}
	a.Key = d.Bytes32()
	a.AuthKey = decodeKeyRef(d)
	return a, d.Err()
}

// ExecuteArgs runs a registered Active Disk kernel against an object.
type ExecuteArgs struct {
	Partition uint16
	Object    uint64
	Kernel    string
	Params    []byte
}

// Encode serializes the arguments.
func (a *ExecuteArgs) Encode() []byte {
	var e rpc.Encoder
	e.U16(a.Partition)
	e.U64(a.Object)
	e.String(a.Kernel)
	e.Bytes32(a.Params)
	return e.Bytes()
}

// DecodeExecuteArgs parses ExecuteArgs.
func DecodeExecuteArgs(b []byte) (ExecuteArgs, error) {
	d := rpc.NewDecoder(b)
	a := ExecuteArgs{Partition: d.U16(), Object: d.U64()}
	a.Kernel = d.String()
	a.Params = d.Bytes32()
	return a, d.Err()
}

// StatsArgs requests a telemetry snapshot, and picks which spans ride
// along in StatsReply.Spans: every span of trace SpanTrace when that is
// non-zero, else the last TraceN requests this drive served — their
// handler spans, named drive.<op> and annotated with status, bytes_in
// and bytes_out, oldest first. A
// request sent with a zero trace ID (only a hand-built rpc.Request can
// do that) opens no span and so is not in that tail. EventN bounds how
// many structured events of at least EventMin severity ride along.
// Zero counts attach nothing; every count and the SpanTrace result are
// capped at telemetry.MaxTraceResponse.
type StatsArgs struct {
	TraceN    uint32
	SpanTrace uint64
	EventN    uint32
	EventMin  uint8 // telemetry.Severity
}

// Encode serializes the arguments.
func (a *StatsArgs) Encode() []byte {
	var e rpc.Encoder
	e.U32(a.TraceN)
	e.U64(a.SpanTrace)
	e.U32(a.EventN)
	e.U8(a.EventMin)
	return e.Bytes()
}

// DecodeStatsArgs parses StatsArgs.
func DecodeStatsArgs(b []byte) (StatsArgs, error) {
	d := rpc.NewDecoder(b)
	a := StatsArgs{TraceN: d.U32(), SpanTrace: d.U64(), EventN: d.U32(), EventMin: d.U8()}
	return a, d.Err()
}

// EncodeIDReply serializes a single uint64 reply (create/version).
func EncodeIDReply(id uint64) []byte {
	var e rpc.Encoder
	e.U64(id)
	return e.Bytes()
}

// DecodeIDReply parses a single uint64 reply.
func DecodeIDReply(b []byte) (uint64, error) {
	d := rpc.NewDecoder(b)
	id := d.U64()
	return id, d.Err()
}

// EncodeIDListReply serializes an object ID list.
func EncodeIDListReply(ids []uint64) []byte {
	var e rpc.Encoder
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.U64(id)
	}
	return e.Bytes()
}

// DecodeIDListReply parses an object ID list. The count comes from the
// wire, so it is checked against the bytes that follow before anything
// is allocated for it.
func DecodeIDListReply(b []byte) ([]uint64, error) {
	d := rpc.NewDecoder(b)
	n := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n > d.Remaining()/8 {
		return nil, fmt.Errorf("%w: list of %d IDs in %d bytes", rpc.ErrTruncated, n, d.Remaining())
	}
	ids := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, d.U64())
	}
	return ids, d.Err()
}

// EncodePartReply serializes partition info.
func EncodePartReply(p object.Partition) []byte {
	var e rpc.Encoder
	e.U16(p.ID)
	e.I64(p.QuotaBlocks)
	e.I64(p.UsedBlocks)
	e.I64(p.ObjectCount)
	e.U8(uint8(p.Backend))
	return e.Bytes()
}

// DecodePartReply parses partition info.
func DecodePartReply(b []byte) (object.Partition, error) {
	d := rpc.NewDecoder(b)
	p := object.Partition{ID: d.U16(), QuotaBlocks: d.I64(), UsedBlocks: d.I64(), ObjectCount: d.I64(),
		Backend: object.BackendKind(d.U8())}
	return p, d.Err()
}
