package rpc

import (
	"errors"
	"fmt"
	"time"

	"nasd/internal/bufpool"
	"nasd/internal/crypt"
)

// Magic identifies NASD RPC messages on the wire.
const Magic uint32 = 0x4E52_5043 // "NRPC"

// Message kinds.
const (
	kindRequest uint8 = 1
	kindReply   uint8 = 2
)

// Security option flags carried in the security header (Figure 5:
// "indicates key and security options to use when handling request").
const (
	// SecNone disables integrity checks (the configuration the paper's
	// measurements ran, since its prototype lacked MAC hardware).
	SecNone uint8 = 0
	// SecIntegrity enables request/overall digests.
	SecIntegrity uint8 = 1
)

// Status codes carried in replies.
type Status uint16

// Reply status values.
const (
	StatusOK Status = iota
	StatusError
	StatusAuthFailure // capability or digest rejected: revisit file manager
	StatusReplay
	StatusNoObject
	StatusNoPartition
	StatusQuota
	StatusBadRequest
	StatusCapExpired // capability past its expiry: renew at the file manager and retry
	// StatusRetryLater is the typed backpressure rejection: the drive
	// refused to queue the request (admission queue full, tenant over
	// its rate, or the deadline can no longer be met) and demonstrably
	// did NOT execute it, so any op — idempotent or not — may be safely
	// reissued. The reply's Args carry a retry-after hint
	// (RetryAfterHint); clients pace their reissue by it. Shed traffic
	// is flow control, not failure: it must not open circuit breakers
	// or count against drive health.
	StatusRetryLater
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusError:
		return "error"
	case StatusAuthFailure:
		return "auth-failure"
	case StatusReplay:
		return "replay"
	case StatusNoObject:
		return "no-object"
	case StatusNoPartition:
		return "no-partition"
	case StatusQuota:
		return "quota"
	case StatusBadRequest:
		return "bad-request"
	case StatusCapExpired:
		return "cap-expired"
	case StatusRetryLater:
		return "retry-later"
	}
	return fmt.Sprintf("status(%d)", uint16(s))
}

// TraceContext is the span context a request carries for cross-layer
// tracing: the trace ID naming the end-to-end operation and the
// caller's span ID, which becomes the parent of the server-side span.
// It travels outside the signed body (see Request.Sign) — it is
// observability metadata, not an authorization input, and keeping it
// unsigned lets middleboxes or future proxies restamp it without
// holding capability keys.
type TraceContext struct {
	TraceID uint64 // 0 = untraced
	Parent  uint64 // caller's span ID (0 = root)
}

// Request is one NASD RPC request, mirroring Figure 5's layering.
type Request struct {
	MsgID uint64
	Trace TraceContext // span context for cross-layer tracing
	// DeadlineNS is the caller's remaining time budget in nanoseconds
	// at send time (0 = no deadline). It is a relative budget, not an
	// absolute timestamp, so client and drive clocks need not agree.
	// Like Trace it travels outside the signed body: it is a QoS input
	// the drive's load shedder uses to drop requests whose deadline can
	// no longer be met before they consume media time — an adversary
	// who tampers with it can only get their own request dropped.
	DeadlineNS uint64
	Proc       uint16
	SecOpts    uint8
	Cap        []byte // encoded capability public portion (nil if none)
	Args       []byte
	Data       []byte // bulk payload (write data)
	Nonce      crypt.Nonce
	ReqDig     crypt.Digest // keyed by the capability's private portion
}

// Sign sets r.ReqDig to s's digest of r's signing body.
func (r *Request) Sign(s *crypt.Signer) {
	body := r.signingBody(s)
	r.ReqDig = s.MAC(body)
	bufpool.Put(body)
}

// Verify reports, in constant time, whether r.ReqDig is s's digest of
// r's signing body.
func (r *Request) Verify(s *crypt.Signer) bool {
	body := r.signingBody(s)
	defer bufpool.Put(body)
	return s.Verify(body, r.ReqDig)
}

// signingBody returns, in a pooled buffer for the caller to put back,
// the byte string the request digest covers: the procedure, capability,
// args, nonce, and the payload's length and GMAC tag under s. The tag
// is only ever an input to the digest, so a substituted payload
// verifies only on a GHASH collision under a key no attacker sees.
func (r *Request) signingBody(s *crypt.Signer) []byte {
	var e Encoder
	e.Reset(bufpool.Get(96 + len(r.Cap) + len(r.Args))) // room for the tag and its staged nonce
	e.U16(r.Proc)
	e.Bytes32(r.Cap)
	e.Bytes32(r.Args)
	e.U64(r.Nonce.Client)
	e.U64(r.Nonce.Counter)
	e.U32(uint32(len(r.Data)))
	return s.AppendTag(e.Bytes(), r.Nonce, r.Data)
}

// Reply is one NASD RPC reply.
type Reply struct {
	MsgID  uint64
	Status Status
	Msg    string // human-readable error detail (empty on success)
	Args   []byte
	Data   []byte // bulk payload (read data)

	// PooledData, when set by a server-side handler, says Data is a
	// bufpool buffer the server puts back once the reply has been
	// handed to the transport (which never retains the buffers past
	// Send). The handler must not touch Data after returning.
	PooledData bool

	// frame is the pooled receive buffer backing Args/Data on the
	// client side; Release returns it.
	frame []byte
}

// Release returns the pooled receive frame backing this reply's
// Args/Data views, if any. Callers that fully consumed the reply —
// copied Data out, decoded Args into values — may call it to recycle
// the frame; afterwards Args and Data must not be touched. Calling
// Release is always optional (an unreleased frame is simply collected
// by the GC) and safe to call more than once.
func (r *Reply) Release() {
	f := r.frame
	if f == nil {
		return
	}
	r.frame = nil
	r.Args = nil
	r.Data = nil
	bufpool.Put(f)
}

// Errorf builds an error reply.
func Errorf(id uint64, st Status, format string, args ...any) *Reply {
	return &Reply{MsgID: id, Status: st, Msg: fmt.Sprintf(format, args...)}
}

// RetryLater builds a typed backpressure rejection carrying a
// retry-after hint: the server's estimate of when it will have room
// for this request again. The hint rides in Args as a little-endian
// uint64 of nanoseconds, so it survives every transport unchanged.
func RetryLater(id uint64, after time.Duration, format string, args ...any) *Reply {
	if after < 0 {
		after = 0
	}
	var e Encoder
	e.Reset(nil)
	e.U64(uint64(after))
	return &Reply{
		MsgID:  id,
		Status: StatusRetryLater,
		Msg:    fmt.Sprintf(format, args...),
		Args:   e.Bytes(),
	}
}

// RetryAfterHint decodes the retry-after hint from a StatusRetryLater
// reply. It returns (0, false) for other statuses or a malformed hint.
func RetryAfterHint(r *Reply) (time.Duration, bool) {
	if r == nil || r.Status != StatusRetryLater || len(r.Args) < 8 {
		return 0, false
	}
	d := NewDecoder(r.Args)
	ns := d.U64()
	if d.Err() != nil {
		return 0, false
	}
	return time.Duration(ns), true
}

// The wire layout puts the bulk payload LAST in both directions, after
// its 32-bit length prefix: a message is then header bytes followed by
// payload bytes, and the send path can writev {header, payload} without
// ever joining them. AppendRequestHeader/AppendReplyHeader produce the
// header (everything up to and including the payload length prefix);
// EncodeRequest/EncodeReply produce the joined form for callers that
// want one buffer.

// AppendRequestHeader appends r's wire header — every field including
// the Data length prefix but not the Data bytes — to buf and returns
// the extended slice. Transmitting buf followed by r.Data yields
// exactly EncodeRequest(r).
func AppendRequestHeader(buf []byte, r *Request) []byte {
	var e Encoder
	e.Reset(buf)
	e.U32(Magic)
	e.U8(kindRequest)
	e.U64(r.MsgID)
	e.U64(r.Trace.TraceID)
	e.U64(r.Trace.Parent)
	e.U64(r.DeadlineNS)
	e.U16(r.Proc)
	e.U8(r.SecOpts)
	e.Bytes32(r.Cap)
	e.Bytes32(r.Args)
	e.U64(r.Nonce.Client)
	e.U64(r.Nonce.Counter)
	e.Raw(r.ReqDig[:])
	e.U32(uint32(len(r.Data)))
	return e.Bytes()
}

// EncodeRequest serializes a request (without transport framing).
func EncodeRequest(r *Request) []byte {
	return append(AppendRequestHeader(nil, r), r.Data...)
}

// AppendReplyHeader appends r's wire header — every field including the
// Data length prefix but not the Data bytes — to buf and returns the
// extended slice. Transmitting buf followed by r.Data yields exactly
// EncodeReply(r).
func AppendReplyHeader(buf []byte, r *Reply) []byte {
	var e Encoder
	e.Reset(buf)
	e.U32(Magic)
	e.U8(kindReply)
	e.U64(r.MsgID)
	e.U16(uint16(r.Status))
	e.String(r.Msg)
	e.Bytes32(r.Args)
	e.U32(uint32(len(r.Data)))
	return e.Bytes()
}

// EncodeReply serializes a reply (without transport framing).
func EncodeReply(r *Reply) []byte {
	return append(AppendReplyHeader(nil, r), r.Data...)
}

// Decode errors.
var (
	ErrBadMagic = errors.New("rpc: bad magic")
	ErrBadKind  = errors.New("rpc: unexpected message kind")
)

// DecodeMessage parses a wire message into either a *Request or *Reply.
func DecodeMessage(b []byte) (any, error) {
	d := NewDecoder(b)
	if d.U32() != Magic {
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, ErrBadMagic
	}
	switch kind := d.U8(); kind {
	case kindRequest:
		r := &Request{}
		r.MsgID = d.U64()
		r.Trace.TraceID = d.U64()
		r.Trace.Parent = d.U64()
		r.DeadlineNS = d.U64()
		r.Proc = d.U16()
		r.SecOpts = d.U8()
		r.Cap = d.Bytes32()
		r.Args = d.Bytes32()
		r.Nonce.Client = d.U64()
		r.Nonce.Counter = d.U64()
		copy(r.ReqDig[:], d.Raw(crypt.DigestSize))
		r.Data = d.Bytes32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		return r, nil
	case kindReply:
		r := &Reply{}
		r.MsgID = d.U64()
		r.Status = Status(d.U16())
		r.Msg = d.String()
		r.Args = d.Bytes32()
		r.Data = d.Bytes32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		return r, nil
	default:
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, fmt.Errorf("%w: %d", ErrBadKind, kind)
	}
}
