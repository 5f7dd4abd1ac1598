package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"sync/atomic"
)

// Request IDs give every client-initiated operation an identity that
// survives the trip across the RPC plane: the client stamps the ID into
// the wire request (rpc.Request.Trace), the drive records it as the
// trace ID of its handler span, and a multi-drive operation (a cheops striped read) shares
// one ID across every component request it fans out. Like span IDs,
// they are a counter salted with a random per-process high word: a
// drive outlives many short-lived clients (think repeated nasdctl
// invocations), and since request IDs double as trace IDs, two clients
// both counting from 1 would interleave unrelated operations into one
// trace on the drive.

type requestIDKey struct{}

var requestIDSalt = func() uint64 {
	var b [4]byte
	_, _ = rand.Read(b[:])
	return uint64(binary.LittleEndian.Uint32(b[:])) << 32
}()

var lastRequestID atomic.Uint64

// NextRequestID allocates a fresh request ID, disjoint across processes
// (never 0; 0 on the wire means "untraced").
func NextRequestID() uint64 {
	return requestIDSalt | (lastRequestID.Add(1) & 0xffffffff)
}

// WithRequestID returns ctx carrying a fresh request ID, and the ID.
// If ctx already carries one it is kept, so the outermost caller wins
// and fan-out layers inherit.
func WithRequestID(ctx context.Context) (context.Context, uint64) {
	if id, ok := RequestIDFrom(ctx); ok {
		return ctx, id
	}
	id := NextRequestID()
	return context.WithValue(ctx, requestIDKey{}, id), id
}

// WithExplicitRequestID returns ctx carrying the given ID, replacing
// any existing one (used by servers resuming a trace from the wire).
func WithExplicitRequestID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom extracts the request ID from ctx.
func RequestIDFrom(ctx context.Context) (uint64, bool) {
	id, ok := ctx.Value(requestIDKey{}).(uint64)
	return id, ok && id != 0
}
