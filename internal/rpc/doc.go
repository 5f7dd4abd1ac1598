// Package rpc implements the NASD prototype's communication layer: a
// compact binary message codec following the packet layering of Figure 5
// (network header, RPC header, security header, capability, request
// args, nonce, request digest, overall digest), message framing, and two
// transports — in-process channels and TCP.
//
// The paper used DCE RPC 1.0.3 over UDP/IP and found it dominated the
// drive's instruction budget ("workstation-class implementations of
// communications certainly are [too expensive]"). This hand-rolled
// encoding is the kind of lean drive protocol the paper anticipates;
// the performance experiments separately model the heavyweight DCE
// stack's instruction costs to reproduce Table 1 (Section 4.4).
//
// Both endpoints are multiplexed and context-aware: a client issues
// concurrent calls over one connection and the server dispatches them
// concurrently, which is what makes the Figure 9-style read/write
// pipelining in package client possible. When constructed with
// WithMetrics / WithClientMetrics, the endpoints publish their totals
// into a telemetry.Registry (the rpc.server.* and rpc.client.*
// families of DESIGN.md §5): the server counts connections, requests
// in flight and wire bytes and leaves per-op books and timing to its
// handler (the drive books each request once), and the client also
// times its calls. The Request.Trace field carries the caller's span
// context — {trace ID, parent span ID} — across the wire, outside the
// signed message body, so drive-side spans link into the client's
// trace (DESIGN.md §5 "Tracing").
package rpc
