// Package drive implements a NASD drive: the object system plus
// capability enforcement plus the RPC interface of Section 4.1 — fewer
// than 20 requests covering object data and attributes, object and
// partition lifecycle, copy-on-write versioning, and key management.
//
// The drive measures what each request costs: its service time is
// split into the same three components as Table 1 — digest
// (capability/MAC work, timed inside authorize), media (the
// instrumented block device's busy-time delta), and object system (the
// remainder). Each request is recorded in two places and no others: the
// telemetry.Registry (the drive.op.<op>.* aggregates, next to cache
// hit/miss counters) and the span log (one drive.<op> handler span per
// request under the client's trace ID, with the split as its children).
// The stats op returns both over the NASD interface itself; see
// DESIGN.md §5.
package drive
