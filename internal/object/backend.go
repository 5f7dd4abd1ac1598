package object

import (
	"errors"
	"fmt"
	"strings"
)

// BackendKind names a per-partition storage engine. The kind is chosen
// at CreatePartition time, persisted in the control object's partition
// table, and every object operation on the partition dispatches to the
// engine it names. The drive, capability, and RPC layers above never
// see the concrete engine.
type BackendKind uint8

// The registered backends.
const (
	// BackendClassic is the paper's layout engine: superblock +
	// refcounted allocator + onode table + direct/indirect block maps
	// (internal/layout), fronted by the sharded buffer cache. It is the
	// default, supports every operation including copy-on-write
	// versions, and is always present (the control object lives in it).
	BackendClassic BackendKind = iota
	// BackendNeedle is the Haystack-style small-object engine
	// (internal/needle): an append-only needle log with a fully
	// in-memory index, one media I/O per small-object read, background
	// compaction, and an on-disk index snapshot for fast restart.
	BackendNeedle
)

// String names the backend kind.
func (k BackendKind) String() string {
	switch k {
	case BackendClassic:
		return "classic"
	case BackendNeedle:
		return "needle"
	}
	return fmt.Sprintf("backend(%d)", uint8(k))
}

// ParseBackendKind parses a backend name ("classic" or "needle").
func ParseBackendKind(s string) (BackendKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "classic", "layout":
		return BackendClassic, nil
	case "needle", "haystack", "log":
		return BackendNeedle, nil
	}
	return BackendClassic, fmt.Errorf("object: unknown backend %q (want classic or needle)", s)
}

// ErrBackendMismatch is returned for operations a partition's backend
// does not implement (e.g. copy-on-write versions on a needle
// partition). The drive maps it to a bad-request status so clients see
// a typed, non-retryable rejection.
var ErrBackendMismatch = errors.New("object: operation not supported by this partition's backend")

// StoreBackend is the per-partition storage engine interface carved out
// of the object store. The Store above it owns what is common to every
// engine — the per-object lock manager, the partition table with quota
// and object-count accounting, and control-object persistence — and
// calls a backend with the relevant object lock already held (exclusive
// for mutations, shared for reads). Backends own everything below:
// on-media placement, per-object metadata, and their own media I/O
// path.
//
// Quota is split between the layers: the Store admits and settles block
// charges through its quotaAccount (handed to each backend at
// construction), while the backend decides when blocks are actually
// consumed or released and reports object charges via Charge.
type StoreBackend interface {
	// Kind identifies the engine.
	Kind() BackendKind
	// Create materializes object id (allocated by the Store from the
	// volume-wide ID counter) in partition part.
	Create(part uint16, id uint64) error
	// Remove deletes an object and returns the quota charge it freed.
	Remove(part uint16, obj uint64) (freed int64, err error)
	// Read returns up to n bytes at off, clipped to the object size.
	// seq is the object's sequential-read tracker (owned by the lock
	// entry above); engines with readahead advance it, others ignore it.
	Read(part uint16, obj uint64, off uint64, n int, seq *SeqTracker) ([]byte, error)
	// Write stores data at off, extending the object as needed and
	// charging the partition quota through the store's quota account.
	Write(part uint16, obj uint64, off uint64, data []byte) error
	// GetAttr returns the object's attributes.
	GetAttr(part uint16, obj uint64) (Attributes, error)
	// SetAttr updates the attributes selected by mask (including
	// truncation via SetSize).
	SetAttr(part uint16, obj uint64, a Attributes, mask SetAttrMask) error
	// List returns the IDs of the partition's objects.
	List(part uint16) ([]uint64, error)
	// Charge reports the object's current quota charge in blocks (its
	// footprint or capacity reservation, whichever is larger).
	Charge(part uint16, obj uint64) (int64, error)
	// VersionObject constructs a copy-on-write version and returns the
	// new object's ID, or ErrBackendMismatch if the engine does not
	// support versions. Quota admission for the clone happens above.
	VersionObject(part uint16, obj uint64) (uint64, error)
	// Flush forces engine state (data and metadata) toward the device.
	Flush() error
}

// quotaAccount is the Store's quota ledger as seen by backends: charges
// admit against the partition quota (failing with ErrQuota), settles
// adjust usage unconditionally. Partition 0 and removed partitions are
// uncharged no-ops, matching the pre-interface behavior.
type quotaAccount interface {
	// chargeBlocks admits delta blocks against part's quota (delta <= 0
	// always succeeds and just adjusts usage).
	chargeBlocks(part uint16, delta int64) error
	// settleBlocks adjusts part's usage with no admission check.
	settleBlocks(part uint16, delta int64)
	// quotaed reports whether part currently enforces a quota.
	quotaed(part uint16) bool
}
