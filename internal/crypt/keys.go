// Package crypt implements the cryptographic substrate of a NASD drive:
// keyed message digests, the paper's four-level key hierarchy, and a
// nonce window for replay defence.
//
// The paper proposes hardware MACs built from multiple DES blocks
// [Verbauwhede87, Knudsen96]; the prototype ran with security disabled.
// We substitute HMAC-SHA256 from the standard library — the modern
// realization of the keyed digests [Bellare96] the design calls for —
// and allow per-drive disabling exactly as the paper's measurements did.
// Bulk payloads enter a digest as an AES-GMAC tag (Signer.AppendTag):
// the AES and carry-less-multiply units of today's CPUs are the MAC
// hardware the paper assumed.
package crypt

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// KeySize is the size in bytes of every key in the hierarchy.
const KeySize = 32

// DigestSize is the size in bytes of a keyed digest.
const DigestSize = sha256.Size

// Key is a secret key for keyed digests.
type Key [KeySize]byte

// Digest is a keyed message digest.
type Digest [DigestSize]byte

// NewRandomKey returns a fresh key from the system entropy source.
func NewRandomKey() Key {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		panic("crypt: entropy source failed: " + err.Error())
	}
	return k
}

// KeyFromBytes builds a key from b, which must be exactly KeySize long.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != KeySize {
		return k, fmt.Errorf("crypt: key must be %d bytes, got %d", KeySize, len(b))
	}
	copy(k[:], b)
	return k, nil
}

// MAC computes the keyed digest of msg under k.
func MAC(k Key, msg []byte) Digest {
	m := hmac.New(sha256.New, k[:])
	m.Write(msg)
	var d Digest
	m.Sum(d[:0])
	return d
}

// MAC2 computes the keyed digest of the concatenation of two byte slices
// without allocating the concatenation.
func MAC2(k Key, a, b []byte) Digest {
	m := hmac.New(sha256.New, k[:])
	m.Write(a)
	m.Write(b)
	var d Digest
	m.Sum(d[:0])
	return d
}

// Verify reports whether d is the keyed digest of msg under k, in
// constant time.
func Verify(k Key, msg []byte, d Digest) bool {
	want := MAC(k, msg)
	return subtle.ConstantTimeCompare(want[:], d[:]) == 1
}

// Equal compares two digests in constant time.
func Equal(a, b Digest) bool {
	return subtle.ConstantTimeCompare(a[:], b[:]) == 1
}

// DeriveKey derives a child key from parent for the given label and
// index, giving each level of the hierarchy an independent key.
func DeriveKey(parent Key, label string, index uint64) Key {
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], index)
	d := MAC2(parent, []byte("nasd-derive:"+label+":"), idx[:])
	var k Key
	copy(k[:], d[:KeySize])
	return k
}

// KeyType identifies a level of the paper's four-level key hierarchy
// (Section 4.1 / [Gobioff97]): the master key manages the hierarchy, the
// drive key mints drive-wide capabilities, and per-partition partition
// and working keys mint object capabilities. Working keys are the
// routinely rotated level; partition keys survive working-key changes.
type KeyType uint8

const (
	// MasterKey is the root of the hierarchy, held by the drive owner.
	MasterKey KeyType = iota
	// DriveKey manages partitions and mints drive-scope capabilities.
	DriveKey
	// PartitionKey mints capabilities for one partition.
	PartitionKey
	// WorkingKey is the frequently-rotated capability-minting key for
	// one partition.
	WorkingKey
)

// String returns the key type name.
func (t KeyType) String() string {
	switch t {
	case MasterKey:
		return "master"
	case DriveKey:
		return "drive"
	case PartitionKey:
		return "partition"
	case WorkingKey:
		return "working"
	}
	return fmt.Sprintf("KeyType(%d)", uint8(t))
}

// KeyID names one key in a drive's hierarchy: its level, the partition
// it belongs to (zero for master/drive keys) and a version that
// increments on rotation.
type KeyID struct {
	Type      KeyType
	Partition uint16
	Version   uint32
}

// String formats the key ID.
func (id KeyID) String() string {
	return fmt.Sprintf("%s/p%d/v%d", id.Type, id.Partition, id.Version)
}

// ErrNoSuchKey is returned when a key lookup fails.
var ErrNoSuchKey = errors.New("crypt: no such key")

// Hierarchy holds a drive's key hierarchy. The master and drive keys are
// singletons; partition and working keys exist per partition and are
// versioned so rotation invalidates outstanding capabilities minted
// under old working keys without touching other partitions. It is safe
// for concurrent use: drives consult it from every connection.
type Hierarchy struct {
	mu     sync.RWMutex
	master Key
	drive  Key
	// current versions and keys per partition
	partVer map[uint16]uint32
	partKey map[KeyID]Key
	workVer map[uint16]uint32
	workKey map[KeyID]Key
}

// NewHierarchy creates a hierarchy rooted at master. The drive key is
// derived from the master key.
func NewHierarchy(master Key) *Hierarchy {
	return &Hierarchy{
		master:  master,
		drive:   DeriveKey(master, "drive", 0),
		partVer: make(map[uint16]uint32),
		partKey: make(map[KeyID]Key),
		workVer: make(map[uint16]uint32),
		workKey: make(map[KeyID]Key),
	}
}

// AddPartition installs version-1 partition and working keys for
// partition p. It is idempotent only for new partitions; re-adding an
// existing partition is an error.
func (h *Hierarchy) AddPartition(p uint16) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.partVer[p]; ok {
		return fmt.Errorf("crypt: partition %d already has keys", p)
	}
	h.partVer[p] = 1
	h.workVer[p] = 1
	h.partKey[KeyID{PartitionKey, p, 1}] = DeriveKey(h.drive, "partition", uint64(p)<<32|1)
	h.workKey[KeyID{WorkingKey, p, 1}] = DeriveKey(h.drive, "working", uint64(p)<<32|1)
	return nil
}

// RemovePartition discards all keys for partition p.
func (h *Hierarchy) RemovePartition(p uint16) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for id := range h.partKey {
		if id.Partition == p {
			delete(h.partKey, id)
		}
	}
	for id := range h.workKey {
		if id.Partition == p {
			delete(h.workKey, id)
		}
	}
	delete(h.partVer, p)
	delete(h.workVer, p)
}

// SetKey explicitly installs a key (the NASD interface's set-security-key
// request). Installing a master key requires presenting nothing here —
// authorization is enforced by the drive layer, which requires the
// request to be authenticated under the current master or drive key.
// Installing a partition or working key bumps that partition's current
// version.
func (h *Hierarchy) SetKey(id KeyID, k Key) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch id.Type {
	case MasterKey:
		h.master = k
		return nil
	case DriveKey:
		h.drive = k
		return nil
	case PartitionKey:
		cur := h.partVer[id.Partition]
		if id.Version != cur+1 {
			return fmt.Errorf("crypt: partition key version must be %d, got %d", cur+1, id.Version)
		}
		h.partVer[id.Partition] = id.Version
		h.partKey[id] = k
		return nil
	case WorkingKey:
		cur := h.workVer[id.Partition]
		if id.Version != cur+1 {
			return fmt.Errorf("crypt: working key version must be %d, got %d", cur+1, id.Version)
		}
		h.workVer[id.Partition] = id.Version
		h.workKey[id] = k
		return nil
	}
	return fmt.Errorf("crypt: unknown key type %v", id.Type)
}

// RotateWorkingKey derives and installs a fresh working key for
// partition p, returning its new ID. Capabilities minted under the old
// key stop verifying, which is the paper's bulk-revocation mechanism.
func (h *Hierarchy) RotateWorkingKey(p uint16) (KeyID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur, ok := h.workVer[p]
	if !ok {
		return KeyID{}, ErrNoSuchKey
	}
	id := KeyID{WorkingKey, p, cur + 1}
	k := DeriveKey(h.drive, "working", uint64(p)<<32|uint64(id.Version))
	h.workVer[p] = id.Version
	h.workKey[id] = k
	return id, nil
}

// Lookup returns the key named by id. Only current-version partition and
// working keys resolve: once rotated, old versions are forgotten, so
// capabilities minted under them can no longer be validated (that is the
// point of rotation).
func (h *Hierarchy) Lookup(id KeyID) (Key, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	switch id.Type {
	case MasterKey:
		if id.Partition != 0 || id.Version != 0 {
			return Key{}, ErrNoSuchKey
		}
		return h.master, nil
	case DriveKey:
		if id.Partition != 0 || id.Version != 0 {
			return Key{}, ErrNoSuchKey
		}
		return h.drive, nil
	case PartitionKey:
		if h.partVer[id.Partition] != id.Version {
			return Key{}, ErrNoSuchKey
		}
		k, ok := h.partKey[id]
		if !ok {
			return Key{}, ErrNoSuchKey
		}
		return k, nil
	case WorkingKey:
		if h.workVer[id.Partition] != id.Version {
			return Key{}, ErrNoSuchKey
		}
		k, ok := h.workKey[id]
		if !ok {
			return Key{}, ErrNoSuchKey
		}
		return k, nil
	}
	return Key{}, ErrNoSuchKey
}

// CurrentWorkingKey returns the current working key and its ID for
// partition p.
func (h *Hierarchy) CurrentWorkingKey(p uint16) (KeyID, Key, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	v, ok := h.workVer[p]
	if !ok {
		return KeyID{}, Key{}, ErrNoSuchKey
	}
	id := KeyID{WorkingKey, p, v}
	k, ok := h.workKey[id]
	if !ok {
		return KeyID{}, Key{}, ErrNoSuchKey
	}
	return id, k, nil
}

// CurrentPartitionKey returns the current partition key and its ID.
func (h *Hierarchy) CurrentPartitionKey(p uint16) (KeyID, Key, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	v, ok := h.partVer[p]
	if !ok {
		return KeyID{}, Key{}, ErrNoSuchKey
	}
	id := KeyID{PartitionKey, p, v}
	k, ok := h.partKey[id]
	if !ok {
		return KeyID{}, Key{}, ErrNoSuchKey
	}
	return id, k, nil
}
