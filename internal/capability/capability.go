// Package capability implements NASD cryptographic capabilities
// (Section 4.1 of the paper; [Gobioff97]).
//
// A capability has a public portion — a description of which rights are
// granted for which object, including the object's approved logical
// version number, an accessible byte region, and an expiration time —
// and a private portion, a keyed digest of the public portion under one
// of the drive's secret keys. The file manager (which shares the drive's
// keys) mints capabilities; the drive validates them without keeping any
// per-capability state: it recomputes the private portion from the
// public fields and its own keys. Clients prove possession of the
// private portion by keying a digest of each request with it; they never
// send the private portion itself.
package capability

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"nasd/internal/crypt"
)

// Rights is a bitmask of operations a capability authorizes.
type Rights uint32

// Rights bits. A file manager typically grants Read|GetAttr for readers
// and adds Write for writers; SetAttr, Remove, and Version are reserved
// for management paths.
const (
	Read Rights = 1 << iota
	Write
	GetAttr
	SetAttr
	Remove
	Version   // create a copy-on-write version of the object
	CreateObj // create objects within the partition
	PartAdmin // partition administration (resize, set keys)
)

// String lists the granted rights.
func (r Rights) String() string {
	names := []struct {
		bit  Rights
		name string
	}{
		{Read, "read"}, {Write, "write"}, {GetAttr, "getattr"},
		{SetAttr, "setattr"}, {Remove, "remove"}, {Version, "version"},
		{CreateObj, "create"}, {PartAdmin, "admin"},
	}
	s := ""
	for _, n := range names {
		if r&n.bit != 0 {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	if s == "" {
		return "none"
	}
	return s
}

// Has reports whether all rights in want are granted.
func (r Rights) Has(want Rights) bool { return r&want == want }

// Public is the public portion of a capability. It travels in the clear
// with every request (Figure 5) and fully determines the private portion
// given the drive's keys.
type Public struct {
	DriveID   uint64      // the drive this capability is for
	Partition uint16      // partition holding the object
	Object    uint64      // object identifier (0 = partition-scope rights)
	ObjVer    uint64      // approved logical version number of the object
	Rights    Rights      // operations granted
	Offset    uint64      // start of accessible byte region
	Length    uint64      // length of accessible region (0 = unbounded)
	Expiry    int64       // expiration, nanoseconds since epoch (0 = never)
	Key       crypt.KeyID // which drive key mints/validates this capability
}

// TenantKey renders a partition as the canonical per-tenant metric
// label ("part.<N>"). The capability's partition identity *is* the
// tenant identity in this architecture — the file manager grants a
// client access to a partition, and everything the drive attributes
// per tenant (op counters, latency histograms, QoS budgets to come)
// keys off it. Owning the label here keeps drive telemetry, the fleet
// view, and the bench reports agreeing on one spelling.
// Each partition's label is built once: the drive asks for it on every
// request it classifies.
func TenantKey(part uint16) string {
	tenantKeys.RLock()
	k, ok := tenantKeys.m[part]
	tenantKeys.RUnlock()
	if ok {
		return k
	}
	k = "part." + strconv.FormatUint(uint64(part), 10)
	tenantKeys.Lock()
	tenantKeys.m[part] = k
	tenantKeys.Unlock()
	return k
}

// tenantKeys memoizes TenantKey; a uint16 bounds it at 65536 labels.
var tenantKeys = struct {
	sync.RWMutex
	m map[uint16]string
}{m: make(map[uint16]string)}

// TenantKey returns the capability's tenant label (see the package
// function): the identity the drive splits per-tenant telemetry by.
func (p *Public) TenantKey() string { return TenantKey(p.Partition) }

// EncodedSize is the length of Public's canonical encoding.
const EncodedSize = 8 + 2 + 8 + 8 + 4 + 8 + 8 + 8 + 1 + 2 + 4

// Encode serializes the public portion canonically (the byte string that
// is digested to form the private portion).
func (p *Public) Encode() []byte { return p.Append(make([]byte, 0, EncodedSize)) }

// Append appends the canonical encoding to b and returns the extended
// slice: Encode into a buffer the caller owns, which is how a client
// puts the public portion into every request without allocating.
func (p *Public) Append(b []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint64(b, p.DriveID)
	b = le.AppendUint16(b, p.Partition)
	b = le.AppendUint64(b, p.Object)
	b = le.AppendUint64(b, p.ObjVer)
	b = le.AppendUint32(b, uint32(p.Rights))
	b = le.AppendUint64(b, p.Offset)
	b = le.AppendUint64(b, p.Length)
	b = le.AppendUint64(b, uint64(p.Expiry))
	b = append(b, byte(p.Key.Type))
	b = le.AppendUint16(b, p.Key.Partition)
	return le.AppendUint32(b, p.Key.Version)
}

// DecodePublic parses a canonical encoding produced by Encode.
func DecodePublic(b []byte) (Public, error) {
	var p Public
	if len(b) != EncodedSize {
		return p, fmt.Errorf("capability: bad public encoding length %d", len(b))
	}
	le := binary.LittleEndian
	p.DriveID = le.Uint64(b[0:])
	p.Partition = le.Uint16(b[8:])
	p.Object = le.Uint64(b[10:])
	p.ObjVer = le.Uint64(b[18:])
	p.Rights = Rights(le.Uint32(b[26:]))
	p.Offset = le.Uint64(b[30:])
	p.Length = le.Uint64(b[38:])
	p.Expiry = int64(le.Uint64(b[46:]))
	p.Key = crypt.KeyID{
		Type:      crypt.KeyType(b[54]),
		Partition: le.Uint16(b[55:]),
		Version:   le.Uint32(b[57:]),
	}
	return p, nil
}

// Capability pairs the public portion with the private portion the
// client holds. Only the file manager (minting) and the client (use)
// ever see Private; it is never transmitted to the drive.
type Capability struct {
	Public  Public
	Private crypt.Key
}

// Mint creates a capability: Private = MAC(key, Encode(Public)).
// key must be the drive key named by pub.Key.
func Mint(pub Public, key crypt.Key) Capability {
	d := crypt.MAC(key, pub.Encode())
	var priv crypt.Key
	copy(priv[:], d[:crypt.KeySize])
	return Capability{Public: pub, Private: priv}
}

// PrivateFor recomputes the private portion from the public fields; this
// is what a drive does on every request, requiring no stored state.
func PrivateFor(pub Public, key crypt.Key) crypt.Key {
	d := crypt.MAC(key, pub.Encode())
	var priv crypt.Key
	copy(priv[:], d[:crypt.KeySize])
	return priv
}

// SignRequest produces the request digest for a request body: a digest
// of body keyed by the capability's private portion. body must encode
// every request field that matters (opcode, arguments, nonce) so a
// tampered request fails verification.
func (c Capability) SignRequest(body []byte) crypt.Digest {
	return crypt.MAC(c.Private, body)
}

// Validation errors. A drive maps these to "send the client back to the
// file manager".
var (
	ErrExpired      = errors.New("capability: expired")
	ErrWrongDrive   = errors.New("capability: issued for a different drive")
	ErrWrongObject  = errors.New("capability: issued for a different object")
	ErrStaleVersion = errors.New("capability: object version revoked")
	ErrRights       = errors.New("capability: operation not permitted")
	ErrRegion       = errors.New("capability: byte range not permitted")
	ErrBadDigest    = errors.New("capability: request digest invalid")
	ErrNoKey        = errors.New("capability: minting key unknown to drive")
)

// Check describes one requested operation for validation.
type Check struct {
	DriveID uint64
	Part    uint16
	Object  uint64
	ObjVer  uint64 // current logical version number of the object
	Op      Rights // the right(s) the operation requires
	Offset  uint64 // start of the byte range touched
	Length  uint64 // length of the byte range touched (0 for non-data ops)
	Now     time.Time
}

// Validate verifies that the capability whose public portion is pub
// authorizes the operation in chk, and that digest is body keyed by the
// capability's private portion. keys resolves the drive's secret keys.
// It is the complete drive-side admission check and keeps no state.
func Validate(pub Public, body []byte, digest crypt.Digest, chk Check, keys *crypt.Hierarchy) error {
	if err := checkPolicy(pub, chk); err != nil {
		return err
	}
	key, err := keys.Lookup(pub.Key)
	if err != nil {
		return ErrNoKey
	}
	priv := PrivateFor(pub, key)
	if !crypt.Verify(priv, body, digest) {
		return ErrBadDigest
	}
	return nil
}
