package capability

import (
	"nasd/internal/crypt"
)

// verified is a memoized validation secret: the private portion derived
// from a capability's public fields plus a reusable HMAC signer keyed
// by it, and the minting key the derivation used.
type verified struct {
	mint   crypt.Key // the drive key the entry was derived under
	signer *crypt.Signer
}

// Verifier performs drive-side capability validation with a digest fast
// path. The stateless check recomputes the private portion
// (HMAC(working key, Encode(Public))) and builds fresh HMAC state for
// the request digest on every request; Verifier memoizes both per
// distinct Public, as a crypt.Signer, so the steady state of a
// streaming client is one digest over the request body and zero
// key-schedule setups.
//
// Revocation semantics are identical to the stateless Validate:
//
//   - Every request still performs keys.Lookup(pub.Key), so rotating a
//     working key (bulk revocation) rejects old capabilities
//     immediately — the cache only skips the private-portion HMAC, not
//     the lookup.
//   - A cache entry additionally pins the minting key it was derived
//     under; if Lookup returns a different key for the same KeyID
//     (explicit SetKey of a master/drive key at an unversioned ID), the
//     entry is recomputed rather than trusted.
//   - Expiry, rights, region, and version checks run per request,
//     before any digest work, exactly as in Validate.
//
// Safe for concurrent use.
type Verifier struct {
	keys  *crypt.Hierarchy
	cache *crypt.DigestCache[Public, verified]
}

// DefaultVerifierCap is the default capacity of a Verifier's cache —
// comfortably more than the number of distinct in-flight capabilities a
// drive sees (one per open file per client), small enough to be
// negligible state.
const DefaultVerifierCap = 1024

// NewVerifier returns a Verifier over keys with a cache of the given
// capacity (<= 0 selects DefaultVerifierCap).
func NewVerifier(keys *crypt.Hierarchy, capacity int) *Verifier {
	if capacity <= 0 {
		capacity = DefaultVerifierCap
	}
	return &Verifier{
		keys:  keys,
		cache: crypt.NewDigestCache[Public, verified](capacity),
	}
}

// Cache exposes the underlying digest cache for telemetry publication
// and stats.
func (v *Verifier) Cache() *crypt.DigestCache[Public, verified] { return v.cache }

// Signer is the cached form of the package-level Validate: once the
// capability whose public portion is pub passes the policy checks for
// chk, it returns the signer keyed by the capability's private portion,
// for the caller to verify the request digest with. It returns the
// errors Validate returns for the same inputs, but for ErrBadDigest,
// which is the caller's to report.
func (v *Verifier) Signer(pub Public, chk Check) (*crypt.Signer, error) {
	if err := checkPolicy(pub, chk); err != nil {
		return nil, err
	}
	// The key lookup is NOT cached: it is a cheap map read, and doing
	// it per request is what makes key rotation revoke immediately.
	key, err := v.keys.Lookup(pub.Key)
	if err != nil {
		return nil, ErrNoKey
	}
	ent, ok := v.cache.Get(pub)
	if !ok || ent.mint != key {
		priv := PrivateFor(pub, key)
		ent = verified{mint: key, signer: crypt.NewSigner(priv)}
		v.cache.Put(pub, ent)
	}
	return ent.signer, nil
}

// checkPolicy runs the non-cryptographic admission checks shared by
// Validate and Verifier.Signer.
func checkPolicy(pub Public, chk Check) error {
	if pub.DriveID != chk.DriveID {
		return ErrWrongDrive
	}
	if pub.Partition != chk.Part || (pub.Object != 0 && pub.Object != chk.Object) {
		return ErrWrongObject
	}
	// Partition-scope capabilities (Object 0) are not bound to one
	// object's logical version; revocation for them is expiry or key
	// rotation. Object capabilities die when the version changes.
	if pub.Object != 0 && pub.ObjVer != chk.ObjVer {
		return ErrStaleVersion
	}
	if !pub.Rights.Has(chk.Op) {
		return ErrRights
	}
	if pub.Expiry != 0 && chk.Now.UnixNano() > pub.Expiry {
		return ErrExpired
	}
	if chk.Length > 0 && pub.Length != 0 {
		end := chk.Offset + chk.Length
		capEnd := pub.Offset + pub.Length
		if chk.Offset < pub.Offset || end > capEnd || end < chk.Offset {
			return ErrRegion
		}
	} else if chk.Length > 0 && pub.Offset > chk.Offset {
		return ErrRegion
	}
	return nil
}
