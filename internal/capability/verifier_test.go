package capability

import (
	"errors"
	"testing"
	"time"

	"nasd/internal/crypt"
)

// validate is Verifier.Signer followed by the digest check a drive makes
// with the signer it returns: the cached counterpart of Validate.
func validate(v *Verifier, pub Public, body []byte, digest crypt.Digest, chk Check) error {
	s, err := v.Signer(pub, chk)
	if err != nil {
		return err
	}
	if !s.Verify(body, digest) {
		return ErrBadDigest
	}
	return nil
}

// TestVerifierEquivalence drives Verifier.Signer and the stateless
// Validate through the same matrix of good and bad inputs and requires
// identical verdicts — including on cache hits.
func TestVerifierEquivalence(t *testing.T) {
	h, id, k := testHierarchy(t)
	v := NewVerifier(h, 16)
	cap := Mint(basePublic(id), k)
	body := []byte("READ obj=42 off=0 len=4096 nonce=7")
	good := cap.SignRequest(body)

	cases := []struct {
		name   string
		pub    Public
		body   []byte
		digest crypt.Digest
		chk    Check
	}{
		{"valid", cap.Public, body, good, baseCheck()},
		{"bad digest", cap.Public, body, crypt.MAC(crypt.NewRandomKey(), body), baseCheck()},
		{"tampered body", cap.Public, []byte("READ obj=43"), good, baseCheck()},
		{"wrong drive", cap.Public, body, good, func() Check { c := baseCheck(); c.DriveID = 78; return c }()},
		{"wrong object", cap.Public, body, good, func() Check { c := baseCheck(); c.Object = 43; return c }()},
		{"stale version", cap.Public, body, good, func() Check { c := baseCheck(); c.ObjVer = 4; return c }()},
		{"missing right", cap.Public, body, good, func() Check { c := baseCheck(); c.Op = Write; return c }()},
		{"out of region", cap.Public, body, good, func() Check { c := baseCheck(); c.Offset = 2 << 20; c.Length = 4096; return c }()},
		{"expired", cap.Public, body, good, func() Check { c := baseCheck(); c.Now = time.Now().Add(2 * time.Hour); return c }()},
		{"unknown key", func() Public {
			p := cap.Public
			p.Key.Version = 99
			return p
		}(), body, good, baseCheck()},
	}
	// Two passes: the first populates the Verifier cache, the second
	// exercises the hit path. Both must agree with stateless Validate.
	for pass := 0; pass < 2; pass++ {
		for _, tc := range cases {
			want := Validate(tc.pub, tc.body, tc.digest, tc.chk, h)
			got := validate(v, tc.pub, tc.body, tc.digest, tc.chk)
			if !errors.Is(got, want) && (got == nil) != (want == nil) {
				t.Fatalf("pass %d, %s: Verifier=%v, Validate=%v", pass, tc.name, got, want)
			}
			if want != nil && got == nil || want == nil && got != nil || (want != nil && got.Error() != want.Error()) {
				t.Fatalf("pass %d, %s: Verifier=%v, Validate=%v", pass, tc.name, got, want)
			}
		}
	}
	if st := v.Cache().Stats(); st.Hits == 0 {
		t.Fatal("second pass produced no cache hits")
	}
}

// TestVerifierRotationRevokes is the security property the cache must
// not break: after RotateWorkingKey, a capability minted under the old
// working key is rejected even though its derived secrets are still
// sitting in the cache.
func TestVerifierRotationRevokes(t *testing.T) {
	h, id, k := testHierarchy(t)
	v := NewVerifier(h, 16)
	cap := Mint(basePublic(id), k)
	body := []byte("READ obj=42")
	dig := cap.SignRequest(body)

	if err := validate(v, cap.Public, body, dig, baseCheck()); err != nil {
		t.Fatalf("pre-rotation validate: %v", err)
	}
	if v.Cache().Len() == 0 {
		t.Fatal("validate did not populate the cache")
	}
	if _, err := h.RotateWorkingKey(1); err != nil {
		t.Fatal(err)
	}
	if err := validate(v, cap.Public, body, dig, baseCheck()); !errors.Is(err, ErrNoKey) {
		t.Fatalf("post-rotation validate = %v, want ErrNoKey (cached entry must not bypass rotation)", err)
	}

	// A capability minted under the NEW working key validates, and the
	// drive never saw it before — pure cold path after rotation.
	nid, nk, err := h.CurrentWorkingKey(1)
	if err != nil {
		t.Fatal(err)
	}
	pub := basePublic(nid)
	ncap := Mint(pub, nk)
	if err := validate(v, ncap.Public, body, ncap.SignRequest(body), baseCheck()); err != nil {
		t.Fatalf("post-rotation fresh capability rejected: %v", err)
	}
}

// TestVerifierKeyReplacementRecomputes covers the unversioned-key edge:
// replacing the drive key via SetKey keeps the same KeyID, so the
// per-request Lookup alone cannot catch it — the cached entry's pinned
// minting key must force recomputation.
func TestVerifierKeyReplacementRecomputes(t *testing.T) {
	h, _, _ := testHierarchy(t)
	v := NewVerifier(h, 16)
	driveID := crypt.KeyID{Type: crypt.DriveKey}
	dk, err := h.Lookup(driveID)
	if err != nil {
		t.Fatal(err)
	}
	pub := basePublic(driveID)
	cap := Mint(pub, dk)
	body := []byte("READ obj=42")
	if err := validate(v, cap.Public, body, cap.SignRequest(body), baseCheck()); err != nil {
		t.Fatalf("validate under original drive key: %v", err)
	}
	// Replace the drive key in place (same KeyID).
	if err := h.SetKey(driveID, crypt.NewRandomKey()); err != nil {
		t.Fatal(err)
	}
	if err := validate(v, cap.Public, body, cap.SignRequest(body), baseCheck()); !errors.Is(err, ErrBadDigest) {
		t.Fatalf("capability under replaced key = %v, want ErrBadDigest", err)
	}
	// And a capability minted under the replacement is accepted.
	nk, _ := h.Lookup(driveID)
	ncap := Mint(pub, nk)
	if err := validate(v, ncap.Public, body, ncap.SignRequest(body), baseCheck()); err != nil {
		t.Fatalf("capability under replacement key rejected: %v", err)
	}
}
