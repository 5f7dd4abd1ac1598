package crypt

import (
	"container/list"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"hash"
	"slices"
	"sync"
	"sync/atomic"

	"nasd/internal/telemetry"
)

// Signer holds reusable HMAC state for one key. hmac.New hashes the key
// into inner/outer pads; Signer pays that once and then serves every
// subsequent digest with a Reset + Write + Sum, which is the dominant
// saving on the drive's per-request digest path (the paper's Table 1
// "security" cost component). Safe for concurrent use; concurrent
// digests under one Signer serialize on its mutex, so share one Signer
// per session/capability, not one per drive.
//
// A Signer also tags bulk payloads (AppendTag) under a payload key of
// its own, so the HMAC key never keys AES.
type Signer struct {
	mu  sync.Mutex
	h   hash.Hash
	sum Digest // Sum's destination: a local would escape through h

	// gmac is AES-GCM under the payload key, used only for its tag. It
	// is read-only after construction, so AppendTag takes no lock.
	gmac cipher.AEAD
}

// TagSize is the size in bytes of a payload tag.
const TagSize = 16

// gcmNonceSize is the standard GCM nonce size, the fast path of every
// GCM implementation.
const gcmNonceSize = 12

// payloadLabel is the label whose keyed digest under a Signer's HMAC
// key is its payload key.
var payloadLabel = []byte("nasd-payload-key")

// NewSigner returns a reusable HMAC-SHA256 signer for k, with AES-GCM
// under payloadKey(k) for payload tags.
func NewSigner(k Key) *Signer {
	pk := payloadKey(k)
	block, err := aes.NewCipher(pk[:])
	if err != nil {
		panic("crypt: " + err.Error()) // unreachable: the key is KeySize bytes
	}
	gmac, err := cipher.NewGCM(block)
	if err != nil {
		panic("crypt: " + err.Error()) // unreachable: AES has a 16-byte block
	}
	return &Signer{h: hmac.New(sha256.New, k[:]), gmac: gmac}
}

// payloadKey is the AES-256 key a Signer for k tags payloads under: the
// keyed digest of a fixed label under k, so the HMAC key and the AES
// key stay separate.
func payloadKey(k Key) Key {
	return Key(MAC(k, payloadLabel))
}

// MAC computes the keyed digest of the concatenation of parts.
func (s *Signer) MAC(parts ...[]byte) Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h.Reset()
	for _, p := range parts {
		s.h.Write(p)
	}
	s.h.Sum(s.sum[:0])
	return s.sum
}

// AppendTag appends to dst the TagSize-byte GMAC of payload under the
// signer's payload key: AES-GCM sealing an empty plaintext with payload
// as the additional data, under a GCM nonce derived from n. GHASH runs
// on the CPU's carry-less-multiply unit at several times SHA-256's
// speed. The tag is meant to be fed to a keyed digest, never sent or
// stored: kept secret, a repeated nonce weakens nothing, and a
// substituted payload passes the digest only on a GHASH collision
// under a key no one outside holds.
//
// AppendTag allocates unless dst has TagSize+12 bytes of spare
// capacity: it stages the GCM nonce there, past the tag, because a
// local array would escape to the heap through the AEAD interface
// call.
func (s *Signer) AppendTag(dst []byte, n Nonce, payload []byte) []byte {
	dst = slices.Grow(dst, TagSize+gcmNonceSize)
	iv := dst[len(dst)+TagSize : len(dst)+TagSize+gcmNonceSize]
	binary.BigEndian.PutUint32(iv, uint32(n.Client>>32)^uint32(n.Client))
	binary.BigEndian.PutUint64(iv[4:], n.Counter)
	return s.gmac.Seal(dst, iv, nil, payload)
}

// Verify reports whether d is the keyed digest of msg under the
// signer's key, in constant time.
func (s *Signer) Verify(msg []byte, d Digest) bool {
	got := s.MAC(msg)
	return subtle.ConstantTimeCompare(got[:], d[:]) == 1
}

// DigestCache is a small fixed-capacity LRU memoizing the results of
// keyed-digest derivations on hot validation paths — canonically the
// capability private portion, which is a pure function of the public
// fields and the minting key. It deliberately caches derived secrets,
// not authorization decisions: users must still perform every
// non-digest check (key lookup, expiry, rights, region) per request, so
// key rotation and expiry revoke exactly as they do on the cold path.
//
// K is the memo key (must be comparable; e.g. a capability Public
// struct) and V the derived value. Safe for concurrent use.
type DigestCache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[K]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry[K comparable, V any] struct {
	key K
	val V
}

// NewDigestCache returns a cache holding at most capacity entries
// (minimum 1).
func NewDigestCache[K comparable, V any](capacity int) *DigestCache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &DigestCache[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// Get returns the cached value for k, marking it most recently used.
func (c *DigestCache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry[K, V]).val, true
	}
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Put inserts or refreshes k → v, evicting the least recently used
// entry when full.
func (c *DigestCache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheEntry[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry[K, V]{key: k, val: v})
	if c.ll.Len() > c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.items, old.Value.(*cacheEntry[K, V]).key)
		c.evictions.Add(1)
	}
}

// Purge drops every entry (e.g. on explicit key installation, as a
// belt-and-braces measure beyond the per-request key lookup).
func (c *DigestCache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}

// Len returns the current number of cached entries.
func (c *DigestCache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a point-in-time snapshot of DigestCache counters.
type CacheStats struct {
	Hits, Misses, Evictions, Size int64
}

// Stats snapshots the cache counters.
func (c *DigestCache[K, V]) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Size:      int64(c.Len()),
	}
}

// Publish registers the cache's counters as pull gauges in reg under
// the "crypt.digest_cache." prefix.
func (c *DigestCache[K, V]) Publish(reg *telemetry.Registry) {
	reg.Func("crypt.digest_cache.hits", c.hits.Load)
	reg.Func("crypt.digest_cache.misses", c.misses.Load)
	reg.Func("crypt.digest_cache.evictions", c.evictions.Load)
	reg.Func("crypt.digest_cache.size", func() int64 { return int64(c.Len()) })
}
