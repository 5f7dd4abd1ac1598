package crypt

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestSignerMatchesMAC(t *testing.T) {
	k := NewRandomKey()
	s := NewSigner(k)
	msgs := [][]byte{nil, {}, []byte("a"), []byte("the quick brown fox"), make([]byte, 4096)}
	for i, msg := range msgs {
		if got, want := s.MAC(msg), MAC(k, msg); got != want {
			t.Fatalf("msg %d: Signer.MAC != MAC", i)
		}
	}
	// Multi-part digests match MAC2 and survive interleaved reuse.
	a, b := []byte("part-one"), []byte("part-two")
	if got, want := s.MAC(a, b), MAC2(k, a, b); got != want {
		t.Fatal("Signer.MAC(a, b) != MAC2(k, a, b)")
	}
	if got, want := s.MAC(a), MAC(k, a); got != want {
		t.Fatal("Signer state polluted by previous multi-part digest")
	}
	if !s.Verify(a, MAC(k, a)) {
		t.Fatal("Signer.Verify rejected a valid digest")
	}
	if s.Verify(a, MAC(k, b)) {
		t.Fatal("Signer.Verify accepted a digest of different data")
	}
}

func TestSignerConcurrent(t *testing.T) {
	k := NewRandomKey()
	s := NewSigner(k)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("goroutine-%d", g))
			want := MAC(k, msg)
			n := Nonce{Client: uint64(g), Counter: 1}
			wantTag := NewSigner(k).AppendTag(nil, n, msg)
			buf := make([]byte, 0, TagSize+64)
			for i := 0; i < 200; i++ {
				if s.MAC(msg) != want {
					t.Errorf("goroutine %d: digest changed under concurrency", g)
					return
				}
				if !bytes.Equal(s.AppendTag(buf, n, msg), wantTag) {
					t.Errorf("goroutine %d: tag changed under concurrency", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSignerTag: a payload tag depends on the key, the nonce and every
// payload byte, is appended after what dst holds, and is not keyed by
// the HMAC key itself.
func TestSignerTag(t *testing.T) {
	k := NewRandomKey()
	s := NewSigner(k)
	n := Nonce{Client: 1, Counter: 2}
	payload := make([]byte, 1000)
	tag := s.AppendTag([]byte("prefix"), n, payload)
	if len(tag) != len("prefix")+TagSize || string(tag[:6]) != "prefix" {
		t.Fatalf("AppendTag(prefix) = %x: want the prefix and %d tag bytes", tag, TagSize)
	}
	tag = tag[6:]
	if !bytes.Equal(NewSigner(k).AppendTag(nil, n, payload), tag) {
		t.Fatal("two signers under one key tag one payload differently")
	}
	payload[len(payload)-1] ^= 1
	if bytes.Equal(s.AppendTag(nil, n, payload), tag) {
		t.Fatal("tag ignores the payload's last byte")
	}
	payload[len(payload)-1] ^= 1
	if bytes.Equal(s.AppendTag(nil, Nonce{Client: 1, Counter: 3}, payload), tag) {
		t.Fatal("tag ignores the nonce")
	}
	if bytes.Equal(NewSigner(NewRandomKey()).AppendTag(nil, n, payload), tag) {
		t.Fatal("tag ignores the key")
	}
	if payloadKey(k) == k {
		t.Fatal("payload key equals the HMAC key")
	}
}

func TestDigestCacheLRU(t *testing.T) {
	c := NewDigestCache[int, string](2)
	c.Put(1, "one")
	c.Put(2, "two")
	if v, ok := c.Get(1); !ok || v != "one" {
		t.Fatal("missing entry 1")
	}
	c.Put(3, "three") // evicts 2 (LRU — 1 was just touched)
	if _, ok := c.Get(2); ok {
		t.Fatal("entry 2 should have been evicted")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("entry 1 should have survived (recently used)")
	}
	if _, ok := c.Get(3); !ok {
		t.Fatal("entry 3 should be present")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, size 2", st)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 hits, 1 miss", st)
	}
	c.Put(3, "III") // refresh in place, no eviction
	if v, _ := c.Get(3); v != "III" {
		t.Fatal("Put did not refresh existing entry")
	}
	if c.Stats().Evictions != 1 {
		t.Fatal("refresh should not evict")
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("Purge left entries behind")
	}
}

func TestDigestCacheConcurrent(t *testing.T) {
	c := NewDigestCache[int, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 100
				c.Put(k, k*2)
				if v, ok := c.Get(k); ok && v != k*2 {
					t.Errorf("got %d for key %d", v, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}
