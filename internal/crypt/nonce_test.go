package crypt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mapWindow is the reference model of NonceWindow's acceptance rule:
// per client, the high-water mark and a set of seen counters, swept of
// everything behind the window on every new high. It is the original
// implementation, kept here as the specification the ring bitmap must
// reproduce exactly.
type mapWindow struct {
	window uint64
	high   map[uint64]uint64
	seen   map[uint64]map[uint64]bool
}

func newMapWindow(window uint64) *mapWindow {
	return &mapWindow{window: window, high: make(map[uint64]uint64), seen: make(map[uint64]map[uint64]bool)}
}

func (w *mapWindow) Check(n Nonce) error {
	h, ok := w.high[n.Client]
	if !ok {
		w.high[n.Client] = n.Counter
		w.seen[n.Client] = map[uint64]bool{n.Counter: true}
		return nil
	}
	switch {
	case n.Counter > h:
		w.high[n.Client] = n.Counter
		s := w.seen[n.Client]
		s[n.Counter] = true
		for c := range s {
			if c+w.window < n.Counter {
				delete(s, c)
			}
		}
		return nil
	case n.Counter+w.window < h:
		return ErrReplay
	default:
		s := w.seen[n.Client]
		if s[n.Counter] {
			return ErrReplay
		}
		s[n.Counter] = true
		return nil
	}
}

// nonceModel runs the ring and the reference side by side.
type nonceModel struct {
	t      testing.TB
	ring   *NonceWindow
	ref    *mapWindow
	checks int
}

func newNonceModel(t testing.TB, window uint64) *nonceModel {
	return &nonceModel{t: t, ring: NewNonceWindow(window, math.MaxInt), ref: newMapWindow(window)}
}

func (m *nonceModel) check(n Nonce) {
	m.t.Helper()
	m.checks++
	want, got := m.ref.Check(n), m.ring.Check(n)
	if got != want {
		m.t.Fatalf("window %d, check %d, nonce %+v: ring says %v, map says %v",
			m.ref.window, m.checks, n, got, want)
	}
}

// counter picks a counter for client c from one of eight shapes, keyed
// by kind and scaled by the window: the next counter, reordering below
// the high, a replay of the high, the window's edges, counters behind
// it, jumps past the ring, and counters at the top of the range.
func (m *nonceModel) counter(c uint64, kind uint8, v uint64) uint64 {
	w := m.ref.window
	h := m.ref.high[c]
	switch kind % 8 {
	case 0:
		return h + 1
	case 1:
		return h - v%(w+1)
	case 2:
		return h
	case 3:
		return h - w + v%3 - 1
	case 4:
		return h - w - 1 - v%(4*w+1)
	case 5:
		return h + 1 + v%(2*w+2)
	case 6:
		return h + w*(2+v%8) + v%64
	default:
		return math.MaxUint64 - v%(3*w+3)
	}
}

// TestNonceWindowMatchesMapModel checks the ring bitmap against the map
// model over 150k random checks: five windows, including the word
// boundaries around 64 and the drive's 256, and several clients each.
func TestNonceWindowMatchesMapModel(t *testing.T) {
	for _, window := range []uint64{1, 63, 64, 65, 256} {
		t.Run(fmt.Sprint(window), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(window)))
			m := newNonceModel(t, window)
			for c := uint64(0); c < 5; c++ {
				m.check(Nonce{Client: c, Counter: 1 << 20})
			}
			for i := 0; i < 30000; i++ {
				c := uint64(rng.Intn(5))
				// Mostly in-order traffic with reordering and replays;
				// jumps are rare, and only client 4 visits the top of
				// the range, where it stays.
				kind := uint8(rng.Intn(6))
				if rng.Intn(100) == 0 {
					kind = 6
				}
				if c == 4 && rng.Intn(1000) == 0 {
					kind = 7
				}
				m.check(Nonce{Client: c, Counter: m.counter(c, kind, rng.Uint64())})
			}
		})
	}
}

// FuzzNonceWindow runs fuzzer-chosen (client, counter) sequences
// against the map model. Each 3-byte op names a client, a counter shape
// and a value; the first byte picks the window.
func FuzzNonceWindow(f *testing.F) {
	f.Add([]byte{63, 0, 0, 0, 1, 0, 5, 2, 0, 0, 12, 1, 0, 6, 7, 9})
	f.Add([]byte{64, 4, 1, 0, 8, 0, 70, 16, 2, 2, 20, 3, 1, 29, 0, 0})
	f.Add([]byte{0, 7, 255, 255, 0, 0, 3, 11, 0, 1, 13, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := newNonceModel(t, 1+uint64(data[0]))
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			c := uint64(ops[0] & 3)
			m.check(Nonce{Client: c, Counter: m.counter(c, ops[0]>>2, uint64(ops[1])<<8|uint64(ops[2]))})
		}
	})
}

// TestNonceWindowCheckDoesNotAllocate: once a client is known, Check
// allocates nothing, whether it advances the mark or fills a hole.
func TestNonceWindowCheckDoesNotAllocate(t *testing.T) {
	w := NewNonceWindow(256, 16)
	next := uint64(1)
	if err := w.Check(Nonce{Client: 1, Counter: next}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		next += 2
		if w.Check(Nonce{Client: 1, Counter: next}) != nil || w.Check(Nonce{Client: 1, Counter: next - 1}) != nil {
			t.Fatal("in-window counter rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("Check allocates %.1f times per call pair, want 0", allocs)
	}
}

// TestNonceEvictedClientStartsOver: a client evicted from a full table
// is a new client when it returns.
func TestNonceEvictedClientStartsOver(t *testing.T) {
	w := NewNonceWindow(8, 1)
	for _, n := range []Nonce{{Client: 1, Counter: 5}, {Client: 2, Counter: 5}, {Client: 1, Counter: 5}} {
		if err := w.Check(n); err != nil {
			t.Fatalf("%+v: %v", n, err)
		}
	}
	if err := w.Check(Nonce{Client: 1, Counter: 5}); err != ErrReplay {
		t.Fatalf("replay after re-entry: %v", err)
	}
	if w.Clients() != 1 {
		t.Fatalf("clients = %d, want 1", w.Clients())
	}
}

// BenchmarkNonceWindowCheck measures Check for eight clients whose
// requests arrive in swapped pairs (2, 1, 4, 3, ...): every other check
// advances the mark, the rest fill the hole below it. The cost must not
// grow with the window.
func BenchmarkNonceWindowCheck(b *testing.B) {
	for _, window := range []uint64{64, 4096} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			w := NewNonceWindow(window, 16)
			var next [8]uint64
			for c := range next {
				if err := w.Check(Nonce{Client: uint64(c)}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := uint64(i>>1) & 7
				ctr := next[c] + 2
				if i&1 == 1 {
					ctr--
					next[c] += 2
				}
				if err := w.Check(Nonce{Client: c, Counter: ctr}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
