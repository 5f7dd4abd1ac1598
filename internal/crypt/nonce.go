package crypt

import (
	"errors"
	"math/bits"
	"sync"
)

// A Nonce accompanies every authenticated NASD request (Figure 5:
// "protects against replayed and delayed requests"). It is a per-client
// monotonically increasing counter; the drive keeps only a small
// high-water mark per client rather than per-capability state, in
// keeping with the paper's stateless-validation design.
type Nonce struct {
	Client  uint64 // client identity chosen at session setup
	Counter uint64 // strictly increasing per client
}

// ErrReplay is returned for a nonce at or below the client's high-water
// mark.
var ErrReplay = errors.New("crypt: replayed or delayed request rejected")

// NonceWindow validates nonces. It remembers, per client, the highest
// counter seen plus which of the window counters below it were seen, so
// modest reordering is tolerated while replays are rejected. Each client
// costs one ring bitmap and every check is O(1) in the window's size. It
// is safe for concurrent use: a drive checks nonces from many
// connections.
type NonceWindow struct {
	mu         sync.Mutex
	window     uint64
	mask       uint64 // ring size in bits minus one
	rings      map[uint64]*nonceRing
	maxClients int
}

// nonceRing is one client's high-water mark and a bitmap of 2^k >=
// window+1 bits (at least one word): counter c lives at bit c&mask.
// Bits of counters below high-window are stale; Check never looks at
// them.
type nonceRing struct {
	high uint64
	bits []uint64
}

// NewNonceWindow returns a window tolerating reordering of up to window
// positions and tracking at most maxClients clients (oldest are evicted
// arbitrarily beyond that; a drive would bound this table in SRAM).
func NewNonceWindow(window uint64, maxClients int) *NonceWindow {
	if window == 0 {
		window = 64
	}
	if maxClients <= 0 {
		maxClients = 4096
	}
	size := max(uint64(1)<<bits.Len64(window), 64)
	return &NonceWindow{
		window:     window,
		mask:       size - 1,
		rings:      make(map[uint64]*nonceRing),
		maxClients: maxClients,
	}
}

// Check validates n and records it. It returns ErrReplay if the nonce
// was already used or fell behind the window.
func (w *NonceWindow) Check(n Nonce) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	r, ok := w.rings[n.Client]
	if !ok {
		if len(w.rings) >= w.maxClients {
			w.evictOne()
		}
		r = &nonceRing{high: n.Counter, bits: make([]uint64, (w.mask+1)/64)}
		w.rings[n.Client] = r
	} else if n.Counter > r.high {
		r.advance(n.Counter, w.mask)
	} else if n.Counter+w.window < r.high {
		return ErrReplay
	}
	i := n.Counter & w.mask
	word, bit := &r.bits[i>>6], uint64(1)<<(i&63)
	if *word&bit != 0 {
		return ErrReplay
	}
	*word |= bit
	return nil
}

// advance moves the high-water mark to c and clears the bits of the
// counters it passes: none of them was seen, and their slots still hold
// counters that have left the window.
func (r *nonceRing) advance(c, mask uint64) {
	gap := c - r.high
	if gap > mask {
		clear(r.bits)
	} else {
		for p := r.high + 1; gap > 0; {
			i := p & mask
			n := min(64-i&63, gap)
			r.bits[i>>6] &^= (uint64(1)<<n - 1) << (i & 63)
			p += n
			gap -= n
		}
	}
	r.high = c
}

func (w *NonceWindow) evictOne() {
	for c := range w.rings {
		delete(w.rings, c)
		return
	}
}

// Clients returns the number of tracked clients.
func (w *NonceWindow) Clients() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.rings)
}
