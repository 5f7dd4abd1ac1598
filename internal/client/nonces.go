package client

import (
	"context"
	"sync"

	"nasd/internal/drive"
)

// nonceSeq hands out a handle's nonce counters so that every counter in
// flight stays inside the drive's replay window: a counter is taken
// only while the oldest one still in flight is less than
// drive.NonceWindow behind it, and given back when its call returns.
// Then a request that stalls between taking its counter and reaching
// the drive (a descheduled goroutine, a slow fragment) holds the
// handle's later requests back instead of being overtaken by more than
// the window and refused as a replay.
type nonceSeq struct {
	mu   sync.Mutex
	next uint64 // the next counter to hand out; counters start at 1
	low  uint64 // the oldest counter still in flight, or next
	// busy marks the counters in flight, counter c at bit
	// c % NonceWindow: at most NonceWindow of them lie in [low, next).
	busy [drive.NonceWindow / 64]uint64
	wake chan struct{} // closed when the window moves, if anyone waits

	// Test seams: taken runs after a counter is taken, before its
	// request is signed and sent; waiting runs when take must wait.
	taken   func(counter uint64)
	waiting func()
}

func newNonceSeq() *nonceSeq { return &nonceSeq{next: 1, low: 1} }

func (s *nonceSeq) bit(c uint64) (*uint64, uint64) {
	i := c % drive.NonceWindow
	return &s.busy[i/64], 1 << (i % 64)
}

// take returns the next counter, waiting while the window is full; it
// fails only when ctx ends first.
func (s *nonceSeq) take(ctx context.Context) (uint64, error) {
	for {
		s.mu.Lock()
		if s.next-s.low < drive.NonceWindow {
			c := s.next
			s.next++
			w, b := s.bit(c)
			*w |= b
			s.mu.Unlock()
			if s.taken != nil {
				s.taken(c)
			}
			return c, nil
		}
		if s.wake == nil {
			s.wake = make(chan struct{})
		}
		wake := s.wake
		s.mu.Unlock()
		if s.waiting != nil {
			s.waiting()
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// done gives counter c back once its call has returned.
func (s *nonceSeq) done(c uint64) {
	s.mu.Lock()
	w, b := s.bit(c)
	*w &^= b
	for s.low < s.next {
		if w, b := s.bit(s.low); *w&b != 0 {
			break
		}
		s.low++
	}
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
	s.mu.Unlock()
}
