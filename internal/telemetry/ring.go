package telemetry

// ring holds the newest len(slots) values pushed into it: the storage
// of the span and event logs, which lock around it.
type ring[T any] struct {
	slots   []T
	next, n int // the slot the next push fills; how many are held
}

func newRing[T any](capacity int) ring[T] { return ring[T]{slots: make([]T, max(capacity, 1))} }

// push stores *v, over the oldest value once the ring is full.
func (r *ring[T]) push(v *T) {
	r.slots[r.next] = *v
	if r.next++; r.next == len(r.slots) {
		r.next = 0
	}
	r.n = min(r.n+1, len(r.slots))
}

// newest calls f on the held values, newest first, until f returns
// false.
func (r *ring[T]) newest(f func(*T) bool) {
	for i := 1; i <= r.n; i++ {
		if !f(&r.slots[(r.next-i+len(r.slots))%len(r.slots)]) {
			return
		}
	}
}
