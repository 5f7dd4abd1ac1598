package telemetry

import (
	"sync"
	"time"
)

// LockMeter instruments a lock (or a family of locks, such as every
// shard of a sharded cache) with contention telemetry: how many
// acquisitions there were, how many of those had to wait, and a
// histogram of the nanoseconds spent waiting. Layers on the drive data
// path each register one meter so a snapshot shows where requests queue
// — the lock-scheme analogue of the per-op service-time split.
//
// The fast path costs one TryLock and one atomic increment; only a
// failed TryLock (a genuinely contended acquisition) pays for a clock
// read and a histogram observation. A nil *LockMeter is valid and
// meters nothing, so packages can thread an optional meter without
// branching at every call site.
type LockMeter struct {
	acquire   *Counter   // total acquisitions
	contended *Counter   // acquisitions that had to wait
	waitNS    *Histogram // wait time of contended acquisitions, ns
}

// NewLockMeter registers <prefix>.acquire, <prefix>.contended and
// <prefix>.wait_ns in r and returns the meter. A nil registry returns a
// nil meter (metering disabled).
func NewLockMeter(r *Registry, prefix string) *LockMeter {
	if r == nil {
		return nil
	}
	return &LockMeter{
		acquire:   r.Counter(prefix + ".acquire"),
		contended: r.Counter(prefix + ".contended"),
		waitNS:    r.Histogram(prefix + ".wait_ns"),
	}
}

// Lock acquires mu, recording the acquisition and any wait.
func (m *LockMeter) Lock(mu *sync.Mutex) { m.lock(mu.TryLock, mu.Lock) }

// LockRW acquires mu for writing, recording the acquisition and any
// wait.
func (m *LockMeter) LockRW(mu *sync.RWMutex) { m.lock(mu.TryLock, mu.Lock) }

// RLockRW acquires mu for reading, recording the acquisition and any
// wait.
func (m *LockMeter) RLockRW(mu *sync.RWMutex) { m.lock(mu.TryRLock, mu.RLock) }

// lock acquires a lock by try or, when that fails, by lock, timing the
// wait.
func (m *LockMeter) lock(try func() bool, lock func()) {
	if m == nil {
		lock()
		return
	}
	m.acquire.Inc()
	if try() {
		return
	}
	start := time.Now()
	lock()
	m.contended.Inc()
	m.waitNS.ObserveSince(start)
}
