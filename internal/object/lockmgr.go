package object

import (
	"sync"

	"nasd/internal/telemetry"
)

// The per-object lock manager. Every data-path operation locks exactly
// the (partition, object) pair it touches: reads share an RWMutex read
// side, so concurrent reads of one object overlap, and operations on
// distinct objects never contend here at all. This is the top level of
// the store's lock hierarchy (object → partition → cache → layout; see
// DESIGN.md §4) and what turns the drive's per-connection worker pools
// into real parallelism.
//
// Lock entries are kept in a fixed array of shards so acquiring an
// entry contends only on one shard's map mutex, never globally. An
// entry also carries the object's sequential-read tracker: readahead
// state is inherently per-object, and housing it here means it is
// created, found, and discarded together with the lock that guards it.
// That state is all an entry is kept for once nobody holds it: an
// object that has none (never read through a backend with readahead,
// which is every object of a needle partition) costs no memory here.

// lockShardCount shards the lock table. Must be a power of two.
const lockShardCount = 64

type objKey struct {
	part uint16
	obj  uint64
}

// objLock is one object's lock-manager entry.
type objLock struct {
	mu sync.RWMutex

	// refs counts in-flight acquisitions; guarded by the owning shard's
	// mutex. An entry is only deleted, and recycled, when refs is zero.
	refs int

	// seq is the object's sequential-read tracker, passed down to the
	// partition's backend on reads (backends with readahead advance it).
	// It carries its own mutex because readers hold only the read side
	// of mu.
	seq SeqTracker
}

type lockShard struct {
	mu sync.Mutex
	m  map[objKey]*objLock
}

// lockPool recycles entries, so an object that keeps none between
// operations does not cost an allocation per operation instead.
var lockPool = sync.Pool{New: func() any { return new(objLock) }}

type lockManager struct {
	shards [lockShardCount]lockShard
	meter  *telemetry.LockMeter
}

func newLockManager(meter *telemetry.LockMeter) *lockManager {
	lm := &lockManager{meter: meter}
	for i := range lm.shards {
		lm.shards[i].m = make(map[objKey]*objLock)
	}
	return lm
}

func (lm *lockManager) shardOf(k objKey) *lockShard {
	h := k.obj*0x9E3779B97F4A7C15 + uint64(k.part)
	return &lm.shards[(h>>32)&(lockShardCount-1)]
}

// acquire pins (and if needed creates) the entry for k and takes its
// lock in the requested mode.
func (lm *lockManager) acquire(k objKey, write bool) *objLock {
	sh := lm.shardOf(k)
	sh.mu.Lock()
	l := sh.m[k]
	if l == nil {
		l = lockPool.Get().(*objLock)
		sh.m[k] = l
	}
	l.refs++
	sh.mu.Unlock()
	if write {
		lm.meter.LockRW(&l.mu)
	} else {
		lm.meter.RLockRW(&l.mu)
	}
	return l
}

// release drops the lock and unpins the entry. Once no other
// acquisition holds it the entry is deleted if its tracker has nothing
// to remember, or if purge is set: used when the object was removed or
// never existed, so the table tracks only live objects.
func (lm *lockManager) release(k objKey, l *objLock, write, purge bool) {
	if write {
		l.mu.Unlock()
	} else {
		l.mu.RUnlock()
	}
	sh := lm.shardOf(k)
	sh.mu.Lock()
	l.refs--
	// The last holder's writes to seq are ordered before this by its own
	// pass through the shard mutex.
	drop := l.refs == 0 && (purge || l.seq.nextOff == 0 && l.seq.streak == 0)
	if drop {
		delete(sh.m, k)
	}
	sh.mu.Unlock()
	if drop {
		l.seq.nextOff, l.seq.streak = 0, 0
		lockPool.Put(l)
	}
}

// entries returns the number of live lock entries (tests and
// introspection).
func (lm *lockManager) entries() int {
	n := 0
	for i := range lm.shards {
		sh := &lm.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
