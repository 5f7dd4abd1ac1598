package cache

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"nasd/internal/blockdev"
	"nasd/internal/bufpool"
	"nasd/internal/telemetry"
)

// Stats counts cache activity.
type Stats struct {
	Hits       int64
	Misses     int64
	Prefetches int64
	Evictions  int64
	WriteBacks int64
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Prefetches += o.Prefetches
	s.Evictions += o.Evictions
	s.WriteBacks += o.WriteBacks
}

type entry struct {
	block int64
	data  []byte
	dirty bool
	elem  *list.Element
}

// DefaultShards is how many independently locked shards New creates
// (clamped to the capacity, so tiny caches degenerate gracefully to a
// single shard).
const DefaultShards = 16

// BlockCache is an LRU cache over a block device, sharded by block
// number so lookups of blocks on different shards never serialize:
// each shard has its own mutex, LRU list, and slice of the capacity.
// A miss is filled in extents: the absent blocks of a read are claimed
// under their shard locks, fetched by one device call per consecutive
// run with every shard unlocked, and installed block by block (read).
// A slow media read therefore stalls only readers of the blocks it
// claimed; hits proceed, on the same shard too. Consecutive physical
// blocks land on consecutive shards, which spreads a sequential scan
// across every lock.
//
// In the store's lock hierarchy the cache sits below the object and
// partition locks and above the layout allocator (DESIGN.md §4): a
// shard mutex may be taken while holding those, and never the reverse.
type BlockCache struct {
	dev      blockdev.Device
	shards   []*cacheShard
	wthrough atomic.Bool
	meter    *telemetry.LockMeter
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[int64]*entry
	lru      *list.List // front = most recent
	// filling holds the blocks a fill has claimed and is reading from
	// the device. A claimed block stays absent until that fill installs
	// it: readers wait for or skip it, writers wait (awaitFill). filled
	// is broadcast as each claim is released.
	filling map[int64]struct{}
	filled  sync.Cond
	stats   Stats
}

// New returns a cache holding up to capacity blocks of dev, sharded
// DefaultShards ways.
func New(dev blockdev.Device, capacity int) *BlockCache {
	return NewSharded(dev, capacity, DefaultShards)
}

// NewSharded returns a cache with an explicit shard count (clamped to
// [1, capacity]). One shard gives the exact global-LRU behavior of the
// unsharded design; more shards trade per-shard LRU approximation for
// lock independence.
func NewSharded(dev blockdev.Device, capacity, shards int) *BlockCache {
	if capacity < 1 {
		panic("cache: capacity must be >= 1")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	c := &BlockCache{dev: dev, shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		// Distribute capacity as evenly as possible; early shards take
		// the remainder.
		per := capacity / shards
		if i < capacity%shards {
			per++
		}
		sh := &cacheShard{
			capacity: per,
			entries:  make(map[int64]*entry),
			lru:      list.New(),
			filling:  make(map[int64]struct{}),
		}
		sh.filled.L = &sh.mu
		c.shards[i] = sh
	}
	return c
}

// SetLockMeter wires contention telemetry for every shard mutex (all
// shards share the one meter). Call before concurrent use.
func (c *BlockCache) SetLockMeter(m *telemetry.LockMeter) { c.meter = m }

// shardOf maps a block to its shard. Plain modulo: physical blocks are
// allocated in runs, so neighbors go to different shards.
func (c *BlockCache) shardOf(block int64) *cacheShard {
	if block < 0 {
		block = -block
	}
	return c.shards[block%int64(len(c.shards))]
}

// Shards returns the shard count.
func (c *BlockCache) Shards() int { return len(c.shards) }

// SetWriteThrough switches the cache between write-behind (default) and
// write-through.
func (c *BlockCache) SetWriteThrough(on bool) { c.wthrough.Store(on) }

// Capacity returns the capacity in blocks.
func (c *BlockCache) Capacity() int {
	n := 0
	for _, sh := range c.shards {
		n += sh.capacity
	}
	return n
}

// Len returns the number of cached blocks.
func (c *BlockCache) Len() int {
	n := 0
	for _, sh := range c.shards {
		c.meter.Lock(&sh.mu)
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns the counters summed over every shard.
func (c *BlockCache) Stats() Stats {
	var st Stats
	for _, sh := range c.shards {
		c.meter.Lock(&sh.mu)
		st.add(sh.stats)
		sh.mu.Unlock()
	}
	return st
}

// Contains reports whether block is currently cached (does not touch
// recency).
func (c *BlockCache) Contains(block int64) bool {
	sh := c.shardOf(block)
	c.meter.Lock(&sh.mu)
	defer sh.mu.Unlock()
	_, ok := sh.entries[block]
	return ok
}

// touch must be called with the shard mutex held.
func (sh *cacheShard) touch(e *entry) { sh.lru.MoveToFront(e.elem) }

// awaitFill returns once no fill holds a claim on block. Caller holds
// the shard mutex (released while waiting) and no claim of its own, so
// waits cannot cycle.
func (sh *cacheShard) awaitFill(block int64) {
	for {
		if _, ok := sh.filling[block]; !ok {
			return
		}
		sh.filled.Wait()
	}
}

// insert adds a block, evicting as needed. Caller holds the shard
// mutex.
func (sh *cacheShard) insert(dev blockdev.Device, block int64, data []byte, dirty bool) (*entry, error) {
	for len(sh.entries) >= sh.capacity {
		if err := sh.evictOldest(dev); err != nil {
			return nil, err
		}
	}
	e := &entry{block: block, data: data, dirty: dirty}
	e.elem = sh.lru.PushFront(e)
	sh.entries[block] = e
	return e, nil
}

// evictOldest removes the shard's LRU entry, writing it back if dirty,
// and returns its pooled buffer. Caller holds the shard mutex.
func (sh *cacheShard) evictOldest(dev blockdev.Device) error {
	back := sh.lru.Back()
	if back == nil {
		return fmt.Errorf("cache: eviction with empty LRU")
	}
	e := back.Value.(*entry)
	if e.dirty {
		if err := dev.WriteBlock(e.block, e.data); err != nil {
			return err
		}
		sh.stats.WriteBacks++
	}
	sh.lru.Remove(back)
	delete(sh.entries, e.block)
	sh.stats.Evictions++
	// The device has its own copy (write-back above, or the block was
	// clean); nothing references entry memory outside the shard lock.
	bufpool.Put(e.data)
	e.data = nil
	return nil
}

// ReadBlock reads block through the cache into buf: the one-block case
// of ReadRange.
func (c *BlockCache) ReadBlock(block int64, buf []byte) error {
	return c.ReadRange(block, 0, buf)
}

// ReadRange reads len(dst) bytes starting at byte offset off within
// block and running on into the device blocks that follow it: an extent
// read. Resident blocks are copied to dst under their shard lock, the
// single copy on the cached-read path; each maximal run of absent
// blocks costs one device call (see read).
func (c *BlockCache) ReadRange(block int64, off int, dst []byte) error {
	bs := c.dev.BlockSize()
	_, err := c.read(block, (off+len(dst)+bs-1)/bs, off, dst)
	return err
}

// Prefetch loads blocks into the cache if absent, each run of
// consecutive block numbers through the same fill as a demand read. It
// is the mechanism the object layer uses for sequential readahead.
// Prefetch is advisory: errors are ignored, a block another fill is
// already fetching is left to it, and the count of blocks actually
// installed is returned.
func (c *BlockCache) Prefetch(blocks []int64) int {
	installed := 0
	for i := 0; i < len(blocks); {
		j := i + 1
		for j < len(blocks) && blocks[j] == blocks[j-1]+1 {
			j++
		}
		k, _ := c.read(blocks[i], j-i, 0, nil)
		installed += k
		i = j
	}
	return installed
}

// What probe found a block to be.
const (
	blockResident = iota
	blockClaimed  // absent; the caller now owns its fill
	blockBusy     // absent, and another fill owns it
)

// read is the cache's one read path. It walks the n blocks from first:
// a resident block is copied out, an absent one is claimed in its
// shard's filling set, and each maximal run of blocks claimed here is
// fetched by one fill. The claim is what keeps a block from being read
// from the device twice at once, and from being written while the
// bytes read for it are older than the write. A demand read (dst !=
// nil; dst takes bytes [off, off+len(dst)) of the extent) that meets
// another fill's claim waits for its release and looks again, but only
// after completing its own pending run. A prefetch (dst == nil) skips
// such a block, and when a run fails retries it block by block so a bad
// block does not cost its good neighbours their place in the cache. It
// returns the number of blocks installed.
func (c *BlockCache) read(first int64, n, off int, dst []byte) (int, error) {
	installed, run := 0, 0
	for i := 0; ; {
		state := blockBusy // past the end: like a busy block, it ends the run
		if i < n {
			state = c.probe(first+int64(i), i, off, dst)
		}
		if state == blockClaimed {
			run++
			i++
			continue
		}
		if run > 0 {
			k, err := c.fill(first+int64(i-run), run, i-run, off, dst)
			installed += k
			if err != nil && dst != nil {
				return installed, err
			}
			if err != nil && run > 1 {
				for j := i - run; j < i; j++ {
					k, _ = c.read(first+int64(j), 1, 0, nil)
					installed += k
				}
			}
			run = 0
		}
		switch {
		case i == n:
			return installed, nil
		case state == blockBusy && dst != nil:
			sh := c.shardOf(first + int64(i))
			c.meter.Lock(&sh.mu)
			sh.awaitFill(first + int64(i))
			sh.mu.Unlock() // then probe it again
		default:
			i++
		}
	}
}

// probe classifies block under its shard lock. A resident block is
// copied out and counted as a hit (demand reads only: a prefetch leaves
// recency alone); an unclaimed absent one is claimed for the caller,
// and counted as a miss on demand, so Misses stays a count of blocks.
func (c *BlockCache) probe(block int64, i, off int, dst []byte) int {
	sh := c.shardOf(block)
	c.meter.Lock(&sh.mu)
	defer sh.mu.Unlock()
	if e, ok := sh.entries[block]; ok {
		if dst != nil {
			sh.touch(e)
			sh.stats.Hits++
			copyOut(dst, off, i, e.data)
		}
		return blockResident
	}
	if _, ok := sh.filling[block]; ok {
		return blockBusy
	}
	sh.filling[block] = struct{}{}
	if dst != nil {
		sh.stats.Misses++
	}
	return blockClaimed
}

// fill fetches the run of n blocks at start, every one claimed by the
// caller, with a single blockdev.ReadBlocks into a pooled staging
// buffer (a device without BlockRanger gets the helper's per-block
// loop). No shard lock is held across the device call. Each block is
// then installed and its claim released under its own shard lock. i is
// the run's index within the extent dst describes. On error every
// claim is still released.
func (c *BlockCache) fill(start int64, n, i, off int, dst []byte) (installed int, err error) {
	bs := c.dev.BlockSize()
	stage := bufpool.Get(n * bs)
	defer bufpool.Put(stage)
	err = blockdev.ReadBlocks(c.dev, start, stage)
	for j := 0; j < n; j++ {
		block := start + int64(j)
		sh := c.shardOf(block)
		c.meter.Lock(&sh.mu)
		delete(sh.filling, block)
		if err == nil {
			data := bufpool.Get(bs)
			copy(data, stage[j*bs:])
			if _, err = sh.insert(c.dev, block, data, false); err != nil {
				bufpool.Put(data)
			} else {
				installed++
				if dst != nil {
					copyOut(dst, off, i+j, data)
				} else {
					sh.stats.Prefetches++
				}
			}
		}
		sh.mu.Unlock()
		sh.filled.Broadcast()
	}
	return installed, err
}

// copyOut copies to dst what it wants of src, block i of an extent of
// which dst holds bytes [off, off+len(dst)).
func copyOut(dst []byte, off, i int, src []byte) {
	lo := i*len(src) - off
	if lo < 0 {
		src = src[-lo:]
		lo = 0
	}
	copy(dst[lo:], src)
}

// WriteBlock writes buf to block through the cache. In write-behind
// mode the device is updated lazily; in write-through mode immediately.
// The cached copy lives in pooled memory owned by the cache; buf is
// never retained. A write to a block that is being filled waits for the
// fill, so what the fill installs is never older than the device.
func (c *BlockCache) WriteBlock(block int64, buf []byte) error {
	wthrough := c.wthrough.Load()
	sh := c.shardOf(block)
	c.meter.Lock(&sh.mu)
	defer sh.mu.Unlock()
	sh.awaitFill(block)
	if e, ok := sh.entries[block]; ok {
		if len(e.data) == len(buf) {
			copy(e.data, buf)
		} else {
			bufpool.Put(e.data)
			e.data = bufpool.Get(len(buf))
			copy(e.data, buf)
		}
		e.dirty = !wthrough
		sh.touch(e)
	} else {
		data := bufpool.Get(len(buf))
		copy(data, buf)
		if _, err := sh.insert(c.dev, block, data, !wthrough); err != nil {
			bufpool.Put(data)
			return err
		}
	}
	if wthrough {
		return c.dev.WriteBlock(block, buf)
	}
	return nil
}

// Invalidate drops a block from the cache without writing it back.
// Use when the block has been freed.
func (c *BlockCache) Invalidate(block int64) {
	sh := c.shardOf(block)
	c.meter.Lock(&sh.mu)
	defer sh.mu.Unlock()
	sh.awaitFill(block)
	if e, ok := sh.entries[block]; ok {
		sh.lru.Remove(e.elem)
		delete(sh.entries, block)
		bufpool.Put(e.data)
		e.data = nil
	}
}

// Flush writes every dirty block back to the device and flushes it.
func (c *BlockCache) Flush() error {
	for _, sh := range c.shards {
		c.meter.Lock(&sh.mu)
		for _, e := range sh.entries {
			if e.dirty {
				if err := c.dev.WriteBlock(e.block, e.data); err != nil {
					sh.mu.Unlock()
					return err
				}
				e.dirty = false
				sh.stats.WriteBacks++
			}
		}
		sh.mu.Unlock()
	}
	return c.dev.Flush()
}

// DirtyCount returns the number of dirty cached blocks.
func (c *BlockCache) DirtyCount() int {
	n := 0
	for _, sh := range c.shards {
		c.meter.Lock(&sh.mu)
		for _, e := range sh.entries {
			if e.dirty {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}
