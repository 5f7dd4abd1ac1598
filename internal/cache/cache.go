package cache

import (
	"container/list"
	"slices"
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
	// writing: a write-back is handing a copy of data to the device.
	// The entry stays resident meanwhile; a write sets dirty again.
	writing bool
	elem    *list.Element
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
// claimed; hits proceed, on the same shard too. Dirty blocks leave the
// same way, a run per device call with every shard unlocked (writeBack).
// Consecutive physical blocks land on consecutive shards, which spreads
// a sequential scan across every lock.
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
	// the device, and the absent block a write is making room for. A
	// claimed block stays absent until it is installed: readers wait for
	// or skip it, writers wait (await). filled is broadcast as each
	// claim, and each entry's writing mark, is released.
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
// write-through. Call before concurrent use.
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

// await returns once no fill holds a claim on block and, with writeBack
// set, no write-back of it is in flight. Caller holds the shard mutex
// (released while waiting) and no claim or writing mark of its own, so
// waits cannot cycle.
func (sh *cacheShard) await(block int64, writeBack bool) {
	for {
		_, filling := sh.filling[block]
		if e := sh.entries[block]; !filling && !(writeBack && e != nil && e.writing) {
			return
		}
		sh.filled.Wait()
	}
}

// insert adds a pooled copy of src as block, which the caller holds the
// fill claim of, evicting as needed. Caller holds the shard mutex; it is
// released while a dirty victim is written back, hence the claim.
func (c *BlockCache) insert(sh *cacheShard, block int64, src []byte, dirty bool) error {
	for len(sh.entries) >= sh.capacity {
		if err := c.evictOldest(sh); err != nil {
			return err
		}
	}
	e := &entry{block: block, data: bufpool.Get(len(src)), dirty: dirty}
	copy(e.data, src)
	e.elem = sh.lru.PushFront(e)
	sh.entries[block] = e
	return nil
}

// evictOldest removes the shard's least recently used entry that is in
// no write-back. A dirty victim is not removed: the run of dirty blocks
// around it is written back, shard unlocked, and the caller looks again.
func (c *BlockCache) evictOldest(sh *cacheShard) error {
	back := sh.lru.Back()
	for back != nil && back.Value.(*entry).writing {
		back = back.Prev()
	}
	if back == nil {
		sh.filled.Wait() // every entry is in flight: one will land
		return nil
	}
	e := back.Value.(*entry)
	if e.dirty {
		lo, hi := e.block, e.block+1
		sh.mu.Unlock()
		for hi-lo < blockdev.RunLimit && c.claimDirty(lo-1, nil) == blockClaimed {
			lo--
		}
		for hi-lo < blockdev.RunLimit && c.claimDirty(hi, nil) == blockClaimed {
			hi++
		}
		err := c.writeBack(lo, int(hi-lo), false)
		c.meter.Lock(&sh.mu)
		return err
	}
	sh.lru.Remove(back)
	delete(sh.entries, e.block)
	sh.stats.Evictions++
	// Clean, and nothing references its memory outside the shard lock.
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
	_ = blockdev.EachRun(blocks, blockdev.RunLimit, func(start int64, n int) error {
		k, _ := c.read(start, n, 0, nil)
		installed += k
		return nil
	})
	return installed
}

// What probe (fill) and claimDirty (write-back) found a block to be.
const (
	blockIdle    = iota // resident, or clean: nothing to move
	blockClaimed        // the caller now owns its fill or write-back
	blockBusy           // another fill or write-back owns it
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
			sh.await(first+int64(i), false)
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
		return blockIdle
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
		if data := stage[j*bs : (j+1)*bs]; err == nil {
			if err = c.insert(sh, block, data, false); err == nil {
				installed++
				if dst != nil {
					copyOut(dst, off, i+j, data)
				} else {
					sh.stats.Prefetches++
				}
			}
		}
		delete(sh.filling, block)
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

// WriteBlock writes buf, one device block, to block through the cache.
// In write-behind mode the device is updated lazily; in write-through
// mode immediately. The cached copy lives in pooled memory owned by the
// cache; buf is never retained. A write to a block that is being filled
// waits for the fill, so what the fill installs is never older than the
// device; a write to an absent block holds the claim while it makes room.
func (c *BlockCache) WriteBlock(block int64, buf []byte) error {
	if len(buf) != c.dev.BlockSize() {
		return blockdev.ErrBadSize
	}
	wthrough := c.wthrough.Load()
	sh := c.shardOf(block)
	c.meter.Lock(&sh.mu)
	defer sh.mu.Unlock()
	sh.await(block, wthrough)
	if e, ok := sh.entries[block]; ok {
		copy(e.data, buf)
		e.dirty = !wthrough
		sh.touch(e)
	} else {
		sh.filling[block] = struct{}{}
		err := c.insert(sh, block, buf, !wthrough)
		delete(sh.filling, block)
		sh.filled.Broadcast()
		if err != nil {
			return err
		}
	}
	if wthrough {
		return c.dev.WriteBlock(block, buf)
	}
	return nil
}

// Invalidate drops a block from the cache without writing it back.
// Use when the block has been freed. A write-back in flight is waited
// for: the next owner's bytes must not reach the device before these.
func (c *BlockCache) Invalidate(block int64) {
	sh := c.shardOf(block)
	c.meter.Lock(&sh.mu)
	defer sh.mu.Unlock()
	sh.await(block, true)
	if e, ok := sh.entries[block]; ok {
		sh.lru.Remove(e.elem)
		delete(sh.entries, block)
		bufpool.Put(e.data)
		e.data = nil
	}
}

// Flush writes every dirty block back to the device, in ascending order
// and in runs, waits for the write-backs others have in flight, and
// flushes the device.
func (c *BlockCache) Flush() error {
	var dirty []int64
	for _, sh := range c.shards {
		c.meter.Lock(&sh.mu)
		for _, e := range sh.entries {
			if e.dirty || e.writing {
				dirty = append(dirty, e.block)
			}
		}
		sh.mu.Unlock()
	}
	slices.Sort(dirty)
	if err := blockdev.EachRun(dirty, blockdev.RunLimit, func(start int64, n int) error {
		return c.writeBack(start, n, true)
	}); err != nil {
		return err
	}
	return c.dev.Flush()
}

// writeBack is the cache's one write-back path, the mirror of read. It
// walks the n blocks from first; a dirty block is marked writing and
// clean and copied to a pooled staging buffer under its shard lock
// (claimDirty), and each maximal run of blocks claimed here goes to the
// device in one blockdev.WriteBlocks, no shard lock held. The mark keeps
// a block in one device write at a time (the device never gets an older
// image after a newer one) and resident (no refill from the device
// meanwhile). With wait set (Flush) a block in another write-back is
// waited for and looked at again, once the caller's own pending run has
// gone out; an eviction skips it. A failed run is dirty again, all of it.
func (c *BlockCache) writeBack(first int64, n int, wait bool) error {
	bs := c.dev.BlockSize()
	stage := bufpool.Get(n * bs)
	defer bufpool.Put(stage)
	for i, run := 0, 0; ; {
		state := blockIdle // past the end: it ends the run
		if i < n {
			state = c.claimDirty(first+int64(i), stage[run*bs:(run+1)*bs])
		}
		if state == blockClaimed {
			run++
			i++
			continue
		}
		if run > 0 {
			start := first + int64(i-run)
			err := blockdev.WriteBlocks(c.dev, start, stage[:run*bs])
			for b := start; b < start+int64(run); b++ {
				sh := c.shardOf(b)
				c.meter.Lock(&sh.mu)
				e := sh.entries[b] // resident: nothing removes a writing entry
				e.writing = false
				if e.dirty = e.dirty || err != nil; err == nil {
					sh.stats.WriteBacks++
				}
				sh.mu.Unlock()
				sh.filled.Broadcast()
			}
			if err != nil {
				return err
			}
			run = 0
		}
		switch {
		case i == n:
			return nil
		case state == blockBusy && wait:
			sh := c.shardOf(first + int64(i))
			c.meter.Lock(&sh.mu)
			sh.await(first+int64(i), true)
			sh.mu.Unlock() // then look at it again
		default:
			i++
		}
	}
}

// claimDirty classifies block under its shard lock: dirty and in no
// write-back is blockClaimed, and unless dst is nil (the caller only
// asks) the block is then marked writing and clean and copied to dst.
func (c *BlockCache) claimDirty(block int64, dst []byte) int {
	sh := c.shardOf(block)
	c.meter.Lock(&sh.mu)
	defer sh.mu.Unlock()
	e := sh.entries[block]
	switch {
	case e == nil || !e.dirty && !e.writing:
		return blockIdle
	case e.writing:
		return blockBusy
	case dst != nil:
		e.dirty, e.writing = false, true
		copy(dst, e.data)
	}
	return blockClaimed
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
