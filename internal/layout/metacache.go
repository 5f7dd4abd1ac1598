package layout

import (
	"slices"
	"sync"

	"nasd/internal/bufpool"
)

// metaCacheMaxBytes caps the metadata cache of one Store.
const metaCacheMaxBytes = 2 << 20

// metaCache holds recently used metadata blocks (onode table blocks
// and indirect pointer blocks), which move through the raw device and
// would otherwise pay a media read on every block-map walk. The object
// layer's block cache cannot serve them: it sits *above* the layout
// allocator in the lock hierarchy (DESIGN.md §4), so layout may never
// call up into it.
//
// An entry is the block's current image: every metadata write in this
// package refreshes or invalidates the written block's entry before the
// writer releases the lock that serializes it against readers (the
// onode stripe lock for onode blocks; the exclusive object lock above
// for pointer blocks — in-place pointer writes only ever target
// refcount-1 blocks, which belong to exactly one object). On a
// journaled volume an onode block is not written in place when it
// changes: its entry is dirty, the only image outside the journal, and
// stays resident until Store.flushDevice has written it back. Freed
// blocks are invalidated so a later reallocation can never surface
// stale bytes. The cache is private to one Store and dies with it, so
// mount-time recovery always reads the real device.
type metaCache struct {
	mu     sync.Mutex
	max    int // clean entries kept
	blocks map[int64][]byte
	order  []int64 // FIFO eviction queue
	// dirty maps a block whose image the device does not hold yet to
	// the LSNs, ascending, of the committed records folded into it.
	dirty map[int64][]uint64
}

// newMetaCache sizes the cache for the volume's metadata working set,
// an onode block and one pointer block per object, within the cap.
func newMetaCache(sb *Superblock) *metaCache {
	n := min(sb.OnodeBlocks+sb.OnodeCount, metaCacheMaxBytes/int64(sb.BlockSize))
	return &metaCache{max: int(n), blocks: make(map[int64][]byte), dirty: make(map[int64][]uint64)}
}

// view runs fn on the cached copy of blk under the cache lock and
// reports whether blk was resident. fn must copy out what it needs and
// must not retain the slice.
func (c *metaCache) view(blk int64, fn func(b []byte)) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.blocks[blk]
	if ok {
		fn(b)
	}
	return ok
}

// fill installs a copy of data as blk's image, evicting the oldest
// clean entries when full. lsn is 0 for an image read from or written
// to the device, else the committed record that holds an image the
// device does not: the entry turns dirty. Dirty entries are rotated
// past and do not count: the journal half bounds them.
func (c *metaCache) fill(blk int64, data []byte, lsn uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if lsn != 0 {
		c.dirty[blk] = append(c.dirty[blk], lsn)
	}
	if b, ok := c.blocks[blk]; ok {
		copy(b, data)
		return
	}
	for n := len(c.order); n > 0 && len(c.order) >= c.max+len(c.dirty); n-- {
		old := c.order[0]
		c.order = c.order[1:]
		if _, pinned := c.dirty[old]; pinned {
			c.order = append(c.order, old)
		} else if b, ok := c.blocks[old]; ok {
			delete(c.blocks, old)
			bufpool.Put(b)
		}
	}
	b := bufpool.Get(len(data))
	copy(b, data)
	c.blocks[blk] = b
	c.order = append(c.order, blk)
}

// snapshot returns the dirty blocks in ascending order, how many
// records each carries at this moment, and their images back to back
// in one pooled buffer.
func (c *metaCache) snapshot(bs int) (blks []int64, recs []int, img []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for blk := range c.dirty {
		blks = append(blks, blk)
	}
	slices.Sort(blks)
	img = bufpool.Get(len(blks) * bs)
	for i, blk := range blks {
		copy(img[i*bs:], c.blocks[blk])
		recs = append(recs, len(c.dirty[blk]))
	}
	return blks, recs, img
}

// retire drops the records a snapshot saw, whose images are durable in
// place now, and returns their LSNs. A block dirtied again since keeps
// the newer records and stays dirty.
func (c *metaCache) retire(blks []int64, recs []int) (lsns []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, blk := range blks {
		l := c.dirty[blk]
		lsns = append(lsns, l[:recs[i]]...)
		if len(l) == recs[i] {
			delete(c.dirty, blk)
		} else {
			c.dirty[blk] = l[recs[i]:]
		}
	}
	return lsns
}

// invalidate drops blk's entry, if any. The stale FIFO slot is left to
// age out; it is skipped at eviction time.
func (c *metaCache) invalidate(blk int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.blocks[blk]; ok {
		delete(c.blocks, blk)
		bufpool.Put(b)
	}
}
