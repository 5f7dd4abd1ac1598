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
// An entry is the block's current image, and no metadata block is
// written in place when it changes. An onode block changes when its
// journal record commits: its entry turns dirty, the only image outside
// the journal, and stays resident until Store.flushDevice has written it
// back. A pointer block changes under its object's exclusive lock (only
// refcount-1 blocks are changed, and they belong to exactly one object):
// the entry is open for that object, pinned, and keeps the image its
// last commit left (base). The object's next onode record carries the
// slot changes from base to the entry, and its commit turns the entry
// dirty like an onode block's. Until then a write-back writes base. A
// freed block leaves the cache (release), so a later reallocation can
// never surface stale bytes. The cache is private to one Store and dies
// with it, so mount-time recovery always reads the real device.
type metaCache struct {
	mu     sync.Mutex
	max    int // clean entries kept
	blocks map[int64][]byte
	order  []int64 // FIFO eviction queue
	// dirty maps a block whose image the device does not hold yet to
	// the LSNs, ascending, of the committed records folded into it.
	dirty map[int64][]uint64
	// open maps a pointer block with uncommitted slot changes to the
	// object whose next onode record carries them and to its committed
	// image (pooled; nil for a block born since its last commit).
	open map[int64]openPtr
}

type openPtr struct {
	owner uint64
	base  []byte
}

// newMetaCache sizes the cache for the volume's metadata working set,
// an onode block and one pointer block per object, within the cap.
func newMetaCache(sb *Superblock) *metaCache {
	n := min(sb.OnodeBlocks+sb.OnodeCount, metaCacheMaxBytes/int64(sb.BlockSize))
	return &metaCache{max: int(n), blocks: make(map[int64][]byte), dirty: make(map[int64][]uint64), open: make(map[int64]openPtr)}
}

// fill installs a copy of data as blk's image, evicting the oldest
// clean entries when full. lsn is 0 for an image read from the device,
// which never replaces a resident one (a reader that missed may race
// the block's writer), else the committed record that holds an image
// the device does not: the entry turns dirty. Dirty and open entries
// are rotated past and do not count: the journal half bounds the first,
// the writers in flight the second.
func (c *metaCache) fill(blk int64, data []byte, lsn uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fillLocked(blk, data, lsn)
}

func (c *metaCache) fillLocked(blk int64, data []byte, lsn uint64) {
	if lsn != 0 {
		c.dirty[blk] = append(c.dirty[blk], lsn)
	}
	if b, ok := c.blocks[blk]; ok {
		if lsn != 0 {
			copy(b, data)
		}
		return
	}
	for n := len(c.order); n > 0 && len(c.order) >= c.max+len(c.dirty)+len(c.open); n-- {
		old := c.order[0]
		c.order = c.order[1:]
		_, dirty := c.dirty[old]
		if _, open := c.open[old]; dirty || open {
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

// use runs fn on the cached image of blk under the cache lock and
// reports whether blk was resident. img, when not nil, is the block's
// device image, installed first if blk is not resident. With u set, the
// entry is opened for u's object before fn changes it, so the changes
// are the object's until its next commit. fn must copy out what it
// needs and must not retain the slice.
func (c *metaCache) use(blk int64, u *mapUpdate, img []byte, fn func(b []byte)) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.blocks[blk]
	if !ok && img == nil {
		return false
	} else if !ok {
		c.fillLocked(blk, img, 0)
		b = c.blocks[blk]
	}
	if _, open := c.open[blk]; u != nil && !open {
		base := bufpool.Get(len(b))
		copy(base, b)
		c.open[blk] = openPtr{u.owner, base}
	}
	fn(b)
	return true
}

// born installs img as the image of blk, a pointer block owner has just
// allocated: open, with no committed image, so the commit that carries
// it starts the block from zero.
func (c *metaCache) born(blk int64, owner uint64, img []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(blk)
	c.fillLocked(blk, img, 0)
	c.open[blk] = openPtr{owner: owner}
}

// appendSlots appends to p one section (codec.go) for each pointer
// block open for owner, ascending, and reports whether there was any.
func (c *metaCache) appendSlots(p []byte, owner uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var stack [8]int64
	blks := c.ownedLocked(owner, stack[:0])
	for _, blk := range blks {
		p = appendPtrSection(p, blk, c.open[blk].base, c.blocks[blk])
	}
	return p, len(blks) > 0
}

func (c *metaCache) ownedLocked(owner uint64, blks []int64) []int64 {
	for blk, o := range c.open {
		if o.owner == owner {
			blks = append(blks, blk)
		}
	}
	slices.Sort(blks)
	return blks
}

// commit installs onode block blk's image committed at lsn and turns
// the pointer blocks open for owner dirty with the same lsn, in one step,
// so that no write-back can see one half of the record's effects and
// apply the record.
func (c *metaCache) commit(blk int64, data []byte, lsn uint64, owner uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fillLocked(blk, data, lsn)
	var stack [8]int64
	for _, p := range c.ownedLocked(owner, stack[:0]) {
		bufpool.Put(c.open[p].base)
		delete(c.open, p)
		c.dirty[p] = append(c.dirty[p], lsn)
	}
}

// snapshot returns the dirty blocks in ascending order, how many
// records each carries at this moment, and their committed images (an
// open block's base) back to back in one pooled buffer.
func (c *metaCache) snapshot(bs int) (blks []int64, recs []int, img []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for blk := range c.dirty {
		blks = append(blks, blk)
	}
	slices.Sort(blks)
	img = bufpool.Get(len(blks) * bs)
	for i, blk := range blks {
		copy(img[i*bs:], c.committedLocked(blk))
		recs = append(recs, len(c.dirty[blk]))
	}
	return blks, recs, img
}

// committedLocked is blk's image as of its last commit.
func (c *metaCache) committedLocked(blk int64) []byte {
	if o, ok := c.open[blk]; ok && o.base != nil {
		return o.base
	}
	return c.blocks[blk]
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

// release drops blk, which the allocator has freed, from the cache. A
// dirty block is still what the durable onodes point at until the
// commit that dropped it lands, so its committed image is handed to
// write, which puts it in place before the block can be reallocated.
// Its records stay dirty on the onode block each was committed with,
// so the write-back that applies them flushes this write first.
func (c *metaCache) release(blk int64, write func(img []byte) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.dirty[blk]; ok {
		if err := write(c.committedLocked(blk)); err != nil {
			return err
		}
	}
	c.dropLocked(blk)
	return nil
}

// dropClean drops blk, unless it is dirty, and reports whether it did.
func (c *metaCache) dropClean(blk int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.dirty[blk]; ok {
		return false
	}
	c.dropLocked(blk)
	return true
}

// invalidate drops blk's entry, if any, and whatever state it had. The
// stale FIFO slot is left to age out; it is skipped at eviction time.
func (c *metaCache) invalidate(blk int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(blk)
}

func (c *metaCache) dropLocked(blk int64) {
	if b, ok := c.blocks[blk]; ok {
		delete(c.blocks, blk)
		bufpool.Put(b)
	}
	if o, ok := c.open[blk]; ok {
		bufpool.Put(o.base)
		delete(c.open, blk)
	}
	delete(c.dirty, blk)
}
