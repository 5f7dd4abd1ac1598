package object

import (
	"time"

	"nasd/internal/bufpool"
	"nasd/internal/cache"
	"nasd/internal/layout"
	"nasd/internal/telemetry"
)

// classicBackend is the paper's object engine behind the StoreBackend
// interface: the layout package's superblock / refcounted allocator /
// onode table / indirect block maps, fronted by the sharded buffer
// cache with write-behind and sequential readahead. It is the default
// backend, the one that always exists (the control object and the
// needle engine's metadata objects live in it as partition-0 raw
// objects), and the only one supporting copy-on-write versions.
type classicBackend struct {
	lay   *layout.Store
	cache *cache.BlockCache
	cfg   *Config
	quota quotaAccount
	// prefetch maps readahead windows and holds what their fills share.
	prefetch *prefetcher

	// reads counts object-level reads served, the denominator of the
	// classic media-I/O-per-read gauge. Nil when metrics are disabled.
	reads *telemetry.Counter
}

func newClassicBackend(lay *layout.Store, c *cache.BlockCache, cfg *Config, quota quotaAccount) *classicBackend {
	cb := &classicBackend{lay: lay, cache: c, cfg: cfg, quota: quota, prefetch: newPrefetcher(lay, c)}
	if reg := cfg.Metrics; reg != nil {
		cb.reads = reg.Counter("object.classic.reads")
		// Device blocks per object read, in thousandths: blocks the
		// cache fetched on demand (Misses counts blocks, not device
		// calls: an extent fill of 16 blocks is 16 misses and one call)
		// plus the layout engine's direct metadata reads (onodes,
		// indirect blocks), over object reads served. Approximate under
		// mixed workloads (writes also miss), exact for read-only
		// phases — which is how the smallobj bench uses it.
		reg.Func("object.classic.media_per_read_milli", func() int64 {
			n := int64(cb.reads.Load())
			if n == 0 {
				return 0
			}
			return (c.Stats().Misses + lay.DevReads()) * 1000 / n
		})
	}
	return cb
}

// Kind implements StoreBackend.
func (c *classicBackend) Kind() BackendKind { return BackendClassic }

// lookup resolves (part, obj) to its onode. The caller holds the
// object's lock (either mode), which is what keeps the onode stable
// until the operation completes. Partition existence is checked by the
// Store before dispatch.
func (c *classicBackend) lookup(part uint16, obj uint64) (int64, layout.Onode, error) {
	idx, ok := c.lay.FindOnode(obj)
	if !ok {
		return 0, layout.Onode{}, ErrNoObject
	}
	o, err := c.lay.ReadOnode(idx)
	if err != nil {
		return 0, layout.Onode{}, err
	}
	if o.Partition != part {
		return 0, layout.Onode{}, ErrNoObject
	}
	return idx, o, nil
}

// footprint counts the block references owned by an object (data plus
// indirect blocks).
func (c *classicBackend) footprint(o *layout.Onode) int64 {
	var n int64
	_ = c.lay.ForEachBlock(o, func(int64, bool) error { n++; return nil })
	return n
}

// chargeOf is what quotas charge for an object: its footprint or its
// capacity reservation (Prealloc), whichever is larger. Reserved space
// is charged up front so preallocated writes can never fail on quota.
func (c *classicBackend) chargeOf(o *layout.Onode) int64 {
	return max(c.footprint(o), c.reserved(o.Prealloc))
}

// reserved is a capacity reservation of prealloc bytes in blocks.
func (c *classicBackend) reserved(prealloc uint64) int64 {
	bs := uint64(c.lay.BlockSize())
	return int64((prealloc + bs - 1) / bs)
}

// charging is taken before an operation that changes o's footprint: its
// reservation in blocks and, only under one, its footprint. Without a
// reservation the charge moves by exactly the block references the
// operation gained or dropped, so the object is not walked.
func (c *classicBackend) charging(o *layout.Onode) (res, fp int64) {
	if res = c.reserved(o.Prealloc); res != 0 {
		fp = c.footprint(o)
	}
	return res, fp
}

// chargeDelta is the change of an object's charge when its footprint
// moves by d from fp, under a reservation of res blocks (see charging).
func chargeDelta(res, fp, d int64) int64 {
	if res == 0 {
		return d
	}
	return max(fp+d, res) - max(fp, res)
}

// Charge implements StoreBackend.
func (c *classicBackend) Charge(part uint16, obj uint64) (int64, error) {
	_, o, err := c.lookup(part, obj)
	if err != nil {
		return 0, err
	}
	return c.chargeOf(&o), nil
}

// reserve updates an object's capacity reservation, charging or
// refunding the partition. Caller holds the object's exclusive lock and
// persists the onode.
func (c *classicBackend) reserve(o *layout.Onode, prealloc uint64) error {
	fp := c.footprint(o)
	delta := max(fp, c.reserved(prealloc)) - max(fp, c.reserved(o.Prealloc))
	if err := c.quota.chargeBlocks(o.Partition, delta); err != nil {
		return err
	}
	o.Prealloc = prealloc
	return nil
}

// clusterHint returns an allocation hint near the object this one is
// linked to (the clustering attribute of Section 4.1), or 0. The target
// object is read without its lock — the hint is advisory, and a
// concurrently mutating target only yields a stale hint.
func (c *classicBackend) clusterHint(o *layout.Onode) int64 {
	if o.Cluster == 0 {
		return 0
	}
	idx, ok := c.lay.FindOnode(o.Cluster)
	if !ok {
		return 0
	}
	t, err := c.lay.ReadOnode(idx)
	if err != nil {
		return 0
	}
	var hint int64
	_ = c.lay.ForEachBlock(&t, func(phys int64, isPtr bool) error {
		if !isPtr && phys+1 > hint {
			hint = phys + 1
		}
		return nil
	})
	return hint
}

// --- Object lifecycle ---------------------------------------------------

// Create implements StoreBackend. The new object is invisible until its
// onode is written, so no object lock is needed.
func (c *classicBackend) Create(part uint16, id uint64) error {
	idx, err := c.lay.AllocOnode()
	if err != nil {
		return err
	}
	now := c.cfg.Clock().Unix()
	o := layout.Onode{
		ObjectID:   id,
		Partition:  part,
		Version:    1,
		CreateSec:  now,
		ModSec:     now,
		AttrModSec: now,
	}
	return c.lay.WriteOnode(idx, &o)
}

// Remove implements StoreBackend: it deletes the object, releases its
// blocks, and returns the quota charge freed.
func (c *classicBackend) Remove(part uint16, obj uint64) (int64, error) {
	idx, o, err := c.lookup(part, obj)
	if err != nil {
		return 0, err
	}
	// One walk counts the footprint and drops each block's reference. A
	// block about to become free leaves the cache first, so that a later
	// reallocation cannot observe stale contents. The Store has drained
	// the object's readahead (SeqTracker.drain), so no fill queued
	// earlier brings them back.
	var fp int64
	if err := c.lay.ForEachBlock(&o, func(phys int64, isPtr bool) error {
		fp++
		if !isPtr && c.lay.RefCount(phys) == 1 {
			c.cache.Invalidate(phys)
		}
		return c.lay.Free(phys)
	}); err != nil {
		return 0, err
	}
	if err := c.lay.WriteOnode(idx, &layout.Onode{}); err != nil {
		return 0, err
	}
	return max(fp, c.reserved(o.Prealloc)), nil
}

// List implements StoreBackend.
func (c *classicBackend) List(part uint16) ([]uint64, error) {
	return c.lay.ObjectIDs(part), nil
}

// --- Attributes ----------------------------------------------------------

// GetAttr implements StoreBackend.
func (c *classicBackend) GetAttr(part uint16, obj uint64) (Attributes, error) {
	_, o, err := c.lookup(part, obj)
	if err != nil {
		return Attributes{}, err
	}
	return attrsFromOnode(&o), nil
}

func attrsFromOnode(o *layout.Onode) Attributes {
	return Attributes{
		Size:        o.Size,
		Version:     o.Version,
		CreateTime:  time.Unix(o.CreateSec, 0).UTC(),
		ModTime:     time.Unix(o.ModSec, 0).UTC(),
		AttrModTime: time.Unix(o.AttrModSec, 0).UTC(),
		Prealloc:    o.Prealloc,
		Cluster:     o.Cluster,
		Uninterp:    o.Uninterp,
	}
}

// SetAttr implements StoreBackend.
func (c *classicBackend) SetAttr(part uint16, obj uint64, a Attributes, mask SetAttrMask) error {
	idx, o, err := c.lookup(part, obj)
	if err != nil {
		return err
	}
	if mask&SetSize != 0 && a.Size != o.Size {
		if err := c.truncate(&o, a.Size); err != nil {
			return err
		}
		o.ModSec = c.cfg.Clock().Unix()
	}
	if mask&SetVersion != 0 {
		o.Version = a.Version
	}
	if mask&SetPrealloc != 0 {
		// Capacity reservation (Section 4.1: "allow capacity to be
		// reserved"): charge the partition for the reserved blocks now
		// so later writes cannot fail on quota, and refuse reservations
		// the quota cannot cover.
		if err := c.reserve(&o, a.Prealloc); err != nil {
			return err
		}
	}
	if mask&SetCluster != 0 {
		o.Cluster = a.Cluster
	}
	if mask&SetUninterp != 0 {
		o.Uninterp = a.Uninterp
	}
	if mask&SetModTime != 0 {
		o.ModSec = a.ModTime.Unix()
	}
	o.AttrModSec = c.cfg.Clock().Unix()
	return c.lay.WriteOnode(idx, &o)
}

// truncate resizes o in place, freeing or leaving holes. Caller holds
// the object's exclusive lock, has drained its readahead (as for
// Remove), and persists the onode afterwards.
func (c *classicBackend) truncate(o *layout.Onode, newSize uint64) error {
	bs := uint64(c.lay.BlockSize())
	if newSize > c.lay.MaxObjectSize() {
		return layout.ErrTooBig
	}
	var res, fp, dropped int64
	if newSize < o.Size {
		res, fp = c.charging(o)
		first := (newSize + bs - 1) / bs // first block to drop
		last := (o.Size + bs - 1) / bs
		for fb := first; fb < last; fb++ {
			phys, err := c.lay.BMap(o, int64(fb))
			if err != nil {
				return err
			}
			if phys != 0 && c.lay.RefCount(phys) == 1 {
				c.cache.Invalidate(phys)
			}
			if phys, err = c.lay.UnmapBlock(o, int64(fb)); err != nil {
				return err
			} else if phys != 0 {
				dropped++
			}
		}
		// Zero the tail of the new last block so growth re-reads zeros.
		if newSize%bs != 0 {
			phys, err := c.lay.BMap(o, int64(newSize/bs))
			if err != nil {
				return err
			}
			if phys != 0 {
				buf := bufpool.Get(int(bs))
				defer bufpool.Put(buf)
				keep := newSize % bs
				if err := c.cache.ReadRange(phys, 0, buf[:keep]); err != nil {
					return err
				}
				clear(buf[keep:])
				// Shared blocks must be unshared before zeroing.
				np, err := c.lay.BMapAlloc(o, int64(newSize/bs), phys)
				if err != nil {
					return err
				}
				if err := c.cache.WriteBlock(np, buf); err != nil {
					return err
				}
			}
		}
	}
	o.Size = newSize
	c.quota.settleBlocks(o.Partition, chargeDelta(res, fp, -dropped))
	return nil
}

// --- Data access ---------------------------------------------------------

// Read implements StoreBackend. The read is recorded in seq as it
// arrives; the readahead window it opens, if any, is queued on seq once
// the read's own data is in hand.
func (c *classicBackend) Read(part uint16, obj uint64, off uint64, n int, seq *SeqTracker) ([]byte, error) {
	_, o, err := c.lookup(part, obj)
	if err != nil {
		return nil, err
	}
	if c.reads != nil {
		c.reads.Inc()
	}
	if off >= o.Size {
		return nil, nil
	}
	if max := o.Size - off; uint64(n) > max {
		n = int(max)
	}
	from, window := seq.Advance(off, uint64(n), uint64(c.lay.BlockSize()), c.cfg.ReadaheadBlocks)
	// Pooled result, filled one physical extent at a time (readExtents):
	// resident blocks are copied straight from cache memory under the
	// shard lock, absent runs cost one device call each. Ownership
	// passes to the caller; the drive returns it to the pool once the
	// reply is on the wire.
	out := bufpool.Get(n)
	if err := c.readExtents(&o, off, out); err != nil {
		bufpool.Put(out)
		return nil, err
	}
	if window != 0 {
		c.prefetch.window(seq, &o, from, window)
	}
	return out, nil
}

// readExtents fills dst with the object's bytes from off (the caller
// has clipped the range to the object's size). The file blocks are
// grouped into extents, runs that are consecutive on the device, and
// each extent is one cache read (cache.ReadRange); holes read as zeros.
func (c *classicBackend) readExtents(o *layout.Onode, off uint64, dst []byte) error {
	bs := int(c.lay.BlockSize())
	for done := 0; done < len(dst); {
		cur := off + uint64(done)
		fb := int64(cur / uint64(bs))
		within := int(cur % uint64(bs))
		phys, err := c.lay.BMap(o, fb)
		if err != nil {
			return err
		}
		// Grow the extent while the next file block is the next device
		// block (or, after a hole, another hole).
		chunk := bs - within
		for k := int64(1); chunk < len(dst)-done; k++ {
			next, err := c.lay.BMap(o, fb+k)
			if err != nil {
				return err
			}
			if phys == 0 && next != 0 || phys != 0 && next != phys+k {
				break
			}
			chunk += bs
		}
		if chunk > len(dst)-done {
			chunk = len(dst) - done
		}
		if phys == 0 {
			clear(dst[done : done+chunk])
		} else if err := c.cache.ReadRange(phys, within, dst[done:done+chunk]); err != nil {
			return err
		}
		done += chunk
	}
	return nil
}

// Write implements StoreBackend. Data is written behind; the onode is
// committed to the journal before return. Quota admission reserves
// worst-case blocks up front so concurrent writers cannot jointly
// overshoot a partition quota.
func (c *classicBackend) Write(part uint16, obj uint64, off uint64, data []byte) error {
	idx, o, err := c.lookup(part, obj)
	if err != nil {
		return err
	}
	end := off + uint64(len(data))
	if end < off || end > c.lay.MaxObjectSize() {
		return ErrBadRange
	}
	bs := uint64(c.lay.BlockSize())
	res, fp := c.charging(&o)

	// Quota admission: estimate the worst-case new blocks (holes in the
	// written range plus up to three indirect blocks), net of the
	// object's capacity reservation, and reserve them against the
	// partition before writing. The reservation is settled against what
	// the write allocated afterwards.
	var reserved int64
	if c.quota.quotaed(part) {
		var holes int64 = 3 // worst-case new indirect blocks
		for fb := off / bs; fb*bs < end; fb++ {
			phys, err := c.lay.BMap(&o, int64(fb))
			if err != nil {
				return err
			}
			if phys == 0 {
				holes++
			}
		}
		if need := chargeDelta(res, fp, holes); need > 0 {
			if err := c.quota.chargeBlocks(part, need); err != nil {
				return err
			}
			reserved = need
		}
	}

	gained, werr := c.writeRange(&o, off, data)
	if werr == nil {
		if end > o.Size {
			o.Size = end
		}
		o.ModSec = c.cfg.Clock().Unix()
	}
	// Settle the reservation against what the object actually grew by —
	// also on error, since partially written blocks stay allocated.
	c.quota.settleBlocks(part, chargeDelta(res, fp, gained)-reserved)
	// Persist the onode even after a partial failure so blocks mapped
	// before the error are not orphaned.
	if perr := c.lay.WriteOnode(idx, &o); werr == nil {
		werr = perr
	}
	return werr
}

// writeRange maps the block range of one write in a single pass
// (layout.BMapAllocRange, whose pointer-slot changes ride in the onode
// record the caller commits) and hands the blocks to the cache. It
// reports the block references the object gained, error or not. Caller
// holds the object's exclusive lock and persists the onode.
func (c *classicBackend) writeRange(o *layout.Onode, off uint64, data []byte) (gained int64, err error) {
	if len(data) == 0 {
		return 0, nil
	}
	bs := uint64(c.lay.BlockSize())
	end := off + uint64(len(data))
	first, last := int64(off/bs), int64((end-1)/bs)
	// Allocate after the preceding file block (there is none before
	// block 0, which BMap refuses), else near the object this one is
	// linked to (clustering).
	hint := int64(0)
	if prev, err := c.lay.BMap(o, first-1); err == nil && prev != 0 {
		hint = prev + 1
	} else if o.Cluster != 0 {
		hint = c.clusterHint(o)
	}
	// Only the two ends can be partial blocks: read-modify-write, unless
	// the block was a hole before this write. Then it holds whatever a
	// previous owner left there and is zero-filled instead of read.
	wasHole := func(fb int64) bool { prev, err := c.lay.BMap(o, fb); return err == nil && prev == 0 }
	headHole, tailHole := wasHole(first), wasHole(last)
	phys, gained, err := c.lay.BMapAllocRange(o, first, int(last-first+1), hint)
	buf := bufpool.Get(int(bs)) // bounce buffer for the partial blocks
	defer bufpool.Put(buf)
	for i, p := range phys {
		lo, hi := uint64(first+int64(i))*bs, uint64(first+int64(i)+1)*bs
		src := data[max(lo, off)-off : min(hi, end)-off]
		var werr error
		if len(src) < int(bs) {
			if i == 0 && headHole || i > 0 && tailHole {
				clear(buf)
			} else {
				werr = c.cache.ReadBlock(p, buf)
			}
			copy(buf[max(lo, off)-lo:], src)
			src = buf
		}
		// A full block goes to the cache straight from the caller's
		// bytes. After a failure the remaining blocks are still written:
		// they are mapped, and must not keep a previous owner's bytes.
		if werr == nil {
			werr = c.cache.WriteBlock(p, src)
		}
		if err == nil {
			err = werr
		}
	}
	return gained, err
}

// VersionObject implements StoreBackend: it creates a copy-on-write
// version (snapshot) sharing all data blocks with the original until
// either side writes. Quota admission and object-count accounting for
// the clone happen in the Store above; the caller holds the source's
// exclusive lock.
func (c *classicBackend) VersionObject(part uint16, obj uint64) (uint64, error) {
	_, o, err := c.lookup(part, obj)
	if err != nil {
		return 0, err
	}
	idx, err := c.lay.AllocOnode()
	if err != nil {
		return 0, err
	}
	if err := c.lay.CloneOnodeBlocks(&o); err != nil {
		return 0, err
	}
	clone := o
	clone.ObjectID = c.lay.NextObjectID()
	clone.Version = 1
	clone.CreateSec = c.cfg.Clock().Unix()
	if err := c.lay.WriteOnode(idx, &clone); err != nil {
		return 0, err
	}
	return clone.ObjectID, nil
}

// Flush implements StoreBackend: it forces write-behind cache data to
// the device. The layout's own metadata sync happens once, in
// Store.Flush, after every backend has flushed.
func (c *classicBackend) Flush() error {
	return c.cache.Flush()
}

// --- Raw partition-0 objects --------------------------------------------
//
// The Store persists its own metadata — the partition table in the
// control object, and the needle engine's segment tables and index
// snapshots — as raw partition-0 objects in the classic engine,
// bypassing partition/quota logic. Callers hold pmu.

// writeRaw replaces an onode's data with data.
func (c *classicBackend) writeRaw(o *layout.Onode, data []byte) error {
	bs := int(c.lay.BlockSize())
	if _, err := c.writeRange(o, 0, data); err != nil {
		return err
	}
	// Drop blocks past the new end so raw objects can shrink.
	if o.Size > uint64(len(data)) {
		first := (int64(len(data)) + int64(bs) - 1) / int64(bs)
		last := (int64(o.Size) + int64(bs) - 1) / int64(bs)
		for fb := first; fb < last; fb++ {
			if _, err := c.lay.UnmapBlock(o, fb); err != nil {
				return err
			}
		}
	}
	o.Size = uint64(len(data))
	return nil
}

// readRaw reads an onode's full contents.
func (c *classicBackend) readRaw(o *layout.Onode) ([]byte, error) {
	out := make([]byte, o.Size)
	if err := c.readExtents(o, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// createRaw allocates a fresh partition-0 object and returns its ID.
func (c *classicBackend) createRaw() (uint64, error) {
	id := c.lay.NextObjectID()
	idx, err := c.lay.AllocOnode()
	if err != nil {
		return 0, err
	}
	o := layout.Onode{ObjectID: id, Partition: 0, Version: 1}
	if err := c.lay.WriteOnode(idx, &o); err != nil {
		return 0, err
	}
	return id, nil
}

// saveRaw replaces the contents of partition-0 object id.
func (c *classicBackend) saveRaw(id uint64, data []byte) error {
	idx, ok := c.lay.FindOnode(id)
	if !ok {
		return ErrNoObject
	}
	o, err := c.lay.ReadOnode(idx)
	if err != nil {
		return err
	}
	if err := c.writeRaw(&o, data); err != nil {
		return err
	}
	return c.lay.WriteOnode(idx, &o)
}

// loadRaw returns the contents of partition-0 object id.
func (c *classicBackend) loadRaw(id uint64) ([]byte, error) {
	idx, ok := c.lay.FindOnode(id)
	if !ok {
		return nil, ErrNoObject
	}
	o, err := c.lay.ReadOnode(idx)
	if err != nil {
		return nil, err
	}
	return c.readRaw(&o)
}

// removeRaw deletes partition-0 object id and frees its blocks.
func (c *classicBackend) removeRaw(id uint64) error {
	_, err := c.Remove(0, id)
	return err
}

var _ StoreBackend = (*classicBackend)(nil)
