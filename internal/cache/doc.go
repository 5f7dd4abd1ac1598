// Package cache implements the NASD object system's buffer cache: an
// LRU block cache with write-behind and prefetch support. The paper's
// prototype object system (Section 4.2) implemented "its own internal
// object access, cache, and disk space management modules"; this is
// the cache module.
//
// The cache stores copies of device blocks keyed by physical block
// number. Reads hit the cache; misses fetch from the backing device, one
// device call per run of consecutive absent blocks.
// Writes are write-behind (dirty blocks go out on eviction or Flush, one
// device call per run of consecutive blocks), matching the prototype's
// "NASD has write-behind (fully) enabled" configuration.
//
// Each shard keeps one map from block to entry. An entry is resident (a
// pooled buffer and a place on the shard's intrusive LRU list) or
// claimed: marked filling while a fill reads it or a write makes room
// for it, off the LRU and absent to every reader. An entry that leaves
// the map (eviction, Invalidate, a failed claim) waits without a buffer
// on the shard's free list for the next claim, and a clean victim's
// buffer goes to the block installed in its place, so a miss on a full
// cache allocates nothing.
//
// Stats() exposes hit/miss/prefetch/eviction/writeback counters; the
// drive republishes them as the drive.cache.* pull gauges of DESIGN.md
// §5, which is how the Figure 6 warm- vs cold-read regimes are told
// apart in measured runs.
package cache
