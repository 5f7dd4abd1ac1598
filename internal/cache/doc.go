// Package cache implements the NASD object system's buffer cache: an
// LRU block cache with write-behind and prefetch support. The paper's
// prototype object system (Section 4.2) implemented "its own internal
// object access, cache, and disk space management modules"; this is
// the cache module.
//
// The cache stores copies of device blocks keyed by physical block
// number. Reads hit the cache; misses fetch from the backing device, one
// device call per run of consecutive absent blocks.
// Writes are write-behind by default (dirty blocks go out on eviction or
// Flush, one device call per run of consecutive blocks), matching the
// prototype's "NASD has write-behind (fully) enabled" configuration;
// write-through can be selected for metadata.
//
// Stats() exposes hit/miss/prefetch/eviction/writeback counters; the
// drive republishes them as the drive.cache.* pull gauges of DESIGN.md
// §5, which is how the Figure 6 warm- vs cold-read regimes are told
// apart in measured runs.
package cache
