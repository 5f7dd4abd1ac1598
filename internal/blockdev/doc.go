// Package blockdev defines the block-device abstraction the NASD object
// system is built on: every Device moves contiguous extents
// (ReadBlocks/WriteBlocks), and ReadBlock/WriteBlock are extents of one
// block. It provides an in-memory implementation with fault injection
// for failure testing, a file-backed one, a throttled service-time
// model, and a volatile-write-cache model for crash testing. The
// prototype's two-disk software stripe (Section 4.2) is modelled by
// hw.StripeDisk, not here.
//
// Instrument wraps any Device with telemetry: per-direction I/O and
// latency counters, a queue-depth gauge, and cumulative busy time
// (blockdev.* in DESIGN.md §5). The busy-time clock is what the drive
// uses to attribute each request's media component when reproducing
// the Table 1 cost split.
package blockdev
