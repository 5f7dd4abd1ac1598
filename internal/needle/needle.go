// Package needle implements a Haystack-style append-only object
// engine: every object mutation appends one self-describing needle
// record (header + payload + checksum) to a per-partition log of
// fixed-size segments, and a fully in-memory index maps each object to
// its current record. The design trades log space (reclaimed by
// compaction, which the mutation that crosses its threshold runs) for
// the property that matters to small-object workloads: reads cost one
// or two media I/Os and writes cost zero per-object metadata I/Os — no
// onode, no bitmap, no indirect block.
//
// Restart recovery restores the index from an on-disk snapshot plus a
// scan of records appended after it, falling back to a full log scan
// when no usable snapshot exists.
//
// The engine is deliberately storage-substrate-agnostic: segments are
// block runs handed out by a Space allocator, metadata (segment table,
// index snapshot) is persisted through a Meta store, and quota flows
// through a Quota account. The object layer (internal/object) plugs
// all three into its classic layout engine and fronts this package as
// the "needle" StoreBackend.
package needle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// UninterpSize is the size of the uninterpreted attribute block, kept
// in sync with the object layer's layout.UninterpSize.
const UninterpSize = 256

// Engine errors.
var (
	ErrNoLog    = errors.New("needle: no log for partition")
	ErrLogOpen  = errors.New("needle: log already open for partition")
	ErrNotFound = errors.New("needle: no such object")
	ErrExists   = errors.New("needle: object already exists")
	ErrTooBig   = errors.New("needle: record exceeds segment size")
	ErrCorrupt  = errors.New("needle: corrupt record")
	ErrBadMeta  = errors.New("needle: corrupt or missing log metadata")
)

// Info carries an object's attributes as stored in its needle record
// and mirrored in the in-memory index (attribute reads never touch
// media). Size is the payload length. Uninterp is nil for the common
// all-zero case; a non-nil pointer is treated as immutable — mutate by
// replacement, never in place.
type Info struct {
	Size       uint64
	Version    uint64
	CreateSec  int64
	ModSec     int64
	AttrModSec int64
	Prealloc   uint64
	Cluster    uint64
	Uninterp   *[UninterpSize]byte
}

// Record wire format (little-endian):
//
//	magic   u32   recMagic
//	flags   u8    tombstone / has-uninterp
//	part    u16   partition
//	obj     u64   object ID
//	epoch   u64   log epoch (random per log; rejects records from other
//	              logs or prior incarnations left in reallocated blocks)
//	seg     u64   sequence number of the segment this record was written
//	              into (rejects stale same-log records in reused blocks)
//	lsn     u64   log sequence number: the global mutation order across
//	              segments. Compaction copies records verbatim with
//	              their LSN, so "highest LSN wins" stays correct even
//	              though copied records land in later segments.
//	version u64   logical object version
//	size    u32   payload bytes
//	create/mod/attrmod i64, prealloc u64, cluster u64
//	payload [size]byte
//	uninterp [256]byte   only when flagUninterp
//	crc     u32   Castagnoli CRC over everything above
const (
	recMagic   = 0x4C44454E // "NEDL"
	headerSize = 4 + 1 + 2 + 8 + 8 + 8 + 8 + 8 + 4 + 8 + 8 + 8 + 8 + 8
	crcSize    = 4

	flagTombstone = 1 << 0
	flagUninterp  = 1 << 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// record is one decoded needle.
type record struct {
	flags byte
	part  uint16
	obj   uint64
	epoch uint64
	seg   uint64
	lsn   uint64
	info  Info // info.Size == len(payload); info.Uninterp set iff flagUninterp
	// payload aliases the decode buffer or the caller's data; encode
	// copies it out.
	payload []byte
}

func (r *record) tombstone() bool { return r.flags&flagTombstone != 0 }

// wireSize is the encoded record length in bytes.
func (r *record) wireSize() int64 {
	n := int64(headerSize) + int64(len(r.payload)) + crcSize
	if r.flags&flagUninterp != 0 {
		n += UninterpSize
	}
	return n
}

// appendTo appends r's encoding to b and returns the extended slice,
// so a record is encoded straight into the buffer that holds it.
func (r *record) appendTo(b []byte) []byte {
	start := len(b)
	b = slices.Grow(b, int(r.wireSize()))
	le := binary.LittleEndian
	b = le.AppendUint32(b, recMagic)
	b = append(b, r.flags)
	b = le.AppendUint16(b, r.part)
	b = le.AppendUint64(b, r.obj)
	b = le.AppendUint64(b, r.epoch)
	b = le.AppendUint64(b, r.seg)
	b = le.AppendUint64(b, r.lsn)
	b = le.AppendUint64(b, r.info.Version)
	b = le.AppendUint32(b, uint32(len(r.payload)))
	b = le.AppendUint64(b, uint64(r.info.CreateSec))
	b = le.AppendUint64(b, uint64(r.info.ModSec))
	b = le.AppendUint64(b, uint64(r.info.AttrModSec))
	b = le.AppendUint64(b, r.info.Prealloc)
	b = le.AppendUint64(b, r.info.Cluster)
	b = append(b, r.payload...)
	if r.flags&flagUninterp != 0 {
		var u [UninterpSize]byte
		if r.info.Uninterp != nil {
			u = *r.info.Uninterp
		}
		b = append(b, u[:]...)
	}
	return le.AppendUint32(b, crc32.Checksum(b[start:], crcTable))
}

// decodeRecord parses and checksum-verifies one record at the start of
// b, returning it and its encoded length. It fails with ErrCorrupt on
// any mismatch — including a wrong epoch or segment seq, which is how
// log scans detect the end of valid data.
func decodeRecord(b []byte, epoch, seg uint64) (*record, int64, error) {
	if len(b) < headerSize+crcSize {
		return nil, 0, ErrCorrupt
	}
	le := binary.LittleEndian
	if le.Uint32(b) != recMagic {
		return nil, 0, ErrCorrupt
	}
	r := &record{
		flags: b[4],
		part:  le.Uint16(b[5:]),
		obj:   le.Uint64(b[7:]),
		epoch: le.Uint64(b[15:]),
		seg:   le.Uint64(b[23:]),
		lsn:   le.Uint64(b[31:]),
	}
	if r.epoch != epoch || r.seg != seg {
		return nil, 0, ErrCorrupt
	}
	psize := int64(le.Uint32(b[47:]))
	r.info = Info{
		Size:       uint64(psize),
		Version:    le.Uint64(b[39:]),
		CreateSec:  int64(le.Uint64(b[51:])),
		ModSec:     int64(le.Uint64(b[59:])),
		AttrModSec: int64(le.Uint64(b[67:])),
		Prealloc:   le.Uint64(b[75:]),
		Cluster:    le.Uint64(b[83:]),
	}
	total := int64(headerSize) + psize + crcSize
	if r.flags&flagUninterp != 0 {
		total += UninterpSize
	}
	if total > int64(len(b)) {
		return nil, 0, ErrCorrupt
	}
	body := total - crcSize
	if le.Uint32(b[body:]) != crc32.Checksum(b[:body], crcTable) {
		return nil, 0, ErrCorrupt
	}
	r.payload = b[headerSize : headerSize+psize]
	if r.flags&flagUninterp != 0 {
		var u [UninterpSize]byte
		copy(u[:], b[headerSize+psize:])
		r.info.Uninterp = &u
	}
	return r, total, nil
}

// scanRecords iterates the valid records in raw starting at from,
// calling fn with each record and its offset. It stops at the first
// invalid record (the end of the log's valid data) and returns the
// offset it reached.
func scanRecords(raw []byte, epoch, seg uint64, from int64, fn func(off int64, r *record)) int64 {
	pos := from
	for pos < int64(len(raw)) {
		r, n, err := decodeRecord(raw[pos:], epoch, seg)
		if err != nil {
			break
		}
		fn(pos, r)
		pos += n
	}
	return pos
}

func corruptErr(part uint16, obj uint64) error {
	return fmt.Errorf("%w: partition %d object %d", ErrCorrupt, part, obj)
}
