package layout

import (
	"encoding/binary"
	"fmt"
)

func encodeSuperblock(b []byte, sb *Superblock) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], sb.Magic)
	le.PutUint32(b[4:], sb.Version)
	le.PutUint32(b[8:], sb.BlockSize)
	le.PutUint64(b[12:], uint64(sb.TotalBlocks))
	le.PutUint64(b[20:], uint64(sb.RefStart))
	le.PutUint64(b[28:], uint64(sb.RefBlocks))
	le.PutUint64(b[36:], uint64(sb.OnodeStart))
	le.PutUint64(b[44:], uint64(sb.OnodeBlocks))
	le.PutUint64(b[52:], uint64(sb.DataStart))
	le.PutUint64(b[60:], uint64(sb.OnodeCount))
	le.PutUint64(b[68:], sb.NextObjectID)
	le.PutUint64(b[76:], uint64(sb.JournalStart))
	le.PutUint64(b[84:], uint64(sb.JournalBlocks))
}

// superblockSize is the encoded size of a Superblock.
const superblockSize = 92

func decodeSuperblock(b []byte) (Superblock, error) {
	le := binary.LittleEndian
	var sb Superblock
	if len(b) < superblockSize {
		return sb, ErrNotFormatted
	}
	sb.Magic = le.Uint32(b[0:])
	if sb.Magic != Magic {
		return sb, ErrNotFormatted
	}
	sb.Version = le.Uint32(b[4:])
	if sb.Version == 1 { // predates the journal region
		return sb, fmt.Errorf("%w: format version 1", ErrNoJournal)
	}
	if sb.Version != FormatVersion {
		return sb, fmt.Errorf("layout: unsupported format version %d", sb.Version)
	}
	sb.BlockSize = le.Uint32(b[8:])
	sb.TotalBlocks = int64(le.Uint64(b[12:]))
	sb.RefStart = int64(le.Uint64(b[20:]))
	sb.RefBlocks = int64(le.Uint64(b[28:]))
	sb.OnodeStart = int64(le.Uint64(b[36:]))
	sb.OnodeBlocks = int64(le.Uint64(b[44:]))
	sb.DataStart = int64(le.Uint64(b[52:]))
	sb.OnodeCount = int64(le.Uint64(b[60:]))
	sb.NextObjectID = le.Uint64(b[68:])
	sb.JournalStart = int64(le.Uint64(b[76:]))
	sb.JournalBlocks = int64(le.Uint64(b[84:]))
	return sb, nil
}

// validate checks a decoded superblock against the device it was read
// from, devBlocks blocks of bs bytes, before Open sizes anything by it:
// the journal, refcount, onode and data regions lie in that order after
// block 0 and inside TotalBlocks, which the device holds; the refcount
// region counts every block; the onode table holds OnodeCount onodes.
// Each value is bounded by the device before it is added to or
// multiplied, so nothing overflows.
func (sb *Superblock) validate(bs, devBlocks int64) error {
	if sb.JournalBlocks == 0 {
		return ErrNoJournal
	}
	ok := bs >= OnodeSize && bs%OnodeSize == 0 && int64(sb.BlockSize) == bs && sb.TotalBlocks > 0 && sb.TotalBlocks <= devBlocks
	next := int64(1) // block 0 is the superblock
	for _, r := range [][2]int64{{sb.JournalStart, sb.JournalBlocks}, {sb.RefStart, sb.RefBlocks}, {sb.OnodeStart, sb.OnodeBlocks}, {sb.DataStart, 1}} {
		ok = ok && r[0] >= next && r[1] >= 0 && r[1] <= sb.TotalBlocks-r[0]
		next = r[0] + r[1]
	}
	if !ok || sb.RefBlocks*(bs/2) < sb.TotalBlocks || sb.OnodeCount < 0 || sb.OnodeCount > sb.OnodeBlocks*(bs/OnodeSize) {
		return fmt.Errorf("%w: %+v on a device of %d blocks of %d bytes", ErrBadSuperblock, *sb, devBlocks, bs)
	}
	return nil
}

func encodeOnode(b []byte, o *Onode) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], o.ObjectID)
	le.PutUint16(b[8:], o.Partition)
	le.PutUint16(b[10:], o.Flags)
	le.PutUint64(b[12:], o.Version)
	le.PutUint64(b[20:], o.Size)
	le.PutUint64(b[28:], uint64(o.CreateSec))
	le.PutUint64(b[36:], uint64(o.ModSec))
	le.PutUint64(b[44:], uint64(o.AttrModSec))
	le.PutUint64(b[52:], o.Prealloc)
	le.PutUint64(b[60:], o.Cluster)
	copy(b[68:68+UninterpSize], o.Uninterp[:])
	off := 68 + UninterpSize
	for i := 0; i < NumDirect; i++ {
		le.PutUint64(b[off+i*8:], uint64(o.Direct[i]))
	}
	off += NumDirect * 8
	le.PutUint64(b[off:], uint64(o.Indirect))
	le.PutUint64(b[off+8:], uint64(o.Indirect2))
}

func decodeOnode(b []byte) Onode {
	le := binary.LittleEndian
	var o Onode
	o.ObjectID = le.Uint64(b[0:])
	o.Partition = le.Uint16(b[8:])
	o.Flags = le.Uint16(b[10:])
	o.Version = le.Uint64(b[12:])
	o.Size = le.Uint64(b[20:])
	o.CreateSec = int64(le.Uint64(b[28:]))
	o.ModSec = int64(le.Uint64(b[36:]))
	o.AttrModSec = int64(le.Uint64(b[44:]))
	o.Prealloc = le.Uint64(b[52:])
	o.Cluster = le.Uint64(b[60:])
	copy(o.Uninterp[:], b[68:68+UninterpSize])
	off := 68 + UninterpSize
	for i := 0; i < NumDirect; i++ {
		o.Direct[i] = int64(le.Uint64(b[off+i*8:]))
	}
	off += NumDirect * 8
	o.Indirect = int64(le.Uint64(b[off:]))
	o.Indirect2 = int64(le.Uint64(b[off+8:]))
	return o
}
