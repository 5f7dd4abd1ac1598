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

// Pointer-slot changes ride in the KindOnode record that commits them,
// after the onode image: one section per pointer block the commit
// changes,
//
//	blk   u64  the pointer block
//	fresh u8   1: the block was born in this commit and starts zeroed
//	runs  u32  how many runs follow
//	run   first u32 | n u32 | val u64: slots first..first+n-1 take val,
//	      val+1, ... (all zero when val is 0)
//
// Runs are what a write's allocation produces (consecutive slots naming
// consecutive blocks) and what a truncate produces (a run of zeros), so
// a section is a few dozen bytes whatever the write's length.
const (
	ptrSectionHeader = 8 + 1 + 4
	ptrRunSize       = 4 + 4 + 8
)

// appendPtrSection appends the section that turns base into img, the
// old and new images of pointer block blk (base nil: a fresh block,
// zero before img). A block that did not change appends nothing.
func appendPtrSection(p []byte, blk int64, base, img []byte) []byte {
	le := binary.LittleEndian
	slots := len(img) / 8
	old := func(i int) uint64 {
		if base == nil {
			return 0
		}
		return le.Uint64(base[i*8:])
	}
	start := len(p)
	p = le.AppendUint64(p, uint64(blk))
	if base == nil {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	p = le.AppendUint32(p, 0)
	var runs uint32
	for i := 0; i < slots; {
		val := le.Uint64(img[i*8:])
		if val == old(i) {
			i++
			continue
		}
		n := 1
		for ; i+n < slots; n++ {
			next, want := le.Uint64(img[(i+n)*8:]), uint64(0)
			if val != 0 {
				want = val + uint64(n)
			}
			if next != want {
				break
			}
		}
		p = le.AppendUint32(p, uint32(i))
		p = le.AppendUint32(p, uint32(n))
		p = le.AppendUint64(p, val)
		runs++
		i += n
	}
	if runs == 0 && base != nil {
		return p[:start]
	}
	le.PutUint32(p[start+9:], runs)
	return p
}

// eachPtrSection calls fn with each section of p, the pointer-slot part
// of a KindOnode payload.
func eachPtrSection(p []byte, fn func(blk int64, fresh bool, runs []byte) error) error {
	le := binary.LittleEndian
	for len(p) > 0 {
		if len(p) < ptrSectionHeader {
			return fmt.Errorf("layout: short pointer-slot section")
		}
		blk, fresh, n := int64(le.Uint64(p)), p[8] == 1, int(le.Uint32(p[9:]))
		p = p[ptrSectionHeader:]
		if n < 0 || n > len(p)/ptrRunSize {
			return fmt.Errorf("layout: truncated pointer-slot section of block %d", blk)
		}
		if err := fn(blk, fresh, p[:n*ptrRunSize]); err != nil {
			return err
		}
		p = p[n*ptrRunSize:]
	}
	return nil
}

// applyPtrRuns patches a section's runs onto img, zeroing it first for
// a fresh block.
func applyPtrRuns(img []byte, fresh bool, runs []byte) error {
	le := binary.LittleEndian
	if fresh {
		clear(img)
	}
	slots := uint64(len(img) / 8)
	for ; len(runs) >= ptrRunSize; runs = runs[ptrRunSize:] {
		first, n, val := uint64(le.Uint32(runs)), uint64(le.Uint32(runs[4:])), le.Uint64(runs[8:])
		if first+n > slots {
			return fmt.Errorf("layout: pointer-slot run [%d,%d) past %d slots", first, first+n, slots)
		}
		for i := uint64(0); i < n; i++ {
			v := uint64(0)
			if val != 0 {
				v = val + i
			}
			le.PutUint64(img[(first+i)*8:], v)
		}
	}
	return nil
}
