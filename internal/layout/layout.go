// Package layout implements the NASD object system's on-disk layout:
// a superblock, a reference-counted block allocator (reference counts,
// rather than a plain bitmap, make copy-on-write object versions cheap),
// a table of onodes (object nodes, loosely modelled on FFS inodes as the
// paper's interface is "based loosely on the inode interface of a UNIX
// filesystem"), and direct/indirect block maps.
//
// The paper's prototype object system implemented "its own internal
// object access, cache, and disk space management modules"; this package
// is the disk space management module.
package layout

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"nasd/internal/blockdev"
	"nasd/internal/bufpool"
	"nasd/internal/journal"
	"nasd/internal/telemetry"
)

// Geometry constants.
const (
	// Magic identifies a formatted NASD volume.
	Magic = 0x4E415344 // "NASD"
	// FormatVersion is the layout version written and read by this
	// package. Version 2 added the reserved metadata-journal region;
	// version 1 volumes, which have none, are refused (ErrNoJournal).
	FormatVersion = 2
	// OnodeSize is the on-disk size of one onode.
	OnodeSize = 512
	// NumDirect is the number of direct block pointers per onode.
	NumDirect = 20
	// UninterpSize is the size of the uninterpreted filesystem-specific
	// attribute block each object carries (Section 4.1: "an uninterpreted
	// block of attribute space is available to the file manager").
	UninterpSize = 256
)

// Layout errors.
var (
	ErrNotFormatted = errors.New("layout: device not formatted")
	ErrNoSpace      = errors.New("layout: out of space")
	ErrNoOnodes     = errors.New("layout: onode table full")
	ErrBadOnode     = errors.New("layout: onode index out of range")
	ErrTooBig       = errors.New("layout: offset beyond maximum object size")
	// ErrNoJournal refuses a volume without a write-ahead journal region:
	// its metadata would be crash-safe only up to the last Sync.
	ErrNoJournal = errors.New("layout: volume has no metadata journal region")
	// ErrBadSuperblock refuses a superblock whose geometry does not fit
	// the device it was read from.
	ErrBadSuperblock = errors.New("layout: corrupt superblock")
)

// Superblock describes the volume.
type Superblock struct {
	Magic        uint32
	Version      uint32
	BlockSize    uint32
	TotalBlocks  int64
	RefStart     int64 // first block of the refcount region
	RefBlocks    int64
	OnodeStart   int64 // first block of the onode table
	OnodeBlocks  int64
	DataStart    int64 // first data block
	OnodeCount   int64
	NextObjectID uint64
	// JournalStart/JournalBlocks locate the reserved write-ahead
	// journal region, between the superblock and the refcount region.
	JournalStart  int64
	JournalBlocks int64
}

// Onode is an object node: per-object metadata plus the block map.
type Onode struct {
	ObjectID   uint64 // 0 means the slot is free
	Partition  uint16
	Flags      uint16
	Version    uint64 // logical version number (capability revocation)
	Size       uint64 // object size in bytes
	CreateSec  int64
	ModSec     int64
	AttrModSec int64
	Prealloc   uint64 // reserved capacity in bytes
	Cluster    uint64 // object this one should be clustered near
	Uninterp   [UninterpSize]byte
	Direct     [NumDirect]int64
	Indirect   int64 // single-indirect block (block of block pointers)
	Indirect2  int64 // double-indirect block
}

// Allocated reports whether the onode holds a live object.
func (o *Onode) Allocated() bool { return o.ObjectID != 0 }

// held counts the block references stored in the onode itself.
func (o *Onode) held() (n int64) {
	for _, b := range o.Direct {
		if b != 0 {
			n++
		}
	}
	if o.Indirect != 0 {
		n++
	}
	if o.Indirect2 != 0 {
		n++
	}
	return n
}

// BlockIO is the interface layout uses to move data-block contents
// during copy-on-write copies. By default it is the device itself; the
// object layer points it at its buffer cache so COW copies observe
// write-behind data that has not reached the device yet.
type BlockIO interface {
	ReadBlock(i int64, buf []byte) error
	WriteBlock(i int64, data []byte) error
}

// onodeStripes is the number of independently locked stripes of the
// onode table. Onodes are packed several to a device block, so an
// onode write is a read-modify-write of its block; the stripe lock
// (indexed by device block) makes that atomic without serializing
// writes to unrelated onode blocks.
const onodeStripes = 16

// Store is an open volume. All methods are safe for concurrent use:
// allocator and index state is guarded by a single narrowly-scoped
// mutex (mu) held only across in-memory bitmap/metadata mutations,
// and onode-table device blocks by per-block stripe locks. Pointer
// (indirect) blocks carry no lock here — exclusively-owned pointer
// blocks are only ever changed under their object's exclusive lock in
// the layer above, and copy-on-write-shared pointer blocks are read-
// only until unshared. In the object store's lock hierarchy this
// package is the bottom layer (object → partition → cache → layout).
type Store struct {
	mu     sync.Mutex
	meter  *telemetry.LockMeter
	onmu   [onodeStripes]sync.Mutex
	dev    blockdev.Device
	dataIO BlockIO
	sb     Superblock

	ref       []uint16 // in-memory refcounts, persisted to RefStart region
	refDirty  map[int64]bool
	freeCount int64
	sbDirty   bool

	onodeIndex map[uint64]int64 // object ID -> onode slot
	freeOnodes []int64
	allocHint  int64

	ptrsPerBlock int64

	// jnl is the write-ahead metadata journal. refPending accumulates
	// refcount changes since the last Sync for the next KindRefUpdate
	// intent record; recovered holds the non-layout records (partition
	// table, needle segment tables) replayed at Open for the object
	// layer to apply.
	jnl        *journal.Journal
	refPending map[int64]uint16
	recovered  []journal.Record
	recStats   journal.Stats

	// devReads counts device reads issued for layout metadata (onodes
	// and pointer blocks), which bypass the object layer's cache. The
	// object layer folds it into its media-I/O-per-read gauge.
	devReads atomic.Int64

	// meta caches onode and pointer blocks so the block-map walk does
	// not pay one media read per data block, and holds the metadata
	// blocks awaiting write-back (metacache.go documents the coherence
	// rules). wbmu makes flushDevice one at a time.
	meta *metaCache
	wbmu sync.Mutex
}

// FormatOptions controls Format.
type FormatOptions struct {
	// OnodeCount is the number of onode slots (default: one per 64
	// data blocks, min 128).
	OnodeCount int64
	// JournalBlocks sizes the reserved write-ahead journal region.
	// Zero picks a default (1/32 of the device, clamped to [16, 1024]
	// blocks); a positive value is raised to at least 16. Every volume
	// has a journal, so a negative value is an error.
	JournalBlocks int64
	// Metrics receives the journal.* counters (optional).
	Metrics *telemetry.Registry
}

// OpenOptions controls Open.
type OpenOptions struct {
	// Metrics receives the journal.* counters (optional).
	Metrics *telemetry.Registry
}

// defaultJournalBlocks sizes the journal region for a device.
func defaultJournalBlocks(total int64) int64 {
	jb := total / 32
	if jb < 16 {
		jb = 16
	}
	if jb > 1024 {
		jb = 1024
	}
	return jb
}

// Format writes a fresh, empty layout to dev and returns the open store.
func Format(dev blockdev.Device, opts FormatOptions) (*Store, error) {
	bs := int64(dev.BlockSize())
	if bs < OnodeSize || bs%OnodeSize != 0 {
		return nil, fmt.Errorf("layout: unsupported block size %d", bs)
	}
	total := dev.Blocks()
	refPerBlock := bs / 2
	refBlocks := (total + refPerBlock - 1) / refPerBlock
	onodeCount := opts.OnodeCount
	if onodeCount <= 0 {
		onodeCount = total / 64
		if onodeCount < 128 {
			onodeCount = 128
		}
	}
	onodesPerBlock := bs / OnodeSize
	onodeBlocks := (onodeCount + onodesPerBlock - 1) / onodesPerBlock
	jb := opts.JournalBlocks
	switch {
	case jb < 0:
		return nil, fmt.Errorf("layout: negative journal size %d: every volume is journaled", jb)
	case jb == 0:
		jb = defaultJournalBlocks(total)
	case jb < 16:
		jb = 16
	}
	const journalStart = 1
	refStart := journalStart + jb
	dataStart := refStart + refBlocks + onodeBlocks
	if dataStart >= total {
		return nil, fmt.Errorf("layout: device too small (%d blocks, %d needed for metadata)", total, dataStart)
	}
	sb := Superblock{
		Magic:         Magic,
		Version:       FormatVersion,
		BlockSize:     uint32(bs),
		TotalBlocks:   total,
		RefStart:      refStart,
		RefBlocks:     refBlocks,
		OnodeStart:    refStart + refBlocks,
		OnodeBlocks:   onodeBlocks,
		DataStart:     dataStart,
		OnodeCount:    onodeCount,
		NextObjectID:  1,
		JournalStart:  journalStart,
		JournalBlocks: jb,
	}
	s := &Store{
		dev:          dev,
		dataIO:       dev,
		sb:           sb,
		ref:          make([]uint16, total),
		refDirty:     make(map[int64]bool),
		freeCount:    total - dataStart,
		onodeIndex:   make(map[uint64]int64),
		ptrsPerBlock: bs / 8,
		allocHint:    dataStart,
		meta:         newMetaCache(&sb),
		refPending:   make(map[int64]uint16),
	}
	err := journal.Format(dev, journalStart, jb)
	if err == nil {
		s.jnl, _, _, err = journal.Open(dev, journalStart, jb, opts.Metrics)
	}
	if err != nil {
		return nil, err
	}
	// Metadata blocks are permanently referenced.
	for i := int64(0); i < dataStart; i++ {
		s.ref[i] = 1
		s.refDirty[i/refPerBlock] = true
	}
	// Zero the onode table.
	zero := make([]byte, bs)
	for i := int64(0); i < onodeBlocks; i++ {
		if err := dev.WriteBlock(sb.OnodeStart+i, zero); err != nil {
			return nil, err
		}
	}
	for i := onodeCount - 1; i >= 0; i-- {
		s.freeOnodes = append(s.freeOnodes, i)
	}
	s.sbDirty = true
	if err := s.Sync(); err != nil {
		return nil, err
	}
	return s, nil
}

// Open reads an existing layout from dev, whose superblock must
// describe a journaled volume that fits the device. It first recovers
// the write-ahead journal: committed onode records are patched onto the
// device before the onode scan and the pointer-slot changes they carry
// after it (replayPtrs), committed refcount updates are replayed over
// the loaded allocator state, and object-layer records (partition
// table, needle segment tables) are retained for RecoveredRecords. The
// caller finishes recovery by making the replayed state durable (Sync)
// and calling JournalReset.
func Open(dev blockdev.Device, opts OpenOptions) (*Store, error) {
	bs := int64(dev.BlockSize())
	buf := make([]byte, bs)
	if err := dev.ReadBlock(0, buf); err != nil {
		return nil, err
	}
	sb, err := decodeSuperblock(buf)
	if err != nil {
		return nil, err
	}
	if err := sb.validate(bs, dev.Blocks()); err != nil {
		return nil, err
	}
	s := &Store{
		dev:          dev,
		dataIO:       dev,
		sb:           sb,
		ref:          make([]uint16, sb.TotalBlocks),
		refDirty:     make(map[int64]bool),
		onodeIndex:   make(map[uint64]int64),
		ptrsPerBlock: bs / 8,
		allocHint:    sb.DataStart,
		meta:         newMetaCache(&sb),
		refPending:   make(map[int64]uint16),
	}
	j, recs, st, err := journal.Open(dev, sb.JournalStart, sb.JournalBlocks, opts.Metrics)
	if err != nil {
		return nil, err
	}
	s.jnl, s.recStats = j, st
	var refRecs []journal.Record
	var ptrRecs [][]byte
	for _, r := range recs {
		switch r.Kind {
		case journal.KindOnode:
			// Patch the image onto the device now, before the onode
			// scan below builds the index from it.
			ptrs, err := s.replayOnode(r)
			if err != nil {
				return nil, err
			}
			if len(ptrs) > 0 {
				ptrRecs = append(ptrRecs, ptrs)
			}
			j.Applied(r.LSN)
		case journal.KindRefUpdate:
			refRecs = append(refRecs, r)
		default:
			s.recovered = append(s.recovered, r)
		}
	}
	// Load refcounts.
	refPerBlock := bs / 2
	for i := int64(0); i < sb.RefBlocks; i++ {
		if err := dev.ReadBlock(sb.RefStart+i, buf); err != nil {
			return nil, err
		}
		base := i * refPerBlock
		for j := int64(0); j < refPerBlock && base+j < sb.TotalBlocks; j++ {
			s.ref[base+j] = binary.LittleEndian.Uint16(buf[j*2:])
		}
	}
	// Replay committed refcount intents over the loaded table; the
	// dirty marks route them back to the device on the next Sync.
	for _, r := range refRecs {
		blocks, refs, derr := journal.DecodeRefUpdate(r.Payload)
		if derr != nil {
			return nil, derr
		}
		for i, b := range blocks {
			if b >= 0 && b < sb.TotalBlocks && s.ref[b] != refs[i] {
				s.ref[b] = refs[i]
				s.refDirty[b/refPerBlock] = true
			}
		}
		s.jnl.Applied(r.LSN)
	}
	for i := sb.DataStart; i < sb.TotalBlocks; i++ {
		if s.ref[i] == 0 {
			s.freeCount++
		}
	}
	// Scan onode table to build the index and free list, noting the
	// pointer-block roots when there are pointer slots to replay.
	var roots, roots2 []int64
	onodesPerBlock := bs / OnodeSize
	for blk := int64(0); blk < sb.OnodeBlocks; blk++ {
		if err := dev.ReadBlock(sb.OnodeStart+blk, buf); err != nil {
			return nil, err
		}
		for j := int64(0); j < onodesPerBlock; j++ {
			idx := blk*onodesPerBlock + j
			if idx >= sb.OnodeCount {
				break
			}
			o := decodeOnode(buf[j*OnodeSize : (j+1)*OnodeSize])
			if o.Allocated() {
				s.onodeIndex[o.ObjectID] = idx
				if len(ptrRecs) > 0 {
					roots = append(roots, o.Indirect, o.Indirect2)
					roots2 = append(roots2, o.Indirect2)
				}
			} else {
				s.freeOnodes = append(s.freeOnodes, idx)
			}
		}
	}
	// Free list pops from the end; reverse so low indexes allocate first.
	for i, j := 0, len(s.freeOnodes)-1; i < j; i, j = i+1, j-1 {
		s.freeOnodes[i], s.freeOnodes[j] = s.freeOnodes[j], s.freeOnodes[i]
	}
	if err := s.replayPtrs(ptrRecs, roots, roots2); err != nil {
		return nil, err
	}
	return s, nil
}

// replayOnode writes a recovered onode image back to its slot on the
// device (the committed intent whose in-place write may have been
// lost or torn by the crash) and returns the pointer-slot sections the
// record carries after the image.
func (s *Store) replayOnode(r journal.Record) ([]byte, error) {
	idx32, body, err := journal.DecodeOnode(r.Payload)
	if err != nil {
		return nil, err
	}
	idx := int64(idx32)
	if idx < 0 || idx >= s.sb.OnodeCount || len(body) < OnodeSize {
		return nil, fmt.Errorf("layout: journal onode record out of range (idx %d)", idx)
	}
	bs := int64(s.sb.BlockSize)
	per := bs / OnodeSize
	blk := s.sb.OnodeStart + idx/per
	buf := make([]byte, bs)
	if err := s.dev.ReadBlock(blk, buf); err != nil {
		return nil, err
	}
	off := (idx % per) * OnodeSize
	copy(buf[off:off+OnodeSize], body[:OnodeSize])
	s.meta.invalidate(blk)
	return body[OnodeSize:], s.dev.WriteBlock(blk, buf)
}

// replayPtrs patches the pointer-slot sections of the replayed onode
// records (recs, in LSN order) onto the blocks they name and writes
// them back. Only a block that is a pointer block of a live object once
// the onodes are replayed is patched: an indirect or double-indirect
// block of an allocated onode (roots, with the double-indirect ones in
// roots2), or a first-level block a double-indirect one names. Any other
// block a section names was freed after the section committed and may
// hold anything now, another object's data included.
func (s *Store) replayPtrs(recs [][]byte, roots, roots2 []int64) error {
	if len(recs) == 0 {
		return nil
	}
	type change struct {
		fresh bool
		runs  []byte
	}
	changes := make(map[int64][]change)
	for _, p := range recs {
		if err := eachPtrSection(p, func(blk int64, fresh bool, runs []byte) error {
			changes[blk] = append(changes[blk], change{fresh, runs})
			return nil
		}); err != nil {
			return err
		}
	}
	buf := make([]byte, s.sb.BlockSize)
	patch := func(blk int64) error {
		cs, ok := changes[blk]
		if !ok || s.clampPtr(blk) == 0 {
			return nil
		}
		delete(changes, blk)
		if err := s.dev.ReadBlock(blk, buf); err != nil {
			return err
		}
		for _, c := range cs {
			if err := applyPtrRuns(buf, c.fresh, c.runs); err != nil {
				return err
			}
		}
		return s.dev.WriteBlock(blk, buf)
	}
	for _, blk := range roots {
		if err := patch(blk); err != nil {
			return err
		}
	}
	l1 := make([]byte, s.sb.BlockSize)
	for _, blk := range roots2 {
		if s.clampPtr(blk) == 0 {
			continue
		}
		if err := s.dev.ReadBlock(blk, l1); err != nil {
			return err
		}
		for i := 0; i < len(l1); i += 8 {
			if err := patch(int64(binary.LittleEndian.Uint64(l1[i:]))); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- Journal ----------------------------------------------------------

// journalAppend appends an intent record. A full journal is made room
// in: the dirty metadata blocks are written back and the device flushed
// (which makes every issued in-place effect durable), then the applied
// records are compacted away and the record committed in one step.
func (s *Store) journalAppend(kind journal.Kind, payload []byte) (uint64, error) {
	lsn, err := s.jnl.Append(kind, payload)
	if errors.Is(err, journal.ErrFull) {
		if err = s.flushDevice(); err == nil {
			lsn, err = s.jnl.CheckpointWith(kind, payload)
		}
	}
	return lsn, err
}

// JournalAppend durably appends one intent record on behalf of the
// object layer (partition table, needle segment tables): the record is
// committed — group-flushed — before return. journal.ErrFull means the
// record cannot fit even after compaction; the caller should fall back
// to its direct durable write path.
func (s *Store) JournalAppend(kind journal.Kind, payload []byte) (uint64, error) {
	lsn, err := s.journalAppend(kind, payload)
	if err != nil {
		return 0, err
	}
	if err := s.jnl.Commit(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// JournalApplied marks an object-layer record's in-place effect as
// issued (see journal.Journal.Applied).
func (s *Store) JournalApplied(lsn uint64) { s.jnl.Applied(lsn) }

// JournalReset discards the journal at the end of mount-time recovery.
// Every replayed effect must already be durable (Sync first).
func (s *Store) JournalReset() error { return s.jnl.Reset() }

// RecoveredRecords returns the object-layer journal records (partition
// table, needle segment tables) replayed at Open, plus the scan stats.
func (s *Store) RecoveredRecords() ([]journal.Record, journal.Stats) {
	return s.recovered, s.recStats
}

// lockAlloc acquires the allocator/index mutex through the contention
// meter (a nil meter locks directly).
func (s *Store) lockAlloc() { s.meter.Lock(&s.mu) }

// SetLockMeter wires contention telemetry for the allocator lock. Call
// before concurrent use.
func (s *Store) SetLockMeter(m *telemetry.LockMeter) { s.meter = m }

// onodeLock returns the stripe lock covering the onode-table device
// block that holds onode idx.
func (s *Store) onodeLock(idx int64) *sync.Mutex {
	per := int64(s.sb.BlockSize) / OnodeSize
	return &s.onmu[(idx/per)%onodeStripes]
}

// BlockSize returns the volume block size in bytes.
func (s *Store) BlockSize() int64 { return int64(s.sb.BlockSize) }

// FreeBlocks returns the number of currently unreferenced data blocks.
func (s *Store) FreeBlocks() int64 {
	s.lockAlloc()
	defer s.mu.Unlock()
	return s.freeCount
}

// SetDataIO routes data-block copy-on-write copies through io instead of
// the raw device. Pass the object layer's buffer cache so COW copies see
// write-behind data. Pointer (indirect) blocks always use the raw device
// because the block-map code reads them directly from it.
func (s *Store) SetDataIO(io BlockIO) {
	s.lockAlloc()
	defer s.mu.Unlock()
	s.dataIO = io
}

// Superblock returns a copy of the superblock.
func (s *Store) Superblock() Superblock {
	s.lockAlloc()
	defer s.mu.Unlock()
	return s.sb
}

// NextObjectID atomically returns and increments the volume's object ID
// counter.
func (s *Store) NextObjectID() uint64 {
	s.lockAlloc()
	defer s.mu.Unlock()
	id := s.sb.NextObjectID
	s.sb.NextObjectID++
	s.sbDirty = true
	return id
}

// ReserveObjectIDs raises the object ID counter to at least min so IDs
// below min can be used as well-known objects.
func (s *Store) ReserveObjectIDs(min uint64) {
	s.lockAlloc()
	defer s.mu.Unlock()
	if s.sb.NextObjectID < min {
		s.sb.NextObjectID = min
		s.sbDirty = true
	}
}

// MaxObjectSize returns the largest object size the block map supports.
func (s *Store) MaxObjectSize() uint64 {
	bs := uint64(s.sb.BlockSize)
	p := uint64(s.ptrsPerBlock)
	return bs * (NumDirect + p + p*p)
}

// --- Block allocation -------------------------------------------------

// Alloc allocates n data blocks, preferring a contiguous run starting at
// or after hint (pass 0 for no preference). Contiguity is what lets the
// drive schedule efficient sequential transfers (the paper's NASD is
// "better tuned for disk access" than FFS).
func (s *Store) Alloc(n int, hint int64) ([]int64, error) {
	if n <= 0 {
		return nil, nil
	}
	blocks := make([]int64, n)
	if s.alloc(blocks, hint, false) < n {
		return nil, ErrNoSpace
	}
	return blocks, nil
}

// alloc is Alloc into dst and returns how many it allocated: all of
// dst, or, short of free blocks, none or with partial the prefix.
func (s *Store) alloc(dst []int64, hint int64, partial bool) int {
	s.lockAlloc()
	defer s.mu.Unlock()
	start := hint
	if start < s.sb.DataStart || start >= s.sb.TotalBlocks {
		start = s.allocHint
	}
	n := 0
	// First pass: scan from start; second pass: from the data region start.
	for pass := 0; pass < 2 && n < len(dst); pass++ {
		var lo, hi int64
		if pass == 0 {
			lo, hi = start, s.sb.TotalBlocks
		} else {
			lo, hi = s.sb.DataStart, start
		}
		for i := lo; i < hi && n < len(dst); i++ {
			if s.ref[i] == 0 {
				dst[n] = i
				n++
			}
		}
	}
	if n == 0 || n < len(dst) && !partial {
		return 0
	}
	for _, b := range dst[:n] {
		s.setRef(b, 1)
	}
	s.allocHint = dst[n-1] + 1
	if s.allocHint >= s.sb.TotalBlocks {
		s.allocHint = s.sb.DataStart
	}
	return n
}

// IncRef increments a block's reference count (copy-on-write sharing).
func (s *Store) IncRef(blk int64) error {
	s.lockAlloc()
	defer s.mu.Unlock()
	if blk < s.sb.DataStart || blk >= s.sb.TotalBlocks {
		return fmt.Errorf("layout: IncRef(%d) outside data region", blk)
	}
	if s.ref[blk] == 0 {
		return fmt.Errorf("layout: IncRef(%d) on free block", blk)
	}
	s.setRef(blk, s.ref[blk]+1)
	return nil
}

// Free decrements a block's reference count, freeing it at zero.
func (s *Store) Free(blk int64) error {
	s.lockAlloc()
	defer s.mu.Unlock()
	if blk < s.sb.DataStart || blk >= s.sb.TotalBlocks {
		return fmt.Errorf("layout: Free(%d) outside data region", blk)
	}
	if s.ref[blk] == 0 {
		return fmt.Errorf("layout: double free of block %d", blk)
	}
	s.setRef(blk, s.ref[blk]-1)
	if s.ref[blk] == 0 {
		// A fully freed block may be reallocated for anything (data or
		// metadata); a cached metadata copy must not outlive it.
		return s.releaseMeta(blk)
	}
	return nil
}

// releaseMeta drops a freed block from the metadata cache. A dirty one
// is written in place first (metaCache.release), with write-backs held
// off, so that none writes its image after it is reallocated.
func (s *Store) releaseMeta(blk int64) error {
	if s.meta.dropClean(blk) {
		return nil
	}
	s.wbmu.Lock()
	defer s.wbmu.Unlock()
	return s.meta.release(blk, func(img []byte) error { return s.dev.WriteBlock(blk, img) })
}

// RefCount returns a block's reference count.
func (s *Store) RefCount(blk int64) uint16 {
	s.lockAlloc()
	defer s.mu.Unlock()
	if blk < 0 || blk >= s.sb.TotalBlocks {
		return 0
	}
	return s.ref[blk]
}

// setRef must be called with mu held.
func (s *Store) setRef(blk int64, v uint16) {
	old := s.ref[blk]
	if blk >= s.sb.DataStart {
		if old == 0 && v > 0 {
			s.freeCount--
		} else if old > 0 && v == 0 {
			s.freeCount++
		}
	}
	s.ref[blk] = v
	refPerBlock := int64(s.sb.BlockSize) / 2
	s.refDirty[blk/refPerBlock] = true
	// Accumulate for the KindRefUpdate intent record that Sync commits
	// before rewriting the refcount region in place.
	s.refPending[blk] = v
}

// --- Onode management -------------------------------------------------

// AllocOnode claims a free onode slot and returns its index.
func (s *Store) AllocOnode() (int64, error) {
	s.lockAlloc()
	defer s.mu.Unlock()
	if len(s.freeOnodes) == 0 {
		return 0, ErrNoOnodes
	}
	idx := s.freeOnodes[len(s.freeOnodes)-1]
	s.freeOnodes = s.freeOnodes[:len(s.freeOnodes)-1]
	return idx, nil
}

// ReadOnode loads the onode at idx. The stripe lock excludes a
// concurrent writer of the same onode block, so the read is never
// torn and a fill cannot install an image a writer has replaced.
func (s *Store) ReadOnode(idx int64) (o Onode, err error) {
	if idx < 0 || idx >= s.sb.OnodeCount {
		return Onode{}, ErrBadOnode
	}
	per := int64(s.sb.BlockSize) / OnodeSize
	l := s.onodeLock(idx)
	l.Lock()
	defer l.Unlock()
	err = s.viewMeta(s.sb.OnodeStart+idx/per, nil, func(b []byte) { o = decodeOnode(b[(idx%per)*OnodeSize:][:OnodeSize]) })
	return o, err
}

// WriteOnode stores o at idx and maintains the object ID index. Writing
// a zero ObjectID releases the slot. The stripe lock makes the
// read-modify-write of the shared onode block atomic against writers of
// neighboring onodes. The new image is committed to the write-ahead
// journal (one journal write, one device flush) in one record with the
// pointer-slot changes the object's block-map updates have made since
// its last commit; the onode block and those pointer blocks turn dirty
// in the metadata cache, flushDevice writes them in place, and a crash
// before then is repaired by replay at the next mount. Writing the image
// the slot already holds, with no pointer slots changed, does nothing.
func (s *Store) WriteOnode(idx int64, o *Onode) error {
	if idx < 0 || idx >= s.sb.OnodeCount {
		return ErrBadOnode
	}
	bs := int64(s.sb.BlockSize)
	per := bs / OnodeSize
	blk := s.sb.OnodeStart + idx/per
	buf := bufpool.Get(int(bs))
	defer bufpool.Put(buf)
	l := s.onodeLock(idx)
	l.Lock()
	if err := s.viewMeta(blk, nil, func(b []byte) { copy(buf, b) }); err != nil {
		l.Unlock()
		return err
	}
	slot := buf[(idx%per)*OnodeSize:][:OnodeSize]
	prev := decodeOnode(slot)
	owner := o.ObjectID
	if owner == 0 {
		owner = prev.ObjectID
	}
	encodeOnode(slot, o)
	pooled := bufpool.Get(2 * OnodeSize)
	defer bufpool.Put(pooled)
	rec, ptrs := s.meta.appendSlots(journal.EncodeOnode(pooled[:0], uint32(idx), slot), owner)
	// The codec is one to one: equal onodes are equal images. One whose
	// object changed a pointer block is committed all the same (a
	// pipelined fragment filling a hole below the size a later one set).
	if prev == *o && !ptrs {
		l.Unlock()
		return nil
	}
	lsn, err := s.journalAppend(journal.KindOnode, rec)
	if err == nil {
		err = s.jnl.Commit(lsn)
	}
	if err == nil {
		s.meta.commit(blk, buf, lsn, owner)
	}
	l.Unlock()
	if err != nil {
		return err
	}
	s.lockAlloc()
	defer s.mu.Unlock()
	if prev.Allocated() && (prev.ObjectID != o.ObjectID) {
		delete(s.onodeIndex, prev.ObjectID)
	}
	if o.Allocated() {
		s.onodeIndex[o.ObjectID] = idx
	} else if prev.Allocated() {
		s.freeOnodes = append(s.freeOnodes, idx)
	}
	return nil
}

// flushDevice writes the dirty metadata blocks, onode table and pointer
// blocks, in place (ascending, consecutive blocks in one ranged call),
// flushes the device, and only then marks the records they carried
// applied, so that a Checkpoint may drop them. On an error they stay
// dirty and unapplied.
func (s *Store) flushDevice() error {
	s.wbmu.Lock()
	defer s.wbmu.Unlock()
	bs := int(s.sb.BlockSize)
	blks, recs, img := s.meta.snapshot(bs)
	defer bufpool.Put(img)
	done := 0
	err := blockdev.EachRun(blks, blockdev.RunLimit, func(start int64, n int) error {
		done += n
		return s.dev.WriteBlocks(start, img[(done-n)*bs:done*bs])
	})
	if err == nil {
		err = s.dev.Flush()
	}
	if err == nil && len(blks) > 0 {
		s.jnl.Applied(s.meta.retire(blks, recs)...)
	}
	return err
}

// FindOnode returns the onode slot holding objectID.
func (s *Store) FindOnode(objectID uint64) (int64, bool) {
	s.lockAlloc()
	defer s.mu.Unlock()
	idx, ok := s.onodeIndex[objectID]
	return idx, ok
}

// ObjectIDs returns the IDs of all allocated objects, optionally
// filtered by partition (0 = all). Order is unspecified.
func (s *Store) ObjectIDs(partition uint16) []uint64 {
	s.lockAlloc()
	idxs := make([]int64, 0, len(s.onodeIndex))
	ids := make([]uint64, 0, len(s.onodeIndex))
	for id, idx := range s.onodeIndex {
		ids = append(ids, id)
		idxs = append(idxs, idx)
	}
	s.mu.Unlock()
	if partition == 0 {
		return ids
	}
	out := ids[:0]
	for i, idx := range idxs {
		o, err := s.ReadOnode(idx)
		if err == nil && o.Partition == partition {
			out = append(out, ids[i])
		}
	}
	return out
}

// --- Block map --------------------------------------------------------

// A leaf is a row of side-by-side block-map slots: the onode's direct
// slots, or one pointer block of data-block slots (the single-indirect
// block, a first-level block under the double-indirect one). Map,
// MapAlloc and Unmap walk a range leaf by leaf. leaf locates a file
// block's slot, idx, and the n slots from there to the end of the leaf;
// a missing pointer block leaves blk 0, a leaf of holes.
type leaf struct {
	direct bool
	blk    int64
	idx, n int64
}

// leafAt finds the leaf of file block fb. With ensure set, each pointer
// block on the path is first made exclusive to u's object (allocated
// near hint, or unshared: ensurePtrBlock); otherwise the walk only reads.
func (s *Store) leafAt(u *mapUpdate, o *Onode, fb int64, ensure bool, hint int64) (leaf, error) {
	p := s.ptrsPerBlock
	root, rel := &o.Indirect, fb-NumDirect
	switch {
	case fb < 0:
		return leaf{}, fmt.Errorf("layout: negative file block %d", fb)
	case fb < NumDirect:
		return leaf{direct: true, idx: fb, n: NumDirect - fb}, nil
	case fb < NumDirect+p:
	case fb < NumDirect+p+p*p:
		root, rel = &o.Indirect2, fb-NumDirect-p
	default:
		return leaf{}, ErrTooBig
	}
	lf := leaf{blk: *root, idx: rel % p, n: p - rel%p}
	var err error
	if ensure {
		lf.blk, err = s.ensurePtrBlock(u, root, hint)
	}
	if root == &o.Indirect2 && lf.blk != 0 && err == nil {
		parent, i := lf.blk, rel/p
		if lf.blk, err = s.readPtr(parent, i); err != nil || !ensure {
			return lf, err
		}
		cur := lf.blk
		if _, err = s.ensurePtrBlock(u, &lf.blk, hint); err == nil && lf.blk != cur {
			if cur == 0 {
				u.gained++
			}
			err = s.setSlots(u, o, leaf{blk: parent, idx: i}, 0, []int64{lf.blk})
		}
	}
	return lf, err
}

// Map returns the run of file blocks at fileBlock, at least one and at
// most limit of them: n holes (phys 0), or n blocks mapped to phys,
// phys+1, ..., phys+n-1. The run continues across pointer-block
// boundaries. Only a failure at fileBlock itself is an error; one
// further on ends the run before it.
func (s *Store) Map(o *Onode, fileBlock int64, limit int) (phys int64, n int, err error) {
	var buf [64]int64
	for limit = max(limit, 1); n < limit; {
		lf, err := s.leafAt(nil, o, fileBlock+int64(n), false, 0)
		cur := buf[:min(lf.n, int64(limit-n), 64)]
		if err == nil {
			err = s.slots(o, lf, cur)
		}
		if err != nil && n == 0 {
			return 0, 0, err
		} else if err != nil {
			break
		}
		if n == 0 {
			phys = cur[0]
		}
		for _, v := range cur {
			if phys == 0 && v != 0 || phys != 0 && v != phys+int64(n) {
				return phys, n, nil
			}
			n++
		}
	}
	return phys, n, nil
}

// MapAlloc maps the n file blocks from fileBlock for writing, like Map
// but allocating holes and breaking copy-on-write sharing along the
// path: any block (data or pointer) with a reference count above one is
// replaced by a private copy before it can be written. The first block
// is allocated near hint, each later one after its predecessor. The
// onode is updated in memory; callers persist it with WriteOnode, whose
// journal record carries the pointer-slot changes the range made
// (mapUpdate). The returned physical blocks are safe to overwrite; with
// an error they are the prefix that was mapped. A data block unshared
// holds its copy on the medium when MapAlloc returns, so the onode
// record naming it never commits ahead of the bytes it inherits. gained
// is how many block references the object gained, error or not: a hole
// filled or a pointer block born counts one, a block unshared replaces
// one reference with another and counts none. It is what ForEachBlock
// visits more than before the call, without the walk.
func (s *Store) MapAlloc(o *Onode, fileBlock int64, n int, hint int64) (phys []int64, gained int64, err error) {
	u := mapUpdate{owner: o.ObjectID, gained: -o.held()}
	out := make([]int64, n)
	done := 0
	for done < n && err == nil {
		var lf leaf
		lf, err = s.leafAt(&u, o, fileBlock+int64(done), true, hint)
		dst := out[done : done+int(min(lf.n, int64(n-done)))]
		if err == nil {
			err = s.slots(o, lf, dst)
		}
		m := 0
		if err == nil {
			m, err = s.mapLeaf(&u, o, lf, dst, hint)
		}
		if done += m; done > 0 {
			hint = out[done-1] + 1
		}
	}
	if u.copied {
		err = cmp.Or(err, s.dev.Flush())
	}
	return out[:done], u.gained + o.held(), err
}

// mapUpdate is one block-map update in progress (the range of a write,
// an unmap). It changes pointer blocks in the metadata cache only, as
// the changes of owner, the object updated: they stay there, open,
// until owner's next WriteOnode commits them with its onode, and reach
// the device at the flush after that (metacache.go). The blocks belong
// to owner, locked exclusively above: nobody reads them in between.
type mapUpdate struct {
	owner  uint64
	gained int64 // references stored into pointer-block slots that held none
	copied bool  // unshare wrote a copy to the device
}

// mapLeaf points the slots of leaf lf whose values dst holds at blocks
// the object owns alone, in order, and returns how many it mapped: one
// allocation per run of holes, one slot update per run of changes.
func (s *Store) mapLeaf(u *mapUpdate, o *Onode, lf leaf, dst []int64, hint int64) (int, error) {
	var err error
	from, i := 0, 0 // dst[from:i] changed and is not stored yet
	for i < len(dst) && err == nil {
		if i > 0 {
			hint = dst[i-1] + 1
		}
		switch k := s.owned(dst[i:]); {
		case k > 0:
			err = s.setSlots(u, o, lf, from, dst[from:i])
			i += k
			from = i
		case dst[i] != 0:
			if dst[i], err = s.unshare(dst[i], hint); err == nil {
				u.copied = true
				i++
			}
		default:
			j := i + 1
			for j < len(dst) && dst[j] == 0 {
				j++
			}
			got := s.alloc(dst[i:j], hint, true)
			if !lf.direct {
				u.gained += int64(got)
			}
			if i += got; i < j {
				err = ErrNoSpace
			}
		}
	}
	return i, cmp.Or(s.setSlots(u, o, lf, from, dst[from:i]), err)
}

// slots reads the values of the len(dst) slots from lf.idx into dst.
func (s *Store) slots(o *Onode, lf leaf, dst []int64) error {
	if lf.direct || lf.blk == 0 {
		clear(dst)
		if lf.direct {
			copy(dst, o.Direct[lf.idx:])
		}
		return nil
	}
	return s.viewMeta(lf.blk, nil, func(b []byte) {
		for i := range dst {
			dst[i] = s.slot(b, lf.idx+int64(i))
		}
	})
}

// setSlots stores vals in the slots from lf.idx+from of leaf lf.
func (s *Store) setSlots(u *mapUpdate, o *Onode, lf leaf, from int, vals []int64) error {
	switch at := lf.idx + int64(from); {
	case len(vals) == 0:
	case lf.direct:
		copy(o.Direct[at:], vals)
	default:
		return s.viewMeta(lf.blk, u, func(b []byte) {
			for i, v := range vals {
				binary.LittleEndian.PutUint64(b[(at+int64(i))*8:], uint64(v))
			}
		})
	}
	return nil
}

// owned counts the leading blocks of blks that are exclusively owned
// data blocks (reference count one), under one hold of the allocator lock.
func (s *Store) owned(blks []int64) int {
	s.lockAlloc()
	defer s.mu.Unlock()
	for i, b := range blks {
		if b <= 0 || b >= s.sb.TotalBlocks || s.ref[b] != 1 {
			return i
		}
	}
	return len(blks)
}

// unshare replaces data block cur, shared copy-on-write, by a fresh
// block near hint holding a copy of its contents, and drops the
// object's reference to cur. The copy goes through the data IO path and
// to the device, which MapAlloc flushes: the onode naming the block
// commits before a partial write's bytes are written back.
func (s *Store) unshare(cur, hint int64) (int64, error) {
	var nb [1]int64
	if s.alloc(nb[:], hint, false) == 0 {
		return cur, ErrNoSpace
	}
	buf := bufpool.Get(int(s.sb.BlockSize))
	defer bufpool.Put(buf)
	err := s.dataIO.ReadBlock(cur, buf)
	if err == nil {
		err = s.dev.WriteBlock(nb[0], buf)
	}
	if err == nil {
		err = s.dataIO.WriteBlock(nb[0], buf)
	}
	if err != nil {
		_ = s.Free(nb[0])
		return cur, err
	}
	return nb[0], s.Free(cur)
}

// ensurePtrBlock makes *slot point to an exclusively-owned pointer
// block: cur if it is one, else a fresh block that starts zeroed or, for
// a copy-on-write shared cur, as a copy of its image. The new block is
// born in the metadata cache (metaCache.born) and is first written at
// the flush after the commit that makes it reachable.
func (s *Store) ensurePtrBlock(u *mapUpdate, slot *int64, hint int64) (int64, error) {
	cur := *slot
	if cur != 0 && s.RefCount(cur) == 1 {
		return cur, nil
	}
	var blks [1]int64
	if s.alloc(blks[:], hint, false) == 0 {
		return 0, ErrNoSpace
	}
	nb := blks[0]
	img := bufpool.Get(int(s.sb.BlockSize))
	defer bufpool.Put(img)
	clear(img)
	if cur != 0 {
		if err := s.viewMeta(cur, nil, func(b []byte) { copy(img, b) }); err != nil {
			_ = s.Free(nb)
			return 0, err
		}
		if err := s.Free(cur); err != nil {
			return 0, err
		}
	}
	s.meta.born(nb, u.owner, img)
	*slot = nb
	return nb, nil
}

// Unmap drops the mapping of the n file blocks from fileBlock: each
// mapped data block loses one reference and its slot is zeroed. Shared
// pointer blocks on the path to a mapped block are unshared first, so a
// copy-on-write sibling's mapping is untouched. It reports how many
// blocks were unmapped. Truncation uses this; like MapAlloc, its
// pointer-slot changes ride in the object's next WriteOnode.
func (s *Store) Unmap(o *Onode, fileBlock int64, n int) (dropped int64, err error) {
	u := mapUpdate{owner: o.ObjectID}
	var buf [64]int64
	for done := 0; done < n; {
		fb := fileBlock + int64(done)
		lf, err := s.leafAt(nil, o, fb, false, 0)
		cur := buf[:min(lf.n, int64(n-done), 64)]
		if err == nil {
			err = s.slots(o, lf, cur)
		}
		if err != nil {
			return dropped, err
		}
		done += len(cur)
		if !slices.ContainsFunc(cur, func(b int64) bool { return b != 0 }) {
			continue
		}
		if lf, err = s.leafAt(&u, o, fb, true, 0); err != nil {
			return dropped, err
		}
		end := len(cur)
		for i, b := range cur {
			if b != 0 {
				if err = s.Free(b); err != nil {
					end = i
					break
				}
				cur[i] = 0
				dropped++
			}
		}
		if err = cmp.Or(err, s.setSlots(&u, o, lf, 0, cur[:end])); err != nil {
			return dropped, err
		}
	}
	return dropped, nil
}

// slot reads slot i of pointer-block image b, clamped (clampPtr).
func (s *Store) slot(b []byte, i int64) int64 {
	return s.clampPtr(int64(binary.LittleEndian.Uint64(b[i*8:])))
}

func (s *Store) readPtr(blk int64, idx int64) (v int64, err error) {
	err = s.viewMeta(blk, nil, func(b []byte) { v = s.slot(b, idx) })
	return v, err
}

// clampPtr turns a wild pointer into a hole: a legitimate one is zero
// (hole) or a data-region block. Pointer blocks are journaled, but a
// copy-on-write copy or a first-level block can be named before any
// image of it is durable, and a torn in-place write can leave one half
// old; clamping keeps every traversal (Map, ForEachBlock, recovery)
// from wandering out of the volume.
func (s *Store) clampPtr(v int64) int64 {
	if v < s.sb.DataStart || v >= s.sb.TotalBlocks {
		return 0
	}
	return v
}

// DevReads returns the number of device reads issued for layout
// metadata (onode and pointer blocks) since the store was opened.
func (s *Store) DevReads() int64 { return s.devReads.Load() }

// viewMeta runs fn on the image of metadata block blk (a pointer block,
// an onode block under its stripe lock), in the metadata cache, where a
// block that is not resident is read from the device. With u set, blk is
// an exclusively owned pointer block of u's object and fn's changes are
// u's (metaCache.use). fn must not retain the slice.
func (s *Store) viewMeta(blk int64, u *mapUpdate, fn func(b []byte)) error {
	if s.meta.use(blk, u, nil, fn) {
		return nil
	}
	buf := bufpool.Get(int(s.sb.BlockSize))
	defer bufpool.Put(buf)
	s.devReads.Add(1)
	if err := s.dev.ReadBlock(blk, buf); err != nil {
		return err
	}
	s.meta.use(blk, u, buf, fn)
	return nil
}

// ForEachBlock calls fn for every physical block reachable from o,
// including indirect blocks themselves (kind "data" or "ptr"). It is
// the traversal used to free, clone or count an object.
func (s *Store) ForEachBlock(o *Onode, fn func(phys int64, isPtr bool) error) error {
	for _, b := range o.Direct {
		if b != 0 {
			if err := fn(b, false); err != nil {
				return err
			}
		}
	}
	if err := s.eachThrough(o.Indirect, 1, fn); err != nil {
		return err
	}
	return s.eachThrough(o.Indirect2, 2, fn)
}

// eachThrough visits pointer block blk (0: none) and then what its slots
// reach: data blocks at depth 1, pointer blocks of depth 1 at depth 2.
// It takes the block's image once, into a buffer of its own, so the walk
// costs one look-up per pointer block and fn may free blk.
func (s *Store) eachThrough(blk int64, depth int, fn func(phys int64, isPtr bool) error) error {
	if blk == 0 {
		return nil
	}
	img := bufpool.Get(int(s.sb.BlockSize))
	defer bufpool.Put(img)
	if err := s.viewMeta(blk, nil, func(b []byte) { copy(img, b) }); err != nil {
		return err
	}
	if err := fn(blk, true); err != nil {
		return err
	}
	for i := 0; i < len(img); i += 8 {
		b := s.slot(img, int64(i/8))
		var err error
		if depth > 1 {
			err = s.eachThrough(b, depth-1, fn)
		} else if b != 0 {
			err = fn(b, false)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// FreeObjectBlocks drops one reference from every block reachable from
// o (data and indirect), the destructor half of copy-on-write.
func (s *Store) FreeObjectBlocks(o *Onode) error {
	return s.ForEachBlock(o, func(phys int64, _ bool) error {
		return s.Free(phys)
	})
}

// CloneOnodeBlocks increments the reference count of every block
// reachable from o; the caller then copies the onode itself. This is
// the constructor half of copy-on-write versioning.
func (s *Store) CloneOnodeBlocks(o *Onode) error {
	return s.ForEachBlock(o, func(phys int64, _ bool) error {
		return s.IncRef(phys)
	})
}

// --- Data block IO ----------------------------------------------------

// ReadDataBlock reads physical block blk into buf; blk 0 (a hole) fills
// buf with zeros.
func (s *Store) ReadDataBlock(blk int64, buf []byte) error {
	if blk == 0 {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	return s.dev.ReadBlock(blk, buf)
}

// WriteDataBlock writes buf to physical block blk.
func (s *Store) WriteDataBlock(blk int64, buf []byte) error {
	return s.dev.WriteBlock(blk, buf)
}

// --- Persistence ------------------------------------------------------

// Sync flushes dirty refcount regions, the superblock and the dirty
// onode-table blocks to the device. The accumulated refcount changes
// are first committed as one KindRefUpdate intent record — write-ahead
// of the in-place region rewrite — and after the flush the journal is
// compacted (applied records discarded, unapplied ones carried forward).
func (s *Store) Sync() error {
	s.lockAlloc()
	defer s.mu.Unlock()
	bs := int64(s.sb.BlockSize)
	refPerBlock := bs / 2

	// Sorted: the journal payload and the device's write order must not
	// depend on map iteration.
	var refLSN uint64
	if len(s.refPending) > 0 {
		blocks := make([]int64, 0, len(s.refPending))
		for b := range s.refPending {
			blocks = append(blocks, b)
		}
		slices.Sort(blocks)
		refs := make([]uint16, len(blocks))
		for i, b := range blocks {
			refs[i] = s.refPending[b]
		}
		lsn, err := s.journalAppend(journal.KindRefUpdate, journal.EncodeRefUpdate(blocks, refs))
		switch {
		case errors.Is(err, journal.ErrFull):
			// The batch cannot fit even after compaction. Proceed
			// without the intent record: mount-time verification
			// re-derives refcounts from the object reachability walk,
			// so a torn region write is still repaired.
		case err != nil:
			return err
		default:
			if err := s.jnl.Commit(lsn); err != nil {
				return err
			}
			refLSN = lsn
		}
		s.refPending = make(map[int64]uint16)
	}

	dirty := make([]int64, 0, len(s.refDirty))
	for rb := range s.refDirty {
		dirty = append(dirty, rb)
	}
	slices.Sort(dirty)
	if err := blockdev.EachRun(dirty, blockdev.RunLimit, func(rb int64, n int) error {
		buf := make([]byte, int64(n)*bs)
		for j := int64(0); j < int64(n)*refPerBlock && rb*refPerBlock+j < s.sb.TotalBlocks; j++ {
			binary.LittleEndian.PutUint16(buf[j*2:], s.ref[rb*refPerBlock+j])
		}
		return s.dev.WriteBlocks(s.sb.RefStart+rb, buf)
	}); err != nil {
		return err
	}
	s.refDirty = make(map[int64]bool)
	if s.sbDirty {
		sbuf := make([]byte, bs)
		encodeSuperblock(sbuf, &s.sb)
		if err := s.dev.WriteBlock(0, sbuf); err != nil {
			return err
		}
		s.sbDirty = false
	}
	if err := s.flushDevice(); err != nil {
		return err
	}
	// Every effect issued before the flush above is now durable, so
	// applied records can be compacted away.
	if refLSN != 0 {
		s.jnl.Applied(refLSN)
	}
	return s.jnl.Checkpoint()
}

// RepairRef forces a block's reference count to v. Mount-time
// verification uses it to reconcile the allocator with the refcounts
// re-derived from object reachability after a crash.
func (s *Store) RepairRef(blk int64, v uint16) {
	s.lockAlloc()
	defer s.mu.Unlock()
	if blk < 0 || blk >= s.sb.TotalBlocks || s.ref[blk] == v {
		return
	}
	s.setRef(blk, v)
}
