package needle

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"sync/atomic"

	"nasd/internal/blockdev"
	"nasd/internal/bufpool"
)

// segment is one fixed-size run of blocks in a partition's log.
// Segments are append-only: sealed segments (all but the active one)
// never change until compaction frees them wholesale.
type segment struct {
	seq     uint64  // allocation order; also stamped into every record
	blocks  []int64 // physical blocks, addressed as a contiguous byte range
	written int64   // valid bytes
	// live counts bytes of records still referenced: each object's
	// current record plus every tombstone (tombstones must survive
	// compaction so a full-scan recovery replays deletions). The
	// written-live difference is the dead space compaction reclaims.
	live int64
}

// entry is one object's slot in the in-memory index.
type entry struct {
	seg  *segment
	off  int64 // record offset within the segment
	size int64 // encoded record length
	lsn  uint64
	info Info
}

// Log is one partition's needle log. All fields are guarded by mu;
// readers of the index and of sealed data hold the read side.
type Log struct {
	mu   sync.RWMutex
	part uint16

	epoch   uint64
	nextSeq uint64
	nextLSN uint64

	segs []*segment // ascending seq
	act  *segment   // append target (last of segs), nil before first append

	// pending holds the active segment's bytes past flushed, the
	// block-aligned offset below which the device already has them.
	// Appends encode records straight into it, and it holds up to one
	// run (blockdev.RunLimit blocks), or one record longer than that,
	// plus the partial block before it. It leaves in one ranged write per
	// physically contiguous span (writePendingLocked) before the record
	// that would overflow the run, at Sync or Flush, and when the
	// segment rolls. A device write is not durable: a record is once
	// Flush or Sync has drained the device's write cache.
	pending []byte
	flushed int64

	index map[uint64]*entry

	// snapBytes is the encoded size of the newest index snapshot and
	// sinceSnap the log bytes appended after it (every record, the
	// compaction copies too; recovery starts it at the bytes it scanned
	// past the snapshot). Flush writes a fresh snapshot only once
	// sinceSnap reaches snapBytes, so the log a recovery must scan stays
	// smaller than the snapshot it loads, and snapshot writes cost at
	// most one byte per log byte appended.
	snapBytes, sinceSnap int64

	compacting atomic.Bool

	e *Engine
}

func (l *Log) segBytes() int64 {
	return int64(l.e.cfg.SegmentBlocks) * l.e.bs
}

// rollLocked seals the active segment and opens a fresh one: quota is
// charged for the whole segment up front, blocks come from the space
// allocator, and the updated segment table is persisted durably before
// any record lands in the new segment.
func (l *Log) rollLocked() error {
	if err := l.writePendingLocked(); err != nil {
		return err
	}
	n := l.e.cfg.SegmentBlocks
	if err := l.e.cfg.Quota.ChargeBlocks(l.part, int64(n)); err != nil {
		return err
	}
	blocks, err := l.e.cfg.Space.AllocBlocks(n)
	if err != nil {
		l.e.cfg.Quota.SettleBlocks(l.part, -int64(n))
		return err
	}
	seg := &segment{seq: l.nextSeq, blocks: blocks}
	prevAct, prevPending, prevFlushed := l.act, l.pending, l.flushed
	l.nextSeq++
	l.segs = append(l.segs, seg)
	l.act = seg
	l.pending = l.pending[:0] // written out above; the new segment reuses the buffer
	l.flushed = 0
	if err := l.saveSegmentsLocked(); err != nil {
		l.nextSeq--
		l.segs = l.segs[:len(l.segs)-1]
		l.act, l.pending, l.flushed = prevAct, prevPending, prevFlushed
		for _, b := range blocks {
			_ = l.e.cfg.Space.FreeBlock(b)
		}
		l.e.cfg.Quota.SettleBlocks(l.part, -int64(n))
		return err
	}
	return nil
}

// appendLocked stamps r with the log's epoch, active segment, and (if
// unset) next LSN, and appends it. Compaction passes records carrying
// their original LSN. Returns where the record landed.
//
// A pending run that r would overflow is written out first, so a failed
// device write fails this append and r never enters the log.
func (l *Log) appendLocked(r *record) (*segment, int64, error) {
	need := r.wireSize()
	if need > l.segBytes() {
		return nil, 0, ErrTooBig
	}
	if l.act == nil || l.act.written+need > l.segBytes() {
		if err := l.rollLocked(); err != nil {
			return nil, 0, err
		}
	} else if int64(len(l.pending))+need > blockdev.RunLimit*l.e.bs {
		if err := l.writePendingLocked(); err != nil {
			return nil, 0, err
		}
	}
	r.epoch = l.epoch
	r.seg = l.act.seq
	if r.lsn == 0 {
		r.lsn = l.nextLSN
		l.nextLSN++
	}
	off := l.act.written
	l.pending = r.appendTo(l.pending)
	l.act.written += need
	l.act.live += need
	l.sinceSnap += need
	l.e.countAppend()
	return l.act, off, nil
}

// writePendingLocked writes pending to the active segment's blocks from
// flushed on: one ranged device write per physically contiguous run,
// the partial tail block zero-padded into the last one. The full blocks
// then leave pending; the tail stays and goes out again, with what
// later appends add to its block. A failed write leaves pending as it
// was, to be written whole by the next call.
func (l *Log) writePendingLocked() error {
	n := int64(len(l.pending))
	if l.act == nil || n == 0 {
		return nil
	}
	bs := l.e.bs
	padded := (n + bs - 1) / bs * bs
	buf := slices.Grow(l.pending, int(padded-n))[:padded]
	clear(buf[n:])
	l.pending = buf[:n]
	first := l.flushed / bs
	err := blockdev.EachRun(l.act.blocks[first:first+padded/bs], blockdev.RunLimit, func(start int64, k int) error {
		run := int64(k) * bs
		werr := blockdev.WriteBlocks(l.e.cfg.Dev, start, buf[:run])
		buf = buf[run:]
		return werr
	})
	if err != nil {
		return err
	}
	full := n / bs * bs
	l.pending = l.pending[:copy(l.pending, l.pending[full:])]
	l.flushed += full
	return nil
}

// readRangeLocked reads n bytes at byte offset off of seg, serving
// not-yet-flushed active-segment bytes from the pending buffer. It
// returns the number of device block reads issued (the media-I/O cost
// of the access). Caller holds mu in either mode.
//
// The returned buffer is pooled (bufpool) and owned by the caller;
// block-aligned spans whose physical blocks are contiguous on the
// device are read straight into it with one vectored device call, so a
// sequential needle read costs a single copy (device to result).
func (l *Log) readRangeLocked(seg *segment, off, n int64) ([]byte, int64, error) {
	if n < 0 || off < 0 || off+n > seg.written {
		return nil, 0, fmt.Errorf("needle: read [%d,%d) beyond segment end %d", off, off+n, seg.written)
	}
	out := bufpool.Get(int(n))
	blockSize := l.e.bs
	var buf []byte // bounce buffer for partial blocks, allocated lazily
	defer func() { bufpool.Put(buf) }()
	var ios int64
	for done := int64(0); done < n; {
		cur := off + done
		if seg == l.act && cur >= l.flushed {
			// Everything from here on is in the pending buffer.
			copy(out[done:], l.pending[cur-l.flushed:])
			break
		}
		idx := cur / blockSize
		within := cur % blockSize
		if within == 0 && n-done >= blockSize {
			// Aligned full-block span: extend across physically
			// contiguous blocks (allocators hand out runs, so this is
			// the common case) and read directly into the result. For
			// the active segment the run must stop at the flush
			// horizon; flushed is always a whole number of blocks.
			limit := (n - done) / blockSize
			run := int64(1)
			for run < limit &&
				seg.blocks[idx+run] == seg.blocks[idx]+run &&
				(seg != l.act || cur+(run+1)*blockSize <= l.flushed) {
				run++
			}
			if err := blockdev.ReadBlocks(l.e.cfg.Dev, seg.blocks[idx], out[done:done+run*blockSize]); err != nil {
				bufpool.Put(out)
				return nil, ios, err
			}
			ios += run
			done += run * blockSize
			continue
		}
		chunk := blockSize - within
		if chunk > n-done {
			chunk = n - done
		}
		if buf == nil {
			buf = bufpool.Get(int(blockSize))
		}
		if err := l.e.cfg.Dev.ReadBlock(seg.blocks[idx], buf); err != nil {
			bufpool.Put(out)
			return nil, ios, err
		}
		ios++
		copy(out[done:done+chunk], buf[within:])
		done += chunk
	}
	return out, ios, nil
}

// --- Segment table persistence -------------------------------------------
//
// The segment table is the log's root metadata: epoch, counters, and
// every segment's block run. It is saved durably whenever the segment
// set changes (roll, compaction) — without it the log's blocks are
// unreachable — and is small (tens of bytes per segment).

const (
	segTableMagic   = 0x4745534E // "NSEG"
	segTableVersion = 1

	idxSnapMagic   = 0x5844494E // "NIDX"
	idxSnapVersion = 1
)

func (l *Log) encodeSegTable() []byte {
	size := 4 + 4 + 8 + 8 + 8 + 4
	for _, s := range l.segs {
		size += 8 + 8 + 4 + 8*len(s.blocks)
	}
	size += crcSize
	b := make([]byte, size)
	le := binary.LittleEndian
	le.PutUint32(b, segTableMagic)
	le.PutUint32(b[4:], segTableVersion)
	le.PutUint64(b[8:], l.epoch)
	le.PutUint64(b[16:], l.nextSeq)
	le.PutUint64(b[24:], l.nextLSN)
	le.PutUint32(b[32:], uint32(len(l.segs)))
	off := 36
	for _, s := range l.segs {
		le.PutUint64(b[off:], s.seq)
		le.PutUint64(b[off+8:], uint64(s.written))
		le.PutUint32(b[off+16:], uint32(len(s.blocks)))
		off += 20
		for _, blk := range s.blocks {
			le.PutUint64(b[off:], uint64(blk))
			off += 8
		}
	}
	le.PutUint32(b[off:], crc32.Checksum(b[:off], crcTable))
	return b
}

type segTable struct {
	epoch   uint64
	nextSeq uint64
	nextLSN uint64
	segs    []*segment
}

func decodeSegTable(b []byte) (*segTable, error) {
	le := binary.LittleEndian
	if len(b) < 36+crcSize || le.Uint32(b) != segTableMagic {
		return nil, ErrBadMeta
	}
	if le.Uint32(b[4:]) != segTableVersion {
		return nil, ErrBadMeta
	}
	body := len(b) - crcSize
	if le.Uint32(b[body:]) != crc32.Checksum(b[:body], crcTable) {
		return nil, ErrBadMeta
	}
	t := &segTable{
		epoch:   le.Uint64(b[8:]),
		nextSeq: le.Uint64(b[16:]),
		nextLSN: le.Uint64(b[24:]),
	}
	n := int(le.Uint32(b[32:]))
	off := 36
	for i := 0; i < n; i++ {
		if off+20 > body {
			return nil, ErrBadMeta
		}
		s := &segment{
			seq:     le.Uint64(b[off:]),
			written: int64(le.Uint64(b[off+8:])),
		}
		nb := int(le.Uint32(b[off+16:]))
		off += 20
		if off+8*nb > body {
			return nil, ErrBadMeta
		}
		s.blocks = make([]int64, nb)
		for j := 0; j < nb; j++ {
			s.blocks[j] = int64(le.Uint64(b[off:]))
			off += 8
		}
		t.segs = append(t.segs, s)
	}
	return t, nil
}

func (l *Log) saveSegmentsLocked() error {
	return l.e.cfg.Meta.SaveSegments(l.part, l.encodeSegTable())
}

// SegTableBlocks decodes an encoded segment table and returns every
// device block it claims. Mount-time recovery uses it to pin the blocks
// named by a journaled segment table before any replay allocation could
// hand them out again.
func SegTableBlocks(data []byte) ([]int64, error) {
	t, err := decodeSegTable(data)
	if err != nil {
		return nil, err
	}
	var blocks []int64
	for _, s := range t.segs {
		blocks = append(blocks, s.blocks...)
	}
	return blocks, nil
}

// --- Index snapshot ------------------------------------------------------
//
// The snapshot is pure restart acceleration: the full index plus the
// active segment's tail position and every segment's live-byte count.
// Recovery seeds from it and then scans only records appended after it
// (higher-seq segments, and the snapshot-time active segment past the
// recorded tail). Every record carries its object, LSN, epoch, segment
// stamp and attributes, so the log past the snapshot is the index's
// delta: the snapshot may lag the log, and is rewritten only when that
// lag reaches its own size. A missing or stale snapshot only costs scan
// time.

func (l *Log) encodeIndexSnapshot() []byte {
	size := 4 + 4 + 8 + 8 + 8
	size += 4 + 16*len(l.segs)
	size += 8
	for _, e := range l.index {
		size += 8 + 8 + 8 + 8 + 8 + 1 + 8*7
		if e.info.Uninterp != nil {
			size += UninterpSize
		}
	}
	size += crcSize
	b := make([]byte, size)
	le := binary.LittleEndian
	le.PutUint32(b, idxSnapMagic)
	le.PutUint32(b[4:], idxSnapVersion)
	le.PutUint64(b[8:], l.epoch)
	var actSeq uint64
	var tail int64
	if l.act != nil {
		actSeq = l.act.seq
		tail = l.act.written
	}
	le.PutUint64(b[16:], actSeq)
	le.PutUint64(b[24:], uint64(tail))
	le.PutUint32(b[32:], uint32(len(l.segs)))
	off := 36
	for _, s := range l.segs {
		le.PutUint64(b[off:], s.seq)
		le.PutUint64(b[off+8:], uint64(s.live))
		off += 16
	}
	le.PutUint64(b[off:], uint64(len(l.index)))
	off += 8
	for obj, e := range l.index {
		le.PutUint64(b[off:], obj)
		le.PutUint64(b[off+8:], e.seg.seq)
		le.PutUint64(b[off+16:], uint64(e.off))
		le.PutUint64(b[off+24:], uint64(e.size))
		le.PutUint64(b[off+32:], e.lsn)
		off += 40
		var flags byte
		if e.info.Uninterp != nil {
			flags = flagUninterp
		}
		b[off] = flags
		le.PutUint64(b[off+1:], e.info.Size)
		le.PutUint64(b[off+9:], e.info.Version)
		le.PutUint64(b[off+17:], uint64(e.info.CreateSec))
		le.PutUint64(b[off+25:], uint64(e.info.ModSec))
		le.PutUint64(b[off+33:], uint64(e.info.AttrModSec))
		le.PutUint64(b[off+41:], e.info.Prealloc)
		le.PutUint64(b[off+49:], e.info.Cluster)
		off += 57
		if e.info.Uninterp != nil {
			off += copy(b[off:], e.info.Uninterp[:])
		}
	}
	le.PutUint32(b[off:], crc32.Checksum(b[:off], crcTable))
	return b
}

type idxSnapshot struct {
	actSeq  uint64
	tail    int64
	segLive map[uint64]int64
	entries map[uint64]*snapEntry
}

type snapEntry struct {
	seg  uint64
	off  int64
	size int64
	lsn  uint64
	info Info
}

// decodeIndexSnapshot parses a snapshot; any mismatch (including an
// epoch from another log incarnation) returns nil — the caller falls
// back to a full scan.
func decodeIndexSnapshot(b []byte, epoch uint64) *idxSnapshot {
	le := binary.LittleEndian
	if len(b) < 36+8+crcSize || le.Uint32(b) != idxSnapMagic {
		return nil
	}
	if le.Uint32(b[4:]) != idxSnapVersion || le.Uint64(b[8:]) != epoch {
		return nil
	}
	body := len(b) - crcSize
	if le.Uint32(b[body:]) != crc32.Checksum(b[:body], crcTable) {
		return nil
	}
	snap := &idxSnapshot{
		actSeq:  le.Uint64(b[16:]),
		tail:    int64(le.Uint64(b[24:])),
		segLive: make(map[uint64]int64),
		entries: make(map[uint64]*snapEntry),
	}
	nseg := int(le.Uint32(b[32:]))
	off := 36
	if off+16*nseg+8 > body {
		return nil
	}
	for i := 0; i < nseg; i++ {
		snap.segLive[le.Uint64(b[off:])] = int64(le.Uint64(b[off+8:]))
		off += 16
	}
	n := int(le.Uint64(b[off:]))
	off += 8
	for i := 0; i < n; i++ {
		if off+97 > body {
			return nil
		}
		obj := le.Uint64(b[off:])
		e := &snapEntry{
			seg:  le.Uint64(b[off+8:]),
			off:  int64(le.Uint64(b[off+16:])),
			size: int64(le.Uint64(b[off+24:])),
			lsn:  le.Uint64(b[off+32:]),
		}
		off += 40
		flags := b[off]
		e.info = Info{
			Size:       le.Uint64(b[off+1:]),
			Version:    le.Uint64(b[off+9:]),
			CreateSec:  int64(le.Uint64(b[off+17:])),
			ModSec:     int64(le.Uint64(b[off+25:])),
			AttrModSec: int64(le.Uint64(b[off+33:])),
			Prealloc:   le.Uint64(b[off+41:]),
			Cluster:    le.Uint64(b[off+49:]),
		}
		off += 57
		if flags&flagUninterp != 0 {
			if off+UninterpSize > body {
				return nil
			}
			var u [UninterpSize]byte
			copy(u[:], b[off:])
			e.info.Uninterp = &u
			off += UninterpSize
		}
		snap.entries[obj] = e
	}
	return snap
}

// saveIndexSnapshotLocked writes a fresh snapshot once the log has grown
// past the last one by that snapshot's size (see Log.snapBytes).
func (l *Log) saveIndexSnapshotLocked() error {
	if l.sinceSnap < l.snapBytes {
		return nil
	}
	b := l.encodeIndexSnapshot()
	if err := l.e.cfg.Meta.SaveIndex(l.part, b); err != nil {
		return err
	}
	l.snapBytes, l.sinceSnap = int64(len(b)), 0
	return nil
}
