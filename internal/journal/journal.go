package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"nasd/internal/blockdev"
	"nasd/internal/bufpool"
	"nasd/internal/telemetry"
)

// Record kinds. The journal itself is payload-agnostic; these constants
// name the metadata intents the store writes ahead of its in-place
// updates (DESIGN.md §7).
type Kind uint8

const (
	// KindRefUpdate carries a batch of {block, refcount} pairs from the
	// layout allocator (alloc, free, incref).
	KindRefUpdate Kind = 1
	// KindOnode carries an onode index plus the full encoded onode
	// image about to be written in place, followed by the slot changes
	// of the object's pointer blocks that the same commit makes.
	KindOnode Kind = 2
	// KindPartTable carries the full encoded partition table about to
	// be written into the control object.
	KindPartTable Kind = 3
	// KindNeedleSeg carries a partition id plus the needle engine's
	// encoded segment table for that partition's log.
	KindNeedleSeg Kind = 4
)

// Record is one committed journal entry as returned by Open for replay.
type Record struct {
	Kind    Kind
	LSN     uint64
	Payload []byte
}

// Errors.
var (
	// ErrFull means the active journal half cannot hold the record;
	// the caller should make applied effects durable, Checkpoint, and
	// retry (or fall back to a direct durable write).
	ErrFull = errors.New("journal: full")
	// ErrBadHeader means the journal region header failed validation.
	ErrBadHeader = errors.New("journal: bad header")
	// ErrTooSmall means the region cannot hold a header plus two halves.
	ErrTooSmall = errors.New("journal: region too small")
)

const (
	headerMagic = 0x4e4a4e4c // "NJNL"
	recMagic    = 0x4e4a5243 // "NJRC"
	version     = 1

	// record framing: magic u32 | crc u32 | len u32 | gen u64 | lsn u64 | kind u8
	recHeaderSize = 4 + 4 + 4 + 8 + 8 + 1

	// header block layout: magic u32 | version u32 | gen u64 | crc u32
	headerSize = 4 + 4 + 8 + 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal is a redo write-ahead log over a reserved region of a block
// device. Callers Append intent records, Commit to make them durable
// (group commit: one flush covers every record appended since the last
// commit), apply the in-place update, then mark the record Applied.
// Checkpoint compacts the log by rewriting only the still-unapplied
// records into the inactive half of the region, so it always succeeds
// regardless of how full the active half is.
//
// All methods are safe for concurrent use. The journal takes no locks
// other than its own and makes no callbacks, so it can be invoked from
// under any store lock.
type Journal struct {
	mu      sync.Mutex
	dev     blockdev.Device
	start   int64 // first block of the region
	nblocks int64 // region length in blocks
	bs      int
	half    int64 // blocks per half

	gen      uint64 // current generation; parity selects the active half
	nextLSN  uint64
	writeOff int64 // next free block within the active half

	pending      []*Record // appended, not yet committed
	pendingBytes int
	committedLSN uint64
	outstanding  []*Record // committed, not yet applied (nil slots = applied)
	outBytes     int

	cAppends, cCommits, cBytes, cCheckpoints, cTornTails, cReplays *telemetry.Counter
}

// Stats reports what Open recovered from the region.
type Stats struct {
	// Replayed is the number of committed records returned for replay.
	Replayed int
	// TornTails is the number of torn (partially persisted) record
	// batches discarded at the stream tail.
	TornTails int
}

func blocksFor(bytes int, bs int) int64 {
	return int64((bytes + bs - 1) / bs)
}

// Format initialises the journal region: a fresh header and an empty
// record stream. The caller is responsible for flushing the device.
func Format(dev blockdev.Device, start, nblocks int64) error {
	if nblocks < 5 {
		return ErrTooSmall
	}
	bs := dev.BlockSize()
	if bs < headerSize || bs < recHeaderSize+1 {
		return ErrTooSmall
	}
	buf := make([]byte, bs)
	binary.LittleEndian.PutUint32(buf[0:], headerMagic)
	binary.LittleEndian.PutUint32(buf[4:], version)
	binary.LittleEndian.PutUint64(buf[8:], 2) // gen 2: even → first half active
	binary.LittleEndian.PutUint32(buf[16:], crc32.Checksum(buf[:16], crcTable))
	return dev.WriteBlock(start, buf)
}

// Open validates the region header, scans the active half for committed
// records, and returns the journal plus the records (in LSN order) for
// the caller to replay. Recovered records start out in the outstanding
// set; the caller must mark them Applied (directly or via Reset) once
// their effects are durable.
func Open(dev blockdev.Device, start, nblocks int64, reg *telemetry.Registry) (*Journal, []Record, Stats, error) {
	if nblocks < 5 {
		return nil, nil, Stats{}, ErrTooSmall
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	j := &Journal{
		dev:     dev,
		start:   start,
		nblocks: nblocks,
		bs:      dev.BlockSize(),
		half:    (nblocks - 1) / 2,

		cAppends:     reg.Counter("journal.appends"),
		cCommits:     reg.Counter("journal.commits"),
		cBytes:       reg.Counter("journal.bytes"),
		cCheckpoints: reg.Counter("journal.checkpoints"),
		cTornTails:   reg.Counter("journal.torn_tails"),
		cReplays:     reg.Counter("journal.replays"),
	}
	buf := make([]byte, j.bs)
	if err := dev.ReadBlock(start, buf); err != nil {
		return nil, nil, Stats{}, err
	}
	if binary.LittleEndian.Uint32(buf[0:]) != headerMagic ||
		binary.LittleEndian.Uint32(buf[4:]) != version ||
		binary.LittleEndian.Uint32(buf[16:]) != crc32.Checksum(buf[:16], crcTable) {
		return nil, nil, Stats{}, ErrBadHeader
	}
	j.gen = binary.LittleEndian.Uint64(buf[8:])

	recs, torn, err := j.scan()
	if err != nil {
		return nil, nil, Stats{}, err
	}
	out := make([]Record, len(recs))
	for i, r := range recs {
		out[i] = *r
		j.outstanding = append(j.outstanding, r)
		j.outBytes += recHeaderSize + len(r.Payload)
		if r.LSN >= j.nextLSN {
			j.nextLSN = r.LSN + 1
		}
		j.committedLSN = r.LSN
	}
	if j.nextLSN == 0 {
		j.nextLSN = 1
	}
	j.cReplays.Add(uint64(len(out)))
	j.cTornTails.Add(uint64(torn))
	return j, out, Stats{Replayed: len(out), TornTails: torn}, nil
}

// activeBase returns the first block (relative to start) of the half
// selected by the given generation's parity.
func (j *Journal) activeBase(gen uint64) int64 {
	if gen%2 == 0 {
		return 1
	}
	return 1 + j.half
}

// scan walks the active half, parsing committed records of the current
// generation. It stops cleanly at stale (prior-generation) data or
// zeroed padding, and counts a torn tail when it finds a current-
// generation record that fails its CRC or framing — the signature of a
// commit batch caught mid-flush. The half is read whole, in one ranged
// call (it is a few MB at most), which keeps the parser a flat byte walk.
func (j *Journal) scan() ([]*Record, int, error) {
	base := j.activeBase(j.gen)
	raw := make([]byte, j.half*int64(j.bs))
	if err := blockdev.ReadBlocks(j.dev, j.start+base, raw); err != nil {
		return nil, 0, err
	}

	var recs []*Record
	torn := 0
	var lastLSN uint64
	off := 0
	for off+recHeaderSize <= len(raw) {
		if binary.LittleEndian.Uint32(raw[off:]) != recMagic {
			if off%j.bs != 0 {
				// Padding after the last record of a batch: batches
				// begin on block boundaries, so try the next one.
				off = (off/j.bs + 1) * j.bs
				continue
			}
			// Block boundary without a record: end of stream.
			break
		}
		crc := binary.LittleEndian.Uint32(raw[off+4:])
		plen := int(binary.LittleEndian.Uint32(raw[off+8:]))
		gen := binary.LittleEndian.Uint64(raw[off+12:])
		lsn := binary.LittleEndian.Uint64(raw[off+20:])
		kind := Kind(raw[off+28])
		if gen != j.gen {
			// A record from a previous pass over this half: the stream
			// ended at the last good record.
			break
		}
		end := off + recHeaderSize + plen
		if plen < 0 || end > len(raw) {
			torn++
			break
		}
		if crc32.Checksum(raw[off+8:end], crcTable) != crc {
			torn++
			break
		}
		if lsn <= lastLSN && lastLSN != 0 {
			torn++
			break
		}
		lastLSN = lsn
		payload := make([]byte, plen)
		copy(payload, raw[off+recHeaderSize:end])
		recs = append(recs, &Record{Kind: kind, LSN: lsn, Payload: payload})
		off = end
	}
	// Batches always begin on a fresh block, so the next write goes to
	// the block after the last byte of committed records.
	j.writeOff = blocksFor(off, j.bs)
	if j.writeOff > j.half {
		j.writeOff = j.half
	}
	return recs, torn, nil
}

// Append buffers an intent record and returns its LSN. The record is
// not durable until Commit. ErrFull means the active half cannot hold
// the outstanding set plus this record; make applied effects durable,
// Checkpoint, and retry.
func (j *Journal) Append(kind Kind, payload []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	size := recHeaderSize + len(payload)
	// Worst case after a future checkpoint, the half must hold every
	// unapplied byte; leave one block of slack per batch for padding.
	need := j.writeOff + blocksFor(j.pendingBytes+size, j.bs) + 1
	if need > j.half || blocksFor(j.outBytes+j.pendingBytes+size, j.bs)+2 > j.half {
		return 0, ErrFull
	}
	lsn := j.nextLSN
	j.nextLSN++
	p := make([]byte, len(payload))
	copy(p, payload)
	j.pending = append(j.pending, &Record{Kind: kind, LSN: lsn, Payload: p})
	j.pendingBytes += size
	j.cAppends.Inc()
	return lsn, nil
}

// Commit makes every record appended so far durable: it writes the
// pending batch to the active half starting at a fresh block and
// flushes the device. If upTo is already committed (another caller's
// commit covered it) it returns immediately — this is the group-commit
// fast path. A batch never rewrites a block used by an earlier batch,
// so a torn commit cannot damage previously committed records.
func (j *Journal) Commit(upTo uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if upTo <= j.committedLSN || len(j.pending) == 0 {
		return nil
	}
	if err := j.writeBatchLocked(j.gen, j.pending); err != nil {
		return err
	}
	if err := j.dev.Flush(); err != nil {
		return err
	}
	for _, r := range j.pending {
		j.outstanding = append(j.outstanding, r)
		j.outBytes += recHeaderSize + len(r.Payload)
		j.committedLSN = r.LSN
	}
	j.cBytes.Add(uint64(j.pendingBytes))
	j.pending = j.pending[:0]
	j.pendingBytes = 0
	j.cCommits.Inc()
	return nil
}

// writeBatchLocked serialises recs with the given generation into the
// active half at writeOff, as one ranged write, and advances writeOff.
// It does not flush.
func (j *Journal) writeBatchLocked(gen uint64, recs []*Record) error {
	total := 0
	for _, r := range recs {
		total += recHeaderSize + len(r.Payload)
	}
	nb := blocksFor(total, j.bs)
	if j.writeOff+nb > j.half {
		return ErrFull
	}
	raw := bufpool.Get(int(nb) * j.bs)
	defer bufpool.Put(raw)
	off := 0
	for _, r := range recs {
		binary.LittleEndian.PutUint32(raw[off:], recMagic)
		binary.LittleEndian.PutUint32(raw[off+8:], uint32(len(r.Payload)))
		binary.LittleEndian.PutUint64(raw[off+12:], gen)
		binary.LittleEndian.PutUint64(raw[off+20:], r.LSN)
		raw[off+28] = byte(r.Kind)
		copy(raw[off+recHeaderSize:], r.Payload)
		end := off + recHeaderSize + len(r.Payload)
		binary.LittleEndian.PutUint32(raw[off+4:], crc32.Checksum(raw[off+8:end], crcTable))
		off = end
	}
	clear(raw[off:]) // scan must find padding after the batch, not a stale record of the pooled buffer
	if err := blockdev.WriteBlocks(j.dev, j.start+j.activeBase(gen)+j.writeOff, raw); err != nil {
		return err
	}
	j.writeOff += nb
	return nil
}

// Applied marks committed records' in-place effects as issued to the
// device. The records stay durable in the journal until the next
// Checkpoint, which must only run once issued effects have been made
// durable by a device flush.
func (j *Journal) Applied(lsns ...uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, r := range j.outstanding {
		if r != nil && slices.Contains(lsns, r.LSN) {
			j.outBytes -= recHeaderSize + len(r.Payload)
			j.outstanding[i] = nil
		}
	}
}

// Checkpoint compacts the journal: still-unapplied records are
// rewritten (with their original LSNs) into the inactive half under the
// next generation, then the header flips to that generation. The old
// half stays intact until the new header is durable, so a crash at any
// point recovers a complete record set. Callers must flush the device
// before checkpointing so that every Applied effect is durable.
func (j *Journal) Checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpointLocked()
}

// CheckpointWith is Checkpoint and the Append and Commit of one more
// record (and of any still pending) in one step: the record is written
// into the new generation with the ones carried forward. It is how a
// caller retries after ErrFull: were the retry a Commit of its own, a
// crash between the two would find the journal empty, which a mount
// takes for a volume with nothing to verify.
func (j *Journal) CheckpointWith(kind Kind, payload []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := &Record{Kind: kind, LSN: j.nextLSN, Payload: append([]byte(nil), payload...)}
	if err := j.checkpointLocked(append(j.pending, r)...); err != nil {
		return 0, err
	}
	j.nextLSN, j.committedLSN = r.LSN+1, r.LSN
	j.cBytes.Add(uint64(j.pendingBytes + recHeaderSize + len(payload)))
	j.pending, j.pendingBytes = j.pending[:0], 0
	j.cAppends.Inc()
	j.cCommits.Inc()
	return r.LSN, nil
}

// checkpointLocked carries the unapplied records and add forward.
func (j *Journal) checkpointLocked(add ...*Record) error {
	live := j.outstanding[:0:0]
	for _, r := range j.outstanding {
		if r != nil {
			live = append(live, r)
		}
	}
	live = append(live, add...)
	bytes := 0
	for _, r := range live {
		bytes += recHeaderSize + len(r.Payload)
	}
	newGen := j.gen + 1
	oldOff := j.writeOff
	j.writeOff = 0
	if len(live) > 0 {
		// Writing into the inactive half: the current header still
		// points at the old half, so a crash here loses nothing.
		if err := j.writeBatchLocked(newGen, live); err != nil {
			j.writeOff = oldOff
			return err
		}
		if err := j.dev.Flush(); err != nil {
			j.writeOff = oldOff
			return err
		}
	}
	buf := make([]byte, j.bs)
	binary.LittleEndian.PutUint32(buf[0:], headerMagic)
	binary.LittleEndian.PutUint32(buf[4:], version)
	binary.LittleEndian.PutUint64(buf[8:], newGen)
	binary.LittleEndian.PutUint32(buf[16:], crc32.Checksum(buf[:16], crcTable))
	if err := j.dev.WriteBlock(j.start, buf); err != nil {
		j.writeOff = oldOff
		return err
	}
	if err := j.dev.Flush(); err != nil {
		j.writeOff = oldOff
		return err
	}
	j.gen = newGen
	j.outstanding = live
	j.outBytes = bytes
	j.cCheckpoints.Inc()
	return nil
}

// Reset discards the outstanding set and starts a fresh generation. It
// is called at the end of mount-time recovery, after every replayed
// effect has been flushed to the device.
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.outstanding = nil
	j.outBytes = 0
	return j.checkpointLocked()
}

// Outstanding reports how many committed records are awaiting Applied
// (for tests and invariant checks).
func (j *Journal) Outstanding() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, r := range j.outstanding {
		if r != nil {
			n++
		}
	}
	return n
}

// EncodeRefUpdate packs {block, ref} pairs into a KindRefUpdate
// payload.
func EncodeRefUpdate(blocks []int64, refs []uint16) []byte {
	if len(blocks) != len(refs) {
		panic("journal: blocks/refs length mismatch")
	}
	buf := make([]byte, 4+10*len(blocks))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(blocks)))
	off := 4
	for i := range blocks {
		binary.LittleEndian.PutUint64(buf[off:], uint64(blocks[i]))
		binary.LittleEndian.PutUint16(buf[off+8:], refs[i])
		off += 10
	}
	return buf
}

// DecodeRefUpdate unpacks a KindRefUpdate payload.
func DecodeRefUpdate(p []byte) (blocks []int64, refs []uint16, err error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("journal: short refupdate payload")
	}
	n := int(binary.LittleEndian.Uint32(p[0:]))
	if len(p) < 4+10*n {
		return nil, nil, fmt.Errorf("journal: truncated refupdate payload")
	}
	blocks = make([]int64, n)
	refs = make([]uint16, n)
	off := 4
	for i := 0; i < n; i++ {
		blocks[i] = int64(binary.LittleEndian.Uint64(p[off:]))
		refs[i] = binary.LittleEndian.Uint16(p[off+8:])
		off += 10
	}
	return blocks, refs, nil
}

// EncodeOnode appends to dst a KindOnode payload: an onode index plus
// its encoded image. The layout appends the pointer-slot changes the
// same commit carries after the image.
func EncodeOnode(dst []byte, idx uint32, image []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, idx), image...)
}

// DecodeOnode unpacks a KindOnode payload: the index, and the image
// with whatever followed it.
func DecodeOnode(p []byte) (idx uint32, image []byte, err error) {
	if len(p) < 4 {
		return 0, nil, fmt.Errorf("journal: short onode payload")
	}
	return binary.LittleEndian.Uint32(p[0:]), p[4:], nil
}

// EncodeNeedleSeg packs a partition id plus the segment-table bytes
// into a KindNeedleSeg payload.
func EncodeNeedleSeg(part uint16, data []byte) []byte {
	buf := make([]byte, 2+len(data))
	binary.LittleEndian.PutUint16(buf[0:], part)
	copy(buf[2:], data)
	return buf
}

// DecodeNeedleSeg unpacks a KindNeedleSeg payload.
func DecodeNeedleSeg(p []byte) (part uint16, data []byte, err error) {
	if len(p) < 2 {
		return 0, nil, fmt.Errorf("journal: short needleseg payload")
	}
	return binary.LittleEndian.Uint16(p[0:]), p[2:], nil
}
