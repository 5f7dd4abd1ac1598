package needle

import (
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/bufpool"
	"nasd/internal/telemetry"
)

// DefaultSegmentBlocks is the segment size when Config leaves it zero.
const DefaultSegmentBlocks = 1024

// Space hands out and reclaims device blocks for log segments. The
// object layer backs this with its classic layout allocator, so needle
// segments and onode-based objects share one free-space pool.
type Space interface {
	AllocBlocks(n int) ([]int64, error)
	FreeBlock(blk int64) error
}

// Meta persists a log's root metadata: the segment table (required for
// the log to be reachable at all) and the index snapshot (restart
// acceleration; losing it only costs a full log scan). SaveSegments
// must be durable when it returns; SaveIndex may be buffered until the
// store's next flush. SaveIndex is called from Flush, but only once the
// log has grown past the last snapshot by that snapshot's size: the
// records appended since are the index's delta, and recovery replays
// them by scanning the log past the snapshot.
type Meta interface {
	LoadSegments(part uint16) ([]byte, error)
	SaveSegments(part uint16, data []byte) error
	LoadIndex(part uint16) ([]byte, error)
	SaveIndex(part uint16, data []byte) error
}

// Quota admits and settles block consumption per partition. Needle
// logs charge at segment granularity: ChargeBlocks at segment
// allocation (an error rejects the append that needed the segment),
// SettleBlocks with a negative delta when compaction or log removal
// frees one.
type Quota interface {
	ChargeBlocks(part uint16, delta int64) error
	SettleBlocks(part uint16, delta int64)
}

// Config assembles an Engine's substrate.
type Config struct {
	Dev   blockdev.Device
	Space Space
	Meta  Meta
	Quota Quota

	// Metrics, when non-nil, receives needle.* counters and gauges.
	Metrics *telemetry.Registry

	// SegmentBlocks is the log segment size in blocks (default
	// DefaultSegmentBlocks). It caps the largest storable record.
	SegmentBlocks int

	// CompactThreshold is the dead-byte fraction of a sealed segment
	// that triggers background compaction. Zero means the 0.5 default;
	// negative disables compaction entirely (tests).
	CompactThreshold float64

	// SyncCompact runs compaction inline in the mutating call that
	// crossed the threshold instead of spawning a goroutine. The crash
	// harness depends on it: an async compactor writes to the device at
	// timing-dependent points, so a scheduled persist-step sweep only
	// becomes deterministic when compaction happens at deterministic
	// call sites.
	SyncCompact bool

	// Events, when non-nil, receives a structured event per segment
	// compaction (how many blocks a partition's log returned).
	Events *telemetry.EventLog
}

// Stats summarizes a recovered log.
type Stats struct {
	Objects     uint64
	Blocks      uint64
	MaxObjectID uint64
}

// Engine manages the needle logs of one device, one per partition.
type Engine struct {
	cfg Config
	bs  int64

	mu   sync.Mutex // guards logs map only
	logs map[uint16]*Log

	appends     *telemetry.Counter
	compactions *telemetry.Counter
	recoveryNS  *telemetry.Counter
	reads       *telemetry.Counter
	readIOs     *telemetry.Counter

	indexEntries atomic.Int64
}

// New builds an Engine over cfg's substrate. No logs are open until
// CreateLog or OpenLog.
func New(cfg Config) *Engine {
	if cfg.SegmentBlocks <= 0 {
		cfg.SegmentBlocks = DefaultSegmentBlocks
	}
	if cfg.CompactThreshold == 0 {
		cfg.CompactThreshold = 0.5
	}
	e := &Engine{
		cfg:  cfg,
		bs:   int64(cfg.Dev.BlockSize()),
		logs: make(map[uint16]*Log),
	}
	if cfg.Metrics != nil {
		e.appends = cfg.Metrics.Counter("needle.appends")
		e.compactions = cfg.Metrics.Counter("needle.compactions")
		e.recoveryNS = cfg.Metrics.Counter("needle.recovery_ns")
		e.reads = cfg.Metrics.Counter("needle.reads")
		e.readIOs = cfg.Metrics.Counter("needle.read_block_ios")
		cfg.Metrics.Func("needle.index_entries", e.indexEntries.Load)
		cfg.Metrics.Func("needle.media_per_read_milli", func() int64 {
			n := e.reads.Load()
			if n == 0 {
				return 0
			}
			return int64(e.readIOs.Load() * 1000 / n)
		})
	}
	return e
}

// MaxObjectSize returns the largest payload a record can carry — a
// record (header, payload, uninterpreted attributes, checksum) must fit
// in one segment.
func (e *Engine) MaxObjectSize() uint64 {
	return uint64(int64(e.cfg.SegmentBlocks)*e.bs) - headerSize - crcSize - UninterpSize
}

func (e *Engine) countAppend() {
	if e.appends != nil {
		e.appends.Inc()
	}
}

func (e *Engine) getLog(part uint16) (*Log, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	l := e.logs[part]
	if l == nil {
		return nil, ErrNoLog
	}
	return l, nil
}

// CreateLog initializes an empty log for part and persists its (empty)
// segment table. The first segment is allocated lazily on first append.
func (e *Engine) CreateLog(part uint16) error {
	e.mu.Lock()
	if _, ok := e.logs[part]; ok {
		e.mu.Unlock()
		return ErrLogOpen
	}
	l := &Log{
		part:    part,
		epoch:   rand.Uint64(),
		nextSeq: 1,
		nextLSN: 1,
		index:   make(map[uint64]*entry),
		e:       e,
	}
	e.logs[part] = l
	e.mu.Unlock()

	l.mu.Lock()
	err := l.saveSegmentsLocked()
	l.mu.Unlock()
	if err != nil {
		e.mu.Lock()
		delete(e.logs, part)
		e.mu.Unlock()
		return err
	}
	return nil
}

// DropLog forgets part's log and returns its blocks to the space
// allocator. The caller is responsible for deleting the log's metadata
// objects.
func (e *Engine) DropLog(part uint16) error {
	e.mu.Lock()
	l := e.logs[part]
	delete(e.logs, part)
	e.mu.Unlock()
	if l == nil {
		return ErrNoLog
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var blocks int64
	for _, s := range l.segs {
		for _, b := range s.blocks {
			_ = e.cfg.Space.FreeBlock(b)
			blocks++
		}
	}
	e.cfg.Quota.SettleBlocks(part, -blocks)
	e.indexEntries.Add(-int64(len(l.index)))
	l.segs, l.act, l.index = nil, nil, make(map[uint64]*entry)
	return nil
}

// OpenLog recovers part's log from its persisted segment table, using
// the index snapshot when one is present and valid and scanning any
// records appended after it; with no usable snapshot the whole log is
// scanned. Returns the recovered object/block census.
func (e *Engine) OpenLog(part uint16) (Stats, error) {
	start := time.Now()
	raw, err := e.cfg.Meta.LoadSegments(part)
	if err != nil {
		return Stats{}, err
	}
	if len(raw) == 0 {
		return Stats{}, ErrBadMeta
	}
	t, err := decodeSegTable(raw)
	if err != nil {
		return Stats{}, err
	}

	e.mu.Lock()
	if _, ok := e.logs[part]; ok {
		e.mu.Unlock()
		return Stats{}, ErrLogOpen
	}
	l := &Log{
		part:    part,
		epoch:   t.epoch,
		nextSeq: t.nextSeq,
		nextLSN: t.nextLSN,
		segs:    t.segs,
		index:   make(map[uint64]*entry),
		e:       e,
	}
	e.logs[part] = l
	e.mu.Unlock()

	l.mu.Lock()
	st, err := l.recoverLocked()
	l.mu.Unlock()
	if err != nil {
		e.mu.Lock()
		delete(e.logs, part)
		e.mu.Unlock()
		return Stats{}, err
	}
	e.indexEntries.Add(int64(len(l.index)))
	if e.recoveryNS != nil {
		e.recoveryNS.Add(uint64(time.Since(start).Nanoseconds()))
	}
	return st, nil
}

// readSegDeviceLocked reads the blocks of s that hold [from, limit)
// straight from the device, ignoring the pending buffer — recovery
// (which rebuilds pending) and compaction (whose sources are sealed,
// fully flushed segments) use it. The result starts at base, the
// segment offset of the block holding from.
func (l *Log) readSegDeviceLocked(s *segment, from, limit int64) (raw []byte, base int64, err error) {
	first, nb := from/l.e.bs, (limit+l.e.bs-1)/l.e.bs
	// Not pooled: recovery retains views into the result (uninterpreted
	// attributes decoded from records) beyond this call.
	raw = make([]byte, (nb-first)*l.e.bs)
	// One device call per physically contiguous run, uncut: the result
	// is not a pooled buffer that a run must fit.
	rest := raw
	err = blockdev.EachRun(s.blocks[first:nb], int(nb-first), func(start int64, n int) error {
		run := int64(n) * l.e.bs
		rerr := blockdev.ReadBlocks(l.e.cfg.Dev, start, rest[:run])
		rest = rest[run:]
		return rerr
	})
	if err != nil {
		return nil, 0, err
	}
	base = first * l.e.bs
	return raw[:limit-base], base, nil
}

// recoverLocked rebuilds the in-memory index. Records merge by LSN —
// highest wins per object — which stays correct in the presence of
// compaction copies (same LSN, later position; ties go to the later
// scan position) and interleaved segment reuse (epoch and seg stamps
// reject foreign records at the scan frontier).
func (l *Log) recoverLocked() (Stats, error) {
	if len(l.segs) > 0 {
		l.act = l.segs[len(l.segs)-1]
	}

	var snap *idxSnapshot
	if raw, err := l.e.cfg.Meta.LoadIndex(l.part); err == nil && len(raw) > 0 {
		if snap = decodeIndexSnapshot(raw, l.epoch); snap != nil {
			l.snapBytes = int64(len(raw))
		}
	}

	segBySeq := make(map[uint64]*segment, len(l.segs))
	for _, s := range l.segs {
		segBySeq[s.seq] = s
	}

	var maxObj uint64
	bumpLSN := func(lsn uint64) {
		if lsn >= l.nextLSN {
			l.nextLSN = lsn + 1
		}
	}

	scanStart := make(map[uint64]int64) // seg seq -> scan-from offset
	if snap != nil {
		for obj, se := range snap.entries {
			s := segBySeq[se.seg]
			if s == nil {
				// Segment compacted away after the snapshot; the record
				// was copied into a post-snapshot position and the scan
				// below re-finds it.
				continue
			}
			l.index[obj] = &entry{seg: s, off: se.off, size: se.size, lsn: se.lsn, info: se.info}
			bumpLSN(se.lsn)
			if obj > maxObj {
				maxObj = obj
			}
		}
		for seq, live := range snap.segLive {
			if s := segBySeq[seq]; s != nil {
				s.live = live
			}
		}
		for _, s := range l.segs {
			if _, ok := snap.segLive[s.seq]; ok && s.seq != snap.actSeq {
				scanStart[s.seq] = -1 // fully covered by snapshot
			}
		}
		if s := segBySeq[snap.actSeq]; s != nil {
			scanStart[s.seq] = snap.tail
		}
	}

	// tombs records the highest tombstone LSN seen per object, so a
	// stale data record (e.g. an uncollected compaction duplicate)
	// scanned after its tombstone cannot resurrect the object.
	tombs := make(map[uint64]uint64)
	merge := func(s *segment, off int64, r *record) {
		if r.obj > maxObj {
			maxObj = r.obj
		}
		bumpLSN(r.lsn)
		if r.tombstone() {
			s.live += r.wireSize()
			if r.lsn > tombs[r.obj] {
				tombs[r.obj] = r.lsn
			}
			if cur := l.index[r.obj]; cur != nil && r.lsn > cur.lsn {
				cur.seg.live -= cur.size
				delete(l.index, r.obj)
			}
			return
		}
		if tombs[r.obj] >= r.lsn {
			return // deleted; bytes are dead
		}
		cur := l.index[r.obj]
		if cur != nil && r.lsn < cur.lsn {
			return // superseded; bytes are dead
		}
		if cur != nil {
			cur.seg.live -= cur.size
		}
		info := r.info
		s.live += r.wireSize()
		l.index[r.obj] = &entry{seg: s, off: off, size: r.wireSize(), lsn: r.lsn, info: info}
	}

	var blocks uint64
	for _, s := range l.segs {
		blocks += uint64(len(s.blocks))
		from, ok := scanStart[s.seq]
		if !ok {
			from = 0
		} else if from < 0 {
			continue
		}
		limit := s.written
		if s == l.act {
			limit = int64(len(s.blocks)) * l.e.bs
		}
		raw, base, err := l.readSegDeviceLocked(s, from, limit)
		if err != nil {
			return Stats{}, err
		}
		seg := s
		end := base + scanRecords(raw, l.epoch, s.seq, from-base, func(off int64, r *record) {
			merge(seg, base+off, r)
		})
		// The bytes past the snapshot are the delta it lags the log by.
		l.sinceSnap += end - from
		if s == l.act {
			s.written = end
			l.flushed = end / l.e.bs * l.e.bs
			l.pending = append([]byte(nil), raw[l.flushed-base:end-base]...)
		}
	}

	return Stats{
		Objects:     uint64(len(l.index)),
		Blocks:      blocks,
		MaxObjectID: maxObj,
	}, nil
}

// Create appends an empty object record. The object must not exist.
func (e *Engine) Create(part uint16, obj uint64, now int64) error {
	l, err := e.getLog(part)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.index[obj]; ok {
		return ErrExists
	}
	r := &record{
		part: part,
		obj:  obj,
		info: Info{Version: 1, CreateSec: now, ModSec: now, AttrModSec: now},
	}
	seg, off, err := l.appendLocked(r)
	if err != nil {
		return err
	}
	l.index[obj] = &entry{seg: seg, off: off, size: r.wireSize(), lsn: r.lsn, info: r.info}
	e.indexEntries.Add(1)
	return nil
}

// GetInfo returns an object's attributes from the in-memory index —
// no media access.
func (e *Engine) GetInfo(part uint16, obj uint64) (Info, error) {
	l, err := e.getLog(part)
	if err != nil {
		return Info{}, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	ent := l.index[obj]
	if ent == nil {
		return Info{}, ErrNotFound
	}
	return ent.info, nil
}

// Read returns up to n bytes of the object's payload starting at off,
// clipped to the object's size. A full-object read re-verifies the
// record checksum; partial reads fetch only the spanned blocks.
func (e *Engine) Read(part uint16, obj, off uint64, n int) ([]byte, error) {
	l, err := e.getLog(part)
	if err != nil {
		return nil, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	ent := l.index[obj]
	if ent == nil {
		return nil, ErrNotFound
	}
	if e.reads != nil {
		e.reads.Inc()
	}
	if off >= ent.info.Size || n <= 0 {
		return nil, nil
	}
	if uint64(n) > ent.info.Size-off {
		n = int(ent.info.Size - off)
	}
	var data []byte
	var ios int64
	if off == 0 && uint64(n) == ent.info.Size {
		raw, c, rerr := l.readRangeLocked(ent.seg, ent.off, ent.size)
		ios = c
		if rerr != nil {
			return nil, rerr
		}
		r, _, derr := decodeRecord(raw, l.epoch, ent.seg.seq)
		if derr != nil {
			bufpool.Put(raw)
			return nil, corruptErr(part, obj)
		}
		// Slide the payload to the front of the pooled buffer: a
		// subslice past the header has a capacity that is no size
		// class, and bufpool.Put would refuse it when the drive
		// recycles the result after sending it.
		data = raw[:copy(raw, r.payload)]
	} else {
		raw, c, rerr := l.readRangeLocked(ent.seg, ent.off+int64(headerSize)+int64(off), int64(n))
		ios = c
		if rerr != nil {
			return nil, rerr
		}
		data = raw
	}
	if e.readIOs != nil {
		e.readIOs.Add(uint64(ios))
	}
	return data, nil
}

// readPayloadLocked fetches an object's whole current payload (write
// paths that rewrite the record need it).
func (l *Log) readPayloadLocked(ent *entry) ([]byte, error) {
	if ent.info.Size == 0 {
		return nil, nil
	}
	raw, _, err := l.readRangeLocked(ent.seg, ent.off+int64(headerSize), int64(ent.info.Size))
	return raw, err
}

// Write appends a superseding record carrying the object's new
// payload. Whole-object overwrites (off 0, length >= current size)
// append directly; anything else read-modify-writes the old payload.
func (e *Engine) Write(part uint16, obj, off uint64, data []byte, now int64) error {
	l, err := e.getLog(part)
	if err != nil {
		return err
	}
	l.mu.Lock()
	ent := l.index[obj]
	if ent == nil {
		l.mu.Unlock()
		return ErrNotFound
	}
	end := off + uint64(len(data))
	var payload []byte
	var scratch []byte // pooled RMW buffer, recycled after the append copies it
	if off == 0 && end >= ent.info.Size {
		payload = data
	} else {
		old, rerr := l.readPayloadLocked(ent)
		if rerr != nil {
			l.mu.Unlock()
			return rerr
		}
		if end > uint64(len(old)) {
			grown := bufpool.Get(int(end))
			n := copy(grown, old)
			for i := n; i < len(grown); i++ {
				grown[i] = 0
			}
			bufpool.Put(old)
			old = grown
		}
		copy(old[off:], data)
		payload = old
		scratch = old
	}
	info := ent.info
	info.Size = uint64(len(payload))
	info.ModSec = now
	rerr := l.rewriteLocked(ent, obj, info, payload)
	bufpool.Put(scratch)
	l.mu.Unlock()
	if rerr != nil {
		return rerr
	}
	e.maybeCompact(l)
	return nil
}

// rewriteLocked appends a record superseding ent and repoints the
// index at it.
func (l *Log) rewriteLocked(ent *entry, obj uint64, info Info, payload []byte) error {
	r := &record{part: l.part, obj: obj, info: info, payload: payload}
	if info.Uninterp != nil {
		r.flags |= flagUninterp
	}
	seg, off, err := l.appendLocked(r)
	if err != nil {
		return err
	}
	ent.seg.live -= ent.size
	l.index[obj] = &entry{seg: seg, off: off, size: r.wireSize(), lsn: r.lsn, info: info}
	return nil
}

// Update applies fn to a copy of the object's attributes and appends a
// superseding record. fn owns every attribute it changes, including
// timestamps; when it changes Size the payload is truncated or
// zero-extended to match.
func (e *Engine) Update(part uint16, obj uint64, fn func(*Info) error) error {
	l, err := e.getLog(part)
	if err != nil {
		return err
	}
	l.mu.Lock()
	ent := l.index[obj]
	if ent == nil {
		l.mu.Unlock()
		return ErrNotFound
	}
	info := ent.info
	if ferr := fn(&info); ferr != nil {
		l.mu.Unlock()
		return ferr
	}
	payload, rerr := l.readPayloadLocked(ent)
	if rerr != nil {
		l.mu.Unlock()
		return rerr
	}
	if uint64(len(payload)) != info.Size {
		resized := bufpool.Get(int(info.Size))
		n := copy(resized, payload)
		for i := n; i < len(resized); i++ {
			resized[i] = 0
		}
		bufpool.Put(payload)
		payload = resized
	}
	rerr = l.rewriteLocked(ent, obj, info, payload)
	bufpool.Put(payload)
	l.mu.Unlock()
	if rerr != nil {
		return rerr
	}
	e.maybeCompact(l)
	return nil
}

// Remove appends a tombstone and drops the object from the index.
// Tombstones are carried forward by compaction forever so a full-scan
// recovery replays the deletion.
func (e *Engine) Remove(part uint16, obj uint64) error {
	l, err := e.getLog(part)
	if err != nil {
		return err
	}
	l.mu.Lock()
	ent := l.index[obj]
	if ent == nil {
		l.mu.Unlock()
		return ErrNotFound
	}
	r := &record{flags: flagTombstone, part: part, obj: obj}
	if _, _, aerr := l.appendLocked(r); aerr != nil {
		l.mu.Unlock()
		return aerr
	}
	ent.seg.live -= ent.size
	delete(l.index, obj)
	e.indexEntries.Add(-1)
	l.mu.Unlock()
	e.maybeCompact(l)
	return nil
}

// List returns the partition's live object IDs in ascending order.
func (e *Engine) List(part uint16) ([]uint64, error) {
	l, err := e.getLog(part)
	if err != nil {
		return nil, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	ids := make([]uint64, 0, len(l.index))
	for id := range l.index {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids, nil
}

// Flush makes every log durable: the active segment's pending run goes
// to the device and the device's volatile write cache is drained.
// Segment tables are already durable (saved at every roll and
// compaction). A log that has grown past its index snapshot by the
// snapshot's size also writes a fresh one through the Meta store, so a
// flush costs the records appended since the last one, not the object
// count, and recovery after it scans less log than it loads snapshot.
func (e *Engine) Flush() error {
	e.mu.Lock()
	logs := make([]*Log, 0, len(e.logs))
	for _, l := range e.logs {
		logs = append(logs, l)
	}
	e.mu.Unlock()
	slices.SortFunc(logs, func(a, b *Log) int { return int(a.part) - int(b.part) })
	for _, l := range logs {
		l.mu.Lock()
		err := l.writePendingLocked()
		if err == nil {
			err = l.saveIndexSnapshotLocked()
		}
		l.mu.Unlock()
		if err != nil {
			return err
		}
	}
	// Pending runs went to the device with plain writes; without a
	// device flush they could still sit in a volatile write cache.
	return e.cfg.Dev.Flush()
}

// Sync makes one log's appended records durable by writing its pending
// run to the device and flushing the device's write cache,
// without the index-snapshot work Flush does. Callers use it after
// appends that must survive a crash on their own — version bumps, whose
// loss would un-revoke capabilities.
func (e *Engine) Sync(part uint16) error {
	l, err := e.getLog(part)
	if err != nil {
		return err
	}
	l.mu.Lock()
	err = l.writePendingLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return e.cfg.Dev.Flush()
}

// LogBlocks returns every device block owned by part's log segments.
// Mount-time verification uses it to recompute the block reference
// counts the segments should hold.
func (e *Engine) LogBlocks(part uint16) ([]int64, error) {
	l, err := e.getLog(part)
	if err != nil {
		return nil, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	var blocks []int64
	for _, s := range l.segs {
		blocks = append(blocks, s.blocks...)
	}
	return blocks, nil
}

// --- Compaction ----------------------------------------------------------

// maybeCompact kicks the background compactor if any sealed segment
// crossed the dead-byte threshold. At most one compactor runs per log.
func (e *Engine) maybeCompact(l *Log) {
	if e.cfg.CompactThreshold <= 0 {
		return
	}
	l.mu.RLock()
	hot := l.compactCandidateLocked() != nil
	l.mu.RUnlock()
	if !hot {
		return
	}
	if !l.compacting.CompareAndSwap(false, true) {
		return
	}
	if e.cfg.SyncCompact {
		e.compactLoop(l)
		return
	}
	go e.compactLoop(l)
}

func (l *Log) compactCandidateLocked() *segment {
	for _, s := range l.segs {
		if s == l.act || s.written == 0 {
			continue
		}
		dead := s.written - s.live
		if float64(dead) >= l.e.cfg.CompactThreshold*float64(s.written) {
			return s
		}
	}
	return nil
}

func (e *Engine) compactLoop(l *Log) {
	defer l.compacting.Store(false)
	for {
		l.mu.Lock()
		s := l.compactCandidateLocked()
		if s == nil {
			l.mu.Unlock()
			return
		}
		seq, freed := s.seq, len(s.blocks)
		err := l.compactSegmentLocked(s)
		l.mu.Unlock()
		if err != nil {
			e.cfg.Events.Emitf(telemetry.SevWarn, "needle", "compaction_error",
				"part=%d seg=%d: %v", l.part, seq, err)
			return
		}
		if e.compactions != nil {
			e.compactions.Inc()
		}
		e.cfg.Events.Emitf(telemetry.SevInfo, "needle", "compaction",
			"part=%d seg=%d freed_blocks=%d", l.part, seq, freed)
	}
}

// compactSegmentLocked copies src's live records and tombstones to the
// log tail (preserving their LSNs, so recovery ordering is unchanged),
// writes the pending run and flushes the device, then frees src. A crash
// mid-way leaves duplicate records, which LSN-merge recovery resolves;
// quota is only settled once src's blocks are actually returned.
func (l *Log) compactSegmentLocked(src *segment) error {
	raw, _, err := l.readSegDeviceLocked(src, 0, src.written)
	if err != nil {
		return err
	}
	var cerr error
	scanRecords(raw, l.epoch, src.seq, 0, func(off int64, r *record) {
		if cerr != nil {
			return
		}
		if r.tombstone() {
			if _, _, aerr := l.appendLocked(r); aerr != nil {
				cerr = aerr
			}
			return
		}
		ent := l.index[r.obj]
		if ent == nil || ent.seg != src || ent.off != off {
			return // dead: superseded or removed
		}
		seg, noff, aerr := l.appendLocked(r)
		if aerr != nil {
			cerr = aerr
			return
		}
		l.index[r.obj] = &entry{seg: seg, off: noff, size: r.wireSize(), lsn: r.lsn, info: ent.info}
	})
	if cerr != nil {
		return cerr
	}
	if err := l.writePendingLocked(); err != nil {
		return err
	}
	// The copies must be on the medium before the table that drops src
	// can be: the table's commit flushes both in no particular order, and
	// a crash that kept the table and lost a copy would lose the object.
	if err := l.e.cfg.Dev.Flush(); err != nil {
		return err
	}
	for _, b := range src.blocks {
		_ = l.e.cfg.Space.FreeBlock(b)
	}
	l.e.cfg.Quota.SettleBlocks(l.part, -int64(len(src.blocks)))
	for i, s := range l.segs {
		if s == src {
			l.segs = append(l.segs[:i], l.segs[i+1:]...)
			break
		}
	}
	return l.saveSegmentsLocked()
}
