package object

import (
	"errors"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/journal"
	"nasd/internal/layout"
	"nasd/internal/needle"
)

// needleBackend fronts the internal/needle engine as a StoreBackend.
// The engine is substrate-agnostic; this file is where it is plugged
// into the store's classic layout: segments draw blocks from the
// classic allocator (one free-space pool for both engines), log
// metadata persists as classic partition-0 raw objects, and quota flows
// through the store's ledger.
type needleBackend struct {
	s   *Store
	eng *needle.Engine
}

func newNeedleBackend(s *Store, dev blockdev.Device) *needleBackend {
	b := &needleBackend{s: s}
	b.eng = needle.New(needle.Config{
		Dev:     dev,
		Space:   needleSpace{s},
		Meta:    needleMeta{s},
		Quota:   needleQuota{s},
		Metrics: s.cfg.Metrics,
		Events:  s.cfg.Events,
	})
	return b
}

// needleSpace feeds segment allocation from the classic block
// allocator.
type needleSpace struct{ s *Store }

func (sp needleSpace) AllocBlocks(n int) ([]int64, error) {
	return sp.s.classic.lay.Alloc(n, 0)
}

func (sp needleSpace) FreeBlock(blk int64) error {
	return sp.s.classic.lay.Free(blk)
}

// needleMeta persists log metadata in the partition's two classic
// partition-0 raw objects (allocated at CreatePartition).
type needleMeta struct{ s *Store }

func (m needleMeta) LoadSegments(part uint16) ([]byte, error) {
	segs, _, err := m.s.metaIDs(part)
	if err != nil {
		return nil, err
	}
	return m.s.classic.loadRaw(segs)
}

// SaveSegments is durable on return: the segment table is the log's
// root metadata, so losing it strands the log's blocks. The encoded
// table is committed as one intent record and the in-place object write
// stays buffered — a crash replays the record at mount, and recovery
// pins the blocks it names before any replay allocation. Each new
// record supersedes the partition's previous one. A record too big for
// a journal half even after compaction is made durable the direct way
// instead: the table is pushed through the cache and the allocator
// state synced with it. Either way this runs only at segment
// granularity (roll, compaction), not per object write.
func (m needleMeta) SaveSegments(part uint16, data []byte) error {
	segs, _, err := m.s.metaIDs(part)
	if err != nil {
		return err
	}
	lay := m.s.classic.lay
	lsn, jerr := lay.JournalAppend(journal.KindNeedleSeg, journal.EncodeNeedleSeg(part, data))
	if jerr == nil {
		if err := m.s.classic.saveRaw(segs, data); err != nil {
			return err
		}
		m.s.lockParts()
		if prev := m.s.segLSNs[part]; prev != 0 {
			lay.JournalApplied(prev)
		}
		m.s.segLSNs[part] = lsn
		m.s.pmu.Unlock()
		return nil
	}
	if !errors.Is(jerr, journal.ErrFull) {
		return jerr
	}
	if err := m.s.classic.saveRaw(segs, data); err != nil {
		return err
	}
	if err := m.s.classic.cache.Flush(); err != nil {
		return err
	}
	return lay.Sync()
}

func (m needleMeta) LoadIndex(part uint16) ([]byte, error) {
	_, idx, err := m.s.metaIDs(part)
	if err != nil {
		return nil, err
	}
	return m.s.classic.loadRaw(idx)
}

// SaveIndex is buffered: the snapshot is restart acceleration only, and
// Store.Flush flushes the needle engine before the classic cache, so
// the snapshot written here becomes durable in the same flush.
func (m needleMeta) SaveIndex(part uint16, data []byte) error {
	_, idx, err := m.s.metaIDs(part)
	if err != nil {
		return err
	}
	return m.s.classic.saveRaw(idx, data)
}

// needleQuota routes segment charges into the store's quota ledger.
type needleQuota struct{ s *Store }

func (q needleQuota) ChargeBlocks(part uint16, delta int64) error {
	return q.s.chargeBlocks(part, delta)
}

func (q needleQuota) SettleBlocks(part uint16, delta int64) {
	q.s.settleBlocks(part, delta)
}

// mapNeedleErr translates engine errors into the object layer's
// vocabulary; anything unrecognized (including wrapped ErrQuota from
// the store's own ledger) passes through.
func mapNeedleErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, needle.ErrNotFound):
		return ErrNoObject
	case errors.Is(err, needle.ErrNoLog):
		return ErrNoPartition
	case errors.Is(err, needle.ErrTooBig):
		return ErrBadRange
	default:
		return err
	}
}

func (b *needleBackend) now() int64 { return b.s.cfg.Clock().Unix() }

// Kind implements StoreBackend.
func (b *needleBackend) Kind() BackendKind { return BackendNeedle }

// Create implements StoreBackend.
func (b *needleBackend) Create(part uint16, id uint64) error {
	return mapNeedleErr(b.eng.Create(part, id, b.now()))
}

// Remove implements StoreBackend. The freed charge is zero: needle
// quota is charged per segment, and segments are only released by
// compaction (which settles the ledger itself).
func (b *needleBackend) Remove(part uint16, obj uint64) (int64, error) {
	return 0, mapNeedleErr(b.eng.Remove(part, obj))
}

// Read implements StoreBackend. The tracker is ignored: a needle read
// already costs at most two media I/Os, so there is nothing for
// readahead to win.
func (b *needleBackend) Read(part uint16, obj uint64, off uint64, n int, _ *SeqTracker) ([]byte, error) {
	data, err := b.eng.Read(part, obj, off, n)
	return data, mapNeedleErr(err)
}

// Write implements StoreBackend.
func (b *needleBackend) Write(part uint16, obj uint64, off uint64, data []byte) error {
	end := off + uint64(len(data))
	if end < off || end > b.eng.MaxObjectSize() {
		return ErrBadRange
	}
	return mapNeedleErr(b.eng.Write(part, obj, off, data, b.now()))
}

// GetAttr implements StoreBackend. Attributes come straight from the
// in-memory index — no media access.
func (b *needleBackend) GetAttr(part uint16, obj uint64) (Attributes, error) {
	info, err := b.eng.GetInfo(part, obj)
	if err != nil {
		return Attributes{}, mapNeedleErr(err)
	}
	a := Attributes{
		Size:        info.Size,
		Version:     info.Version,
		CreateTime:  time.Unix(info.CreateSec, 0),
		ModTime:     time.Unix(info.ModSec, 0),
		AttrModTime: time.Unix(info.AttrModSec, 0),
		Prealloc:    info.Prealloc,
		Cluster:     info.Cluster,
	}
	if info.Uninterp != nil {
		a.Uninterp = *info.Uninterp
	}
	return a, nil
}

// SetAttr implements StoreBackend by appending one superseding record
// with the updated attributes (and, for SetSize, the truncated or
// zero-extended payload).
func (b *needleBackend) SetAttr(part uint16, obj uint64, a Attributes, mask SetAttrMask) error {
	if mask&SetSize != 0 && a.Size > b.eng.MaxObjectSize() {
		return ErrBadRange
	}
	now := b.now()
	err := b.eng.Update(part, obj, func(info *needle.Info) error {
		if mask&SetSize != 0 && a.Size != info.Size {
			info.Size = a.Size
			info.ModSec = now
		}
		if mask&SetVersion != 0 {
			info.Version = a.Version
		}
		if mask&SetPrealloc != 0 {
			info.Prealloc = a.Prealloc
		}
		if mask&SetCluster != 0 {
			info.Cluster = a.Cluster
		}
		if mask&SetUninterp != 0 {
			if a.Uninterp == ([layout.UninterpSize]byte{}) {
				info.Uninterp = nil
			} else {
				u := a.Uninterp
				info.Uninterp = &u
			}
		}
		if mask&SetModTime != 0 {
			info.ModSec = a.ModTime.Unix()
		}
		info.AttrModSec = now
		return nil
	})
	if err == nil && mask&SetVersion != 0 {
		// A version bump revokes capabilities; losing it to a crash
		// would re-arm them. A classic onode write is committed to the
		// journal before it returns, so match that durability by syncing
		// the log tail here.
		err = b.eng.Sync(part)
	}
	return mapNeedleErr(err)
}

// List implements StoreBackend.
func (b *needleBackend) List(part uint16) ([]uint64, error) {
	ids, err := b.eng.List(part)
	return ids, mapNeedleErr(err)
}

// Charge implements StoreBackend: individual needle objects carry no
// quota charge (segments are charged as they are allocated).
func (b *needleBackend) Charge(part uint16, obj uint64) (int64, error) {
	if _, err := b.eng.GetInfo(part, obj); err != nil {
		return 0, mapNeedleErr(err)
	}
	return 0, nil
}

// VersionObject implements StoreBackend: copy-on-write versions need
// the classic block-map sharing machinery, which a needle log does not
// have.
func (b *needleBackend) VersionObject(part uint16, obj uint64) (uint64, error) {
	if _, err := b.eng.GetInfo(part, obj); err != nil {
		return 0, mapNeedleErr(err)
	}
	return 0, ErrBackendMismatch
}

// Flush implements StoreBackend.
func (b *needleBackend) Flush() error { return b.eng.Flush() }

// Log lifecycle passthroughs for the store's partition management.
func (b *needleBackend) createLog(part uint16) error { return b.eng.CreateLog(part) }

func (b *needleBackend) openLog(part uint16) (needle.Stats, error) { return b.eng.OpenLog(part) }

func (b *needleBackend) dropLog(part uint16) error { return b.eng.DropLog(part) }

var _ StoreBackend = (*needleBackend)(nil)
