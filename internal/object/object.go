// Package object implements the NASD object system (Section 4.1): a
// flat namespace of variable-length objects grouped into soft,
// resizable partitions, with per-object attributes, copy-on-write
// versions, capacity quotas, and well-known objects for bootstrap.
//
// This is the paper's core storage abstraction: "drives export variable
// length objects instead of fixed-size blocks", moving data layout
// management into the device. The drive layer (internal/drive) adds
// capability enforcement and RPC on top.
//
// # Backends
//
// The Store itself owns what every storage engine shares — the
// per-object lock manager, the partition table with quota and
// object-count accounting, and control-object persistence — and
// dispatches data-path operations to a per-partition StoreBackend
// (backend.go). Two engines are registered:
//
//   - classic (classic.go): the paper's layout engine — superblock,
//     refcounted allocator, onode table, direct/indirect block maps
//     (internal/layout) — fronted by the sharded buffer cache with
//     write-behind and sequential readahead. The default; always
//     present (the control object lives in it).
//   - needle (needle_backend.go wrapping internal/needle): a
//     Haystack-style append-only needle log with a fully in-memory
//     index, built for small-object workloads — one or two media I/Os
//     per read, no per-object metadata I/O on the write path.
//
// The backend is chosen per partition at CreatePartition time and
// persisted in the control object's partition table; the layers above
// never see the concrete engine.
//
// # Durability
//
// Structural metadata mutations — onodes, block reference counts, the
// partition table, needle segment tables — are journaled ahead of
// their in-place writes (internal/journal), so a crash or power cut
// mid-update never leaves them torn. Open scans the journal, replays
// the committed tail over the on-media state, verifies and repairs
// block reference counts, and reports what it did through
// RecoveryInfo. Every volume is journaled, and data blocks are written
// behind: a write is acknowledged once its metadata record is committed,
// and its data is durable at the next Flush. DESIGN.md §7 specifies the commit protocol and the recovery
// invariants; crash_test.go's TestCrashSweep asserts those invariants
// at every scheduled persist step under blockdev.CrashDisk.
//
// # Concurrency
//
// The store admits concurrent requests the way the paper's scaling
// argument requires a drive to (Figures 6-7: drives scale because each
// serves clients independently): instead of one global mutex, locking
// is layered.
//
//   - Per-object reader/writer locks (lockmgr.go): reads of one object
//     share its lock, so they overlap; operations on distinct objects
//     take distinct locks, so they never contend at this layer.
//   - The needle engine locks per partition log, below the object
//     locks.
//   - A partition lock (pmu) guards the partition table, quota
//     accounting, and the control object.
//   - The buffer cache locks per shard, the layout allocator holds its
//     mutex only across bitmap/metadata mutations, and the onode table
//     uses per-block stripe locks.
//
// The lock hierarchy is object → needle log → partition → cache →
// layout: a level may acquire locks of lower levels (skipping is fine)
// and never the reverse, which keeps the scheme deadlock-free. Every
// layer's lock reports contention telemetry (object.lock.*,
// object.partlock.*, cache.lock.*, layout.lock.*) into the registry
// passed via Config.Metrics. See DESIGN.md §4 for the full write-up.
package object

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/cache"
	"nasd/internal/layout"
	"nasd/internal/telemetry"
)

// Well-known object identifiers (Section 4.1: "objects with well-known
// names and structures allow configuration and bootstrap of drives and
// partitions").
const (
	// ControlObject holds the drive's partition table. It lives in
	// partition 0 (the drive's own partition) and is created at format.
	ControlObject uint64 = 1
	// FirstUserObject is the first identifier handed to user objects.
	FirstUserObject uint64 = 16
)

// Object system errors.
var (
	ErrNoPartition     = errors.New("object: no such partition")
	ErrPartitionExists = errors.New("object: partition already exists")
	ErrPartitionBusy   = errors.New("object: partition not empty")
	ErrNoObject        = errors.New("object: no such object")
	ErrQuota           = errors.New("object: partition quota exceeded")
	ErrBadRange        = errors.New("object: invalid byte range")
)

// notFound reports whether err means the named object or partition does
// not exist — the errors after which a speculative lock entry should
// not be kept.
func notFound(err error) bool {
	return errors.Is(err, ErrNoObject) || errors.Is(err, ErrNoPartition)
}

// Attributes are the externally visible per-object attributes
// (timestamps, size, logical version, preallocation/clustering hints and
// the uninterpreted filesystem-specific block).
type Attributes struct {
	Size        uint64
	Version     uint64 // logical version number; bumping revokes capabilities
	CreateTime  time.Time
	ModTime     time.Time
	AttrModTime time.Time
	Prealloc    uint64 // reserved capacity in bytes
	Cluster     uint64 // object to cluster near
	Uninterp    [layout.UninterpSize]byte
}

// SetAttrMask selects which attributes SetAttr changes.
type SetAttrMask uint32

// Mask bits for SetAttr.
const (
	SetVersion SetAttrMask = 1 << iota
	SetPrealloc
	SetCluster
	SetUninterp
	SetModTime
	SetSize // truncate/extend to Size
)

// Partition describes one soft partition. Partitions are groupings of
// objects with a capacity quota, "not physical regions of disk media",
// so resizing is a metadata operation.
type Partition struct {
	ID          uint16
	QuotaBlocks int64 // 0 = unlimited
	UsedBlocks  int64 // block references charged to this partition
	ObjectCount int64
	// Backend is the storage engine serving this partition's objects.
	Backend BackendKind

	// Needle partitions keep two partition-0 classic raw objects: the
	// segment table and the index snapshot. Zero for classic partitions.
	metaSegs uint64
	metaIdx  uint64
}

// Config controls store creation; the zero value of every field picks
// a maintained default.
type Config struct {
	// CacheBlocks is the buffer cache capacity in blocks (default 1024).
	CacheBlocks int
	// ReadaheadBlocks is the first readahead window, in blocks, past a
	// read at offset 0 or a detected sequential read; each window after
	// it doubles, up to blockdev.RunLimit (see SeqTracker). 0 = default
	// 16; negative disables readahead.
	ReadaheadBlocks int
	// Clock supplies timestamps (default time.Now). Experiments inject
	// simulated clocks.
	Clock func() time.Time
	// Metrics receives lock-contention telemetry for every layer of the
	// store (object.lock.*, object.partlock.*, cache.lock.*,
	// layout.lock.*) plus per-backend counters (object.classic.*,
	// needle.*). Nil disables metering.
	Metrics *telemetry.Registry
	// DefaultBackend is the engine CreatePartition uses when the caller
	// does not name one (default BackendClassic).
	DefaultBackend BackendKind
	// OnodeCount overrides the format-time onode table size (0 = layout
	// default: one slot per 64 data blocks). Needle-heavy drives need
	// only a handful of classic onodes, while classic million-object
	// workloads need it raised.
	OnodeCount int64
	// Events is the structured event ring the store emits state
	// transitions into (journal recovery, needle compactions). Nil uses
	// the process-wide telemetry.Events ring.
	Events *telemetry.EventLog
}

func (c *Config) fill() {
	if c.CacheBlocks <= 0 {
		c.CacheBlocks = 1024
	}
	if c.ReadaheadBlocks < 0 {
		c.ReadaheadBlocks = 0
	} else if c.ReadaheadBlocks == 0 {
		c.ReadaheadBlocks = 16
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Events == nil {
		c.Events = telemetry.Events
	}
}

// Store is a NASD object store on a block device. All methods are safe
// for concurrent use; see the package comment for the locking scheme.
// Data-path operations dispatch to the partition's StoreBackend.
type Store struct {
	cfg Config

	// classic is the default engine and the substrate for everything
	// shared: the control object, needle metadata objects, and the
	// volume-wide object ID counter live in its layout.
	classic *classicBackend
	// needle is the append-only log engine, inert until a needle
	// partition exists.
	needle *needleBackend

	// locks is the per-(partition,object) lock manager — the top of the
	// lock hierarchy.
	locks *lockManager

	// pmu guards parts (the partition table), all quota/usage
	// accounting, and control-object persistence. It sits between the
	// needle log locks and the cache in the hierarchy.
	pmu    sync.Mutex
	pmeter *telemetry.LockMeter
	parts  map[uint16]*Partition

	// partsLSN / segLSNs (guarded by pmu) track the newest journaled
	// partition-table and per-partition segment-table intent records
	// whose in-place writes are still buffered in the cache. Flush marks
	// them applied once the cache has drained, letting the journal
	// checkpoint discard them.
	partsLSN uint64
	segLSNs  map[uint16]uint64

	// recovery summarizes the last mount-time recovery (zero value when
	// the volume opened clean).
	recovery RecoveryInfo
}

// Format initializes dev as an empty object store.
func Format(dev blockdev.Device, cfg Config) (*Store, error) {
	cfg.fill()
	lay, err := layout.Format(dev, layout.FormatOptions{
		OnodeCount: cfg.OnodeCount,
		Metrics:    cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	s := newStore(lay, dev, cfg)
	lay.ReserveObjectIDs(FirstUserObject)
	s.lockParts()
	err = s.savePartitionsLocked()
	s.pmu.Unlock()
	if err != nil {
		return nil, err
	}
	// Push the freshly written control object and superblock to the
	// device so a crash right after Format still finds an object store.
	if err := s.Flush(); err != nil {
		return nil, err
	}
	return s, nil
}

// Open loads an existing object store from dev. This is also
// mount-time recovery: committed intent records are
// replayed, torn journal tails discarded, and the block reference
// counts re-derived from reachability before the store accepts traffic
// (see recover.go).
func Open(dev blockdev.Device, cfg Config) (*Store, error) {
	cfg.fill()
	start := time.Now()
	lay, err := layout.Open(dev, layout.OpenOptions{Metrics: cfg.Metrics})
	if err != nil {
		return nil, err
	}
	s := newStore(lay, dev, cfg)
	if err := s.recoverObjectRecords(); err != nil {
		return nil, err
	}
	// Recover every needle partition's log: rebuild the in-memory index
	// (from its snapshot when possible, a full log scan otherwise) and
	// re-derive the partition's accounting from log state — needle
	// creates and removes deliberately skip control-object writes, so
	// the persisted counts are only as fresh as the last Flush.
	var maxID uint64
	for _, p := range s.parts {
		if p.Backend != BackendNeedle {
			continue
		}
		st, err := s.needle.openLog(p.ID)
		if err != nil {
			return nil, fmt.Errorf("object: recovering needle partition %d: %w", p.ID, err)
		}
		p.ObjectCount = int64(st.Objects)
		p.UsedBlocks = int64(st.Blocks)
		if st.MaxObjectID > maxID {
			maxID = st.MaxObjectID
		}
	}
	// Needle object IDs come from the classic superblock counter, which
	// is only persisted at Sync; never re-issue an ID the log has seen.
	if maxID != 0 {
		lay.ReserveObjectIDs(maxID + 1)
	}
	if err := s.finishRecovery(start); err != nil {
		return nil, err
	}
	return s, nil
}

func newStore(lay *layout.Store, dev blockdev.Device, cfg Config) *Store {
	c := cache.New(dev, cfg.CacheBlocks)
	c.SetLockMeter(telemetry.NewLockMeter(cfg.Metrics, "cache.lock"))
	lay.SetDataIO(c)
	lay.SetLockMeter(telemetry.NewLockMeter(cfg.Metrics, "layout.lock"))
	s := &Store{
		cfg:     cfg,
		locks:   newLockManager(telemetry.NewLockMeter(cfg.Metrics, "object.lock")),
		pmeter:  telemetry.NewLockMeter(cfg.Metrics, "object.partlock"),
		parts:   make(map[uint16]*Partition),
		segLSNs: make(map[uint16]uint64),
	}
	s.classic = newClassicBackend(lay, c, &s.cfg, s)
	s.needle = newNeedleBackend(s, dev)
	return s
}

// lockParts acquires the partition lock through its contention meter.
func (s *Store) lockParts() { s.pmeter.Lock(&s.pmu) }

// BlockSize returns the store's block size in bytes.
func (s *Store) BlockSize() int64 { return s.classic.lay.BlockSize() }

// MaxObjectSize returns the largest supported object size.
func (s *Store) MaxObjectSize() uint64 { return s.classic.lay.MaxObjectSize() }

// FreeBlocks returns the number of free data blocks.
func (s *Store) FreeBlocks() int64 { return s.classic.lay.FreeBlocks() }

// CacheStats exposes buffer cache counters (hits, misses, prefetches).
func (s *Store) CacheStats() cache.Stats { return s.classic.cache.Stats() }

// LockEntries returns the number of live per-object lock entries
// (introspection and tests).
func (s *Store) LockEntries() int { return s.locks.entries() }

// backendFor resolves the engine serving part. Partition 0 (the drive's
// own) is always classic.
func (s *Store) backendFor(part uint16) (StoreBackend, error) {
	if part == 0 {
		return s.classic, nil
	}
	s.lockParts()
	p := s.parts[part]
	var kind BackendKind
	if p != nil {
		kind = p.Backend
	}
	s.pmu.Unlock()
	if p == nil {
		return nil, ErrNoPartition
	}
	if kind == BackendNeedle {
		return s.needle, nil
	}
	return s.classic, nil
}

// --- Quota account (quotaAccount, used by backends) ----------------------

// chargeBlocks admits delta blocks against part's quota; negative
// deltas always succeed and just reduce usage. Partition 0 and removed
// partitions are uncharged.
func (s *Store) chargeBlocks(part uint16, delta int64) error {
	if part == 0 {
		return nil
	}
	s.lockParts()
	defer s.pmu.Unlock()
	p := s.parts[part]
	if p == nil {
		return nil
	}
	if delta > 0 && p.QuotaBlocks != 0 && p.UsedBlocks+delta > p.QuotaBlocks {
		return fmt.Errorf("%w: need %d blocks, %d of %d used",
			ErrQuota, delta, p.UsedBlocks, p.QuotaBlocks)
	}
	p.UsedBlocks += delta
	return nil
}

// settleBlocks adjusts part's usage with no admission check.
func (s *Store) settleBlocks(part uint16, delta int64) {
	if part == 0 {
		return
	}
	s.lockParts()
	defer s.pmu.Unlock()
	if p := s.parts[part]; p != nil {
		p.UsedBlocks += delta
	}
}

// quotaed reports whether part currently enforces a quota.
func (s *Store) quotaed(part uint16) bool {
	s.lockParts()
	defer s.pmu.Unlock()
	p := s.parts[part]
	return p != nil && p.QuotaBlocks != 0
}

// --- Partition management ----------------------------------------------

// CreatePartition creates partition id with a quota of quotaBlocks
// blocks (0 = unlimited) on the store's default backend. Partition 0 is
// reserved for the drive.
func (s *Store) CreatePartition(id uint16, quotaBlocks int64) error {
	return s.CreatePartitionBackend(id, quotaBlocks, s.cfg.DefaultBackend)
}

// CreatePartitionBackend creates partition id served by the named
// storage engine. The choice is persisted in the control object's
// partition table and is fixed for the partition's lifetime.
func (s *Store) CreatePartitionBackend(id uint16, quotaBlocks int64, kind BackendKind) error {
	if id == 0 {
		return fmt.Errorf("object: partition 0 is reserved")
	}
	switch kind {
	case BackendClassic:
		s.lockParts()
		defer s.pmu.Unlock()
		if _, ok := s.parts[id]; ok {
			return ErrPartitionExists
		}
		s.parts[id] = &Partition{ID: id, QuotaBlocks: quotaBlocks}
		if err := s.savePartitionsLocked(); err != nil {
			delete(s.parts, id)
			return err
		}
		return nil
	case BackendNeedle:
		return s.createNeedlePartition(id, quotaBlocks)
	default:
		return fmt.Errorf("object: unknown backend %v", kind)
	}
}

func (s *Store) createNeedlePartition(id uint16, quotaBlocks int64) error {
	// The log's metadata (segment table, index snapshot) lives in two
	// classic partition-0 raw objects; allocate them before taking pmu.
	segsID, err := s.classic.createRaw()
	if err != nil {
		return err
	}
	idxID, err := s.classic.createRaw()
	if err != nil {
		_ = s.classic.removeRaw(segsID)
		return err
	}
	dropMeta := func() {
		_ = s.classic.removeRaw(segsID)
		_ = s.classic.removeRaw(idxID)
	}
	s.lockParts()
	if _, ok := s.parts[id]; ok {
		s.pmu.Unlock()
		dropMeta()
		return ErrPartitionExists
	}
	p := &Partition{
		ID: id, QuotaBlocks: quotaBlocks,
		Backend: BackendNeedle, metaSegs: segsID, metaIdx: idxID,
	}
	s.parts[id] = p
	if err := s.savePartitionsLocked(); err != nil {
		delete(s.parts, id)
		s.pmu.Unlock()
		dropMeta()
		return err
	}
	s.pmu.Unlock()
	// Initialize the log last: it persists its (empty) segment table
	// through the partition entry just created.
	if err := s.needle.createLog(id); err != nil {
		s.lockParts()
		delete(s.parts, id)
		_ = s.savePartitionsLocked()
		s.pmu.Unlock()
		dropMeta()
		return err
	}
	return nil
}

// ResizePartition changes a partition's quota. Shrinking below current
// usage fails.
func (s *Store) ResizePartition(id uint16, quotaBlocks int64) error {
	s.lockParts()
	defer s.pmu.Unlock()
	p, ok := s.parts[id]
	if !ok {
		return ErrNoPartition
	}
	if quotaBlocks != 0 && quotaBlocks < p.UsedBlocks {
		return fmt.Errorf("%w: quota %d below usage %d", ErrQuota, quotaBlocks, p.UsedBlocks)
	}
	prev := p.QuotaBlocks
	p.QuotaBlocks = quotaBlocks
	if err := s.savePartitionsLocked(); err != nil {
		p.QuotaBlocks = prev
		return err
	}
	return nil
}

// RemovePartition deletes an empty partition. For needle partitions the
// log's segments and metadata objects are released.
func (s *Store) RemovePartition(id uint16) error {
	s.lockParts()
	p, ok := s.parts[id]
	if !ok {
		s.pmu.Unlock()
		return ErrNoPartition
	}
	if p.ObjectCount > 0 {
		s.pmu.Unlock()
		return ErrPartitionBusy
	}
	delete(s.parts, id)
	if err := s.savePartitionsLocked(); err != nil {
		s.parts[id] = p
		s.pmu.Unlock()
		return err
	}
	s.pmu.Unlock()
	if p.Backend == BackendNeedle {
		// The entry is already gone, so new operations fail with
		// ErrNoPartition while the log's space is reclaimed.
		if err := s.needle.dropLog(id); err != nil {
			return err
		}
		if err := s.classic.removeRaw(p.metaSegs); err != nil {
			return err
		}
		if err := s.classic.removeRaw(p.metaIdx); err != nil {
			return err
		}
	}
	return nil
}

// GetPartition returns a snapshot of partition id.
func (s *Store) GetPartition(id uint16) (Partition, error) {
	s.lockParts()
	defer s.pmu.Unlock()
	p, ok := s.parts[id]
	if !ok {
		return Partition{}, ErrNoPartition
	}
	return *p, nil
}

// Partitions returns snapshots of every partition, unordered.
func (s *Store) Partitions() []Partition {
	s.lockParts()
	defer s.pmu.Unlock()
	out := make([]Partition, 0, len(s.parts))
	for _, p := range s.parts {
		out = append(out, *p)
	}
	return out
}

// --- Object lifecycle ---------------------------------------------------

// Create allocates a new object in partition part and returns its ID.
// IDs come from the volume-wide counter in the classic superblock, so
// they are unique across partitions and backends.
func (s *Store) Create(part uint16) (uint64, error) {
	be, err := s.backendFor(part)
	if err != nil {
		return 0, err
	}
	id := s.classic.lay.NextObjectID()
	if err := be.Create(part, id); err != nil {
		return 0, err
	}
	s.lockParts()
	p := s.parts[part]
	if p == nil {
		// The partition was removed while we were allocating; undo.
		s.pmu.Unlock()
		_, _ = be.Remove(part, id)
		return 0, ErrNoPartition
	}
	p.ObjectCount++
	// Classic partitions persist their accounting eagerly. Needle
	// partitions skip it — the log itself is the durable record and the
	// counts are re-derived at Open — which is what keeps a needle
	// create at zero metadata I/Os.
	if p.Backend == BackendClassic {
		if err := s.savePartitionsLocked(); err != nil {
			p.ObjectCount--
			s.pmu.Unlock()
			_, _ = be.Remove(part, id)
			return 0, err
		}
	}
	s.pmu.Unlock()
	return id, nil
}

// Remove deletes an object and releases its blocks.
func (s *Store) Remove(part uint16, obj uint64) error {
	be, err := s.backendFor(part)
	if err != nil {
		return err
	}
	k := objKey{part, obj}
	l := s.locks.acquire(k, true)
	l.seq.drain() // the blocks it frees leave the cache after their last fill
	freed, err := be.Remove(part, obj)
	if err == nil {
		s.lockParts()
		if p := s.parts[part]; p != nil {
			p.ObjectCount--
			p.UsedBlocks -= freed
			if p.Backend == BackendClassic {
				err = s.savePartitionsLocked()
			}
		}
		s.pmu.Unlock()
	}
	// Purge the lock entry (and its readahead state) on success or when
	// the object never existed.
	s.locks.release(k, l, true, err == nil || notFound(err))
	return err
}

// List returns the IDs of all objects in a partition — the contents of
// the partition's well-known object-list object.
func (s *Store) List(part uint16) ([]uint64, error) {
	be, err := s.backendFor(part)
	if err != nil {
		return nil, err
	}
	return be.List(part)
}

// --- Attributes ----------------------------------------------------------

// GetAttr returns an object's attributes.
func (s *Store) GetAttr(part uint16, obj uint64) (Attributes, error) {
	be, err := s.backendFor(part)
	if err != nil {
		return Attributes{}, err
	}
	k := objKey{part, obj}
	l := s.locks.acquire(k, false)
	a, err := be.GetAttr(part, obj)
	s.locks.release(k, l, false, notFound(err))
	return a, err
}

// SetAttr updates the attributes selected by mask. Setting SetVersion
// changes the logical version number, immediately revoking capabilities
// minted against the old version (Section 4.1). Setting SetSize
// truncates or extends the object.
func (s *Store) SetAttr(part uint16, obj uint64, a Attributes, mask SetAttrMask) error {
	be, err := s.backendFor(part)
	if err != nil {
		return err
	}
	k := objKey{part, obj}
	l := s.locks.acquire(k, true)
	if mask&SetSize != 0 {
		l.seq.drain() // as in Remove: a truncate frees blocks
	}
	err = be.SetAttr(part, obj, a, mask)
	s.locks.release(k, l, true, notFound(err))
	return err
}

// BumpVersion increments an object's logical version number and returns
// the new value. This is the capability-revocation primitive: all
// capabilities minted against the old version stop validating.
func (s *Store) BumpVersion(part uint16, obj uint64) (uint64, error) {
	be, err := s.backendFor(part)
	if err != nil {
		return 0, err
	}
	k := objKey{part, obj}
	l := s.locks.acquire(k, true)
	var v uint64
	a, err := be.GetAttr(part, obj)
	if err == nil {
		a.Version++
		v = a.Version
		err = be.SetAttr(part, obj, a, SetVersion)
	}
	s.locks.release(k, l, true, notFound(err))
	if err != nil {
		return 0, err
	}
	return v, nil
}

// --- Data access ---------------------------------------------------------

// Read returns up to n bytes of object data starting at off, clipped to
// the object size. Readers of the same object share its lock, so
// concurrent reads overlap; reads of distinct objects proceed fully
// independently.
func (s *Store) Read(part uint16, obj uint64, off uint64, n int) ([]byte, error) {
	if n < 0 {
		return nil, ErrBadRange
	}
	be, err := s.backendFor(part)
	if err != nil {
		return nil, err
	}
	k := objKey{part, obj}
	l := s.locks.acquire(k, false)
	data, err := be.Read(part, obj, off, n, &l.seq)
	s.locks.release(k, l, false, notFound(err))
	return data, err
}

// Write stores data at off, extending the object as needed and charging
// the partition quota. Writers of distinct objects proceed in parallel.
func (s *Store) Write(part uint16, obj uint64, off uint64, data []byte) error {
	be, err := s.backendFor(part)
	if err != nil {
		return err
	}
	k := objKey{part, obj}
	l := s.locks.acquire(k, true)
	err = be.Write(part, obj, off, data)
	s.locks.release(k, l, true, notFound(err))
	return err
}

// VersionObject creates a copy-on-write version (snapshot) of an object
// and returns the new object's ID (the NASD interface's "construct a
// copy-on-write object version" request). Only the classic backend
// supports versions; needle partitions return ErrBackendMismatch.
func (s *Store) VersionObject(part uint16, obj uint64) (uint64, error) {
	be, err := s.backendFor(part)
	if err != nil {
		return 0, err
	}
	k := objKey{part, obj}
	l := s.locks.acquire(k, true)
	id, err := s.versionLocked(be, part, obj)
	s.locks.release(k, l, true, notFound(err))
	return id, err
}

func (s *Store) versionLocked(be StoreBackend, part uint16, obj uint64) (uint64, error) {
	fp, err := be.Charge(part, obj)
	if err != nil {
		return 0, err
	}
	// Reserve the clone's charge and count it up front (quota admission
	// must be atomic with the usage update).
	s.lockParts()
	p := s.parts[part]
	if p != nil {
		if p.QuotaBlocks != 0 && p.UsedBlocks+fp > p.QuotaBlocks {
			s.pmu.Unlock()
			return 0, ErrQuota
		}
		p.UsedBlocks += fp
		p.ObjectCount++
	}
	s.pmu.Unlock()
	id, err := be.VersionObject(part, obj)
	if err != nil {
		s.lockParts()
		if p := s.parts[part]; p != nil {
			p.UsedBlocks -= fp
			p.ObjectCount--
		}
		s.pmu.Unlock()
		return 0, err
	}
	if be.Kind() == BackendClassic {
		s.lockParts()
		err = s.savePartitionsLocked()
		s.pmu.Unlock()
		if err != nil {
			return 0, err
		}
	}
	return id, nil
}

// Flush forces write-behind data and metadata — including the partition
// table with its usage accounting and the needle engine's log tails and
// index snapshots — to the device. The needle engine flushes first: its
// metadata writes land in the classic cache, which is flushed after.
// With the cache drained, the object-layer intent records (partition
// table, segment tables) are marked applied so the journal checkpoint
// inside layout.Sync can discard them.
func (s *Store) Flush() error {
	if err := s.needle.Flush(); err != nil {
		return err
	}
	s.lockParts()
	err := s.savePartitionsLocked()
	s.pmu.Unlock()
	if err != nil {
		return err
	}
	if err := s.classic.Flush(); err != nil {
		return err
	}
	lay := s.classic.lay
	s.lockParts()
	if s.partsLSN != 0 {
		lay.JournalApplied(s.partsLSN)
		s.partsLSN = 0
	}
	for part, lsn := range s.segLSNs {
		lay.JournalApplied(lsn)
		delete(s.segLSNs, part)
	}
	s.pmu.Unlock()
	return lay.Sync()
}
