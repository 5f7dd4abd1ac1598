package cheops

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"sync"
	"time"

	"nasd/internal/bufpool"
	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/telemetry"
)

// Pattern selects the redundancy scheme of a logical object.
type Pattern uint8

// Supported layouts.
const (
	// Stripe0 is plain striping (RAID 0): maximum bandwidth, no
	// redundancy. The paper's Figure 9 experiments use this.
	Stripe0 Pattern = iota
	// Mirror1 replicates the object on every component (RAID 1).
	Mirror1
	// RAID5 rotates parity across components.
	RAID5
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Stripe0:
		return "stripe"
	case Mirror1:
		return "mirror"
	case RAID5:
		return "raid5"
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// Component names one component object of a logical object.
type Component struct {
	Drive   int // index into the manager's drive table
	DriveID uint64
	Object  uint64
}

// Descriptor is the layout of one logical object.
type Descriptor struct {
	Logical    uint64
	Pattern    Pattern
	StripeUnit int64
	Components []Component
	Size       uint64
}

// Width returns the number of components.
func (d *Descriptor) Width() int { return len(d.Components) }

// DataWidth returns the number of data-bearing lanes per stripe.
func (d *Descriptor) DataWidth() int {
	switch d.Pattern {
	case RAID5:
		return len(d.Components) - 1
	case Mirror1:
		return 1
	default:
		return len(d.Components)
	}
}

// Errors.
var (
	ErrNoObject  = errors.New("cheops: no such logical object")
	ErrBadLayout = errors.New("cheops: invalid layout")
	ErrDegraded  = errors.New("cheops: too many failed components")
	ErrLockHeld  = errors.New("cheops: stripe lock held")
	// ErrStaleLayout means the manager changed a logical object's
	// component layout (a repair) after this handle opened; the caller
	// must re-open the object to get the new layout and capabilities.
	ErrStaleLayout = errors.New("cheops: layout changed; re-open the logical object")
)

// DriveRef is one drive under Cheops management.
type DriveRef struct {
	Client  *client.Drive
	DriveID uint64
	Master  crypt.Key
}

// Manager is the Cheops storage manager: it owns layout mappings and
// trades logical capabilities for component capability sets. It may be
// co-located with a file manager.
type Manager struct {
	mu      sync.Mutex
	drives  []DriveRef
	keys    []*crypt.Hierarchy
	part    uint16
	expiry  time.Duration
	objects map[uint64]*Descriptor
	next    uint64
	dirObj  uint64 // directory object on drive 0 (persistence)
	locks   map[stripeKey]bool
	lockC   *sync.Cond
	tel     *cheopsTel
	spans   *telemetry.SpanLog

	health  []*breaker // per-drive circuit breakers, indexed like drives
	repairs map[repairKey]PendingRepair
	// degradedRead dedups degraded-read events per lane: the first
	// reconstruction-served read of a lane is an incident-worthy
	// transition, the thousands that follow are steady state the
	// cheops.degraded_reads counter already rates.
	degradedRead map[repairKey]bool
}

type stripeKey struct {
	logical uint64
	stripe  int64
}

// ManagerConfig configures a Cheops manager.
type ManagerConfig struct {
	Drives []DriveRef
	// Partition on each drive used for component objects (created by
	// Format).
	Partition uint16
	// CapExpiry bounds component capability lifetime.
	CapExpiry time.Duration
	// Metrics is the registry the manager (and objects opened through
	// it) publish "cheops.*" telemetry into; nil gets a private one.
	Metrics *telemetry.Registry
	// Spans is where objects opened through this manager record their
	// fan-out spans; nil uses the process-wide telemetry.ProcessSpans,
	// which keeps cheops legs in the same log as the client spans they
	// parent.
	Spans *telemetry.SpanLog
	// Events, when non-nil, receives the manager's structured events
	// (breaker transitions, degraded operations, stale markings,
	// repairs) instead of the process-wide telemetry.Events ring.
	Events *telemetry.EventLog
	// FailThreshold is how many consecutive leg failures trip a drive's
	// circuit breaker (default 3).
	FailThreshold int
	// BreakerCooldown is how long an open breaker refuses traffic
	// before admitting a half-open probe (default 1s).
	BreakerCooldown time.Duration
}

// NewManager builds a manager. With format true it creates its
// partition on every drive plus the directory object that persists
// layout mappings; with format false it mounts an existing Cheops
// deployment, recovering every logical object from the directory.
// Partition creation fans out to all drives concurrently.
func NewManager(ctx context.Context, cfg ManagerConfig, format bool) (*Manager, error) {
	if len(cfg.Drives) == 0 {
		return nil, errors.New("cheops: no drives")
	}
	if cfg.Partition == 0 {
		cfg.Partition = 2
	}
	if cfg.CapExpiry == 0 {
		cfg.CapExpiry = 10 * time.Minute
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	m := &Manager{
		drives:       cfg.Drives,
		part:         cfg.Partition,
		expiry:       cfg.CapExpiry,
		objects:      make(map[uint64]*Descriptor),
		next:         1,
		locks:        make(map[stripeKey]bool),
		tel:          newCheopsTel(cfg.Metrics, cfg.Events),
		spans:        cfg.Spans,
		repairs:      make(map[repairKey]PendingRepair),
		degradedRead: make(map[repairKey]bool),
	}
	if m.spans == nil {
		m.spans = telemetry.ProcessSpans
	}
	m.lockC = sync.NewCond(&m.mu)
	for i := range cfg.Drives {
		m.health = append(m.health, newBreaker(i, cfg.FailThreshold, cfg.BreakerCooldown, time.Now, m.tel))
		i := i
		m.tel.reg.Func(fmt.Sprintf("cheops.drive.%d.breaker", i), func() int64 {
			return int64(m.health[i].State())
		})
	}
	m.tel.reg.Func("cheops.pending_repairs", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(len(m.repairs))
	})
	for _, d := range cfg.Drives {
		keys := crypt.NewHierarchy(d.Master)
		if err := keys.AddPartition(m.part); err != nil {
			return nil, err
		}
		m.keys = append(m.keys, keys)
	}
	if format {
		if err := eachDrive(len(m.drives), func(i int) error {
			d := m.drives[i]
			if err := d.Client.CreatePartition(ctx, crypt.KeyID{Type: crypt.MasterKey}, d.Master, m.part, 0); err != nil {
				return fmt.Errorf("cheops: partition on drive %d: %w", d.DriveID, err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if err := m.initDirectory(ctx); err != nil {
			return nil, err
		}
	} else {
		if err := m.loadDirectory(ctx); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// eachDrive runs fn(i) for i in [0, n) concurrently — the manager-side
// fan-out that keeps multi-drive control operations from paying one
// round trip per drive — and returns the first error.
func eachDrive(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return firstError(errs)
}

// xorSurvivors rebuilds a range of component skip of a RAID-5 stripe
// into dst as the xor of the same range of every other component, each
// read concurrently through read, which fills the pooled buffer it is
// handed (zeros where its component ends short).
func xorSurvivors(width, skip int, dst []byte, read func(i int, buf []byte) error) error {
	parts := make([][]byte, width)
	for i := range parts {
		if i != skip {
			parts[i] = bufpool.Get(len(dst))
			defer bufpool.Put(parts[i])
		}
	}
	if err := eachDrive(width, func(i int) error {
		if i == skip {
			return nil
		}
		return read(i, parts[i])
	}); err != nil {
		return err
	}
	clear(dst)
	for _, p := range parts {
		subtle.XORBytes(dst, dst, p)
	}
	return nil
}

// Partition returns the partition Cheops uses on each drive.
func (m *Manager) Partition() uint16 { return m.part }

// Create allocates a logical object striped over width drives starting
// at drive index startDrive (round-robin placement across calls is the
// caller's choice). Component creation fans out to all target drives
// concurrently.
func (m *Manager) Create(ctx context.Context, pattern Pattern, stripeUnit int64, width int, startDrive int) (uint64, error) {
	if stripeUnit <= 0 || width < 1 || width > len(m.drives) {
		return 0, ErrBadLayout
	}
	if pattern == RAID5 && width < 3 {
		return 0, fmt.Errorf("%w: RAID5 needs >= 3 components", ErrBadLayout)
	}
	comps := make([]Component, width)
	if err := eachDrive(width, func(i int) error {
		di := (startDrive + i) % len(m.drives)
		cap := m.mintWildcard(di, capability.CreateObj)
		obj, err := m.drives[di].Client.Create(ctx, &cap, m.part)
		if err != nil {
			return fmt.Errorf("cheops: creating component on drive %d: %w", di, err)
		}
		comps[i] = Component{Drive: di, DriveID: m.drives[di].DriveID, Object: obj}
		return nil
	}); err != nil {
		return 0, err
	}
	m.mu.Lock()
	id := m.next
	m.next++
	m.objects[id] = &Descriptor{
		Logical: id, Pattern: pattern, StripeUnit: stripeUnit, Components: comps,
	}
	m.mu.Unlock()
	if err := m.save(ctx); err != nil {
		// Roll back: an unpersisted descriptor must not stay visible, or
		// a manager restart would silently lose an object the caller was
		// told exists. Component objects are removed best-effort; a
		// failure there only leaves unreferenced objects on the drives.
		m.mu.Lock()
		delete(m.objects, id)
		m.mu.Unlock()
		_ = eachDrive(width, func(i int) error {
			cap := m.mintWildcard(comps[i].Drive, capability.Remove)
			return m.drives[comps[i].Drive].Client.Remove(ctx, &cap, m.part, comps[i].Object)
		})
		return 0, err
	}
	return id, nil
}

// Open returns the descriptor and the set of component capabilities —
// the capability exchange of Section 5.2 ("this costs an additional
// control message but once equipped with these capabilities, clients
// again access storage objects directly").
func (m *Manager) Open(logical uint64, rights capability.Rights) (Descriptor, []capability.Capability, error) {
	d, err := m.Stat(logical)
	if err != nil {
		return Descriptor{}, nil, err
	}
	caps := make([]capability.Capability, len(d.Components))
	for i, comp := range d.Components {
		kid, key, err := m.keys[comp.Drive].CurrentWorkingKey(m.part)
		if err != nil {
			return Descriptor{}, nil, err
		}
		pub := capability.Public{
			DriveID:   comp.DriveID,
			Partition: m.part,
			Object:    comp.Object,
			ObjVer:    1,
			Rights:    rights | capability.GetAttr,
			Expiry:    time.Now().Add(m.expiry).UnixNano(),
			Key:       kid,
		}
		caps[i] = capability.Mint(pub, key)
	}
	return d, caps, nil
}

// Remove deletes a logical object and its components, issuing the
// per-drive removals concurrently.
func (m *Manager) Remove(ctx context.Context, logical uint64) error {
	m.mu.Lock()
	desc, ok := m.objects[logical]
	if !ok {
		m.mu.Unlock()
		return ErrNoObject
	}
	delete(m.objects, logical)
	m.mu.Unlock()
	if err := m.save(ctx); err != nil {
		// Roll back: the persisted table still names the object, so keep
		// the in-memory descriptor (and the components) consistent with
		// it rather than destroying components the table references.
		m.mu.Lock()
		m.objects[logical] = desc
		m.mu.Unlock()
		return err
	}
	return eachDrive(len(desc.Components), func(i int) error {
		comp := desc.Components[i]
		cap := m.mintWildcard(comp.Drive, capability.Remove)
		return m.drives[comp.Drive].Client.Remove(ctx, &cap, m.part, comp.Object)
	})
}

// UpdateSize records a logical object's new size (a control message
// clients send after extending writes).
func (m *Manager) UpdateSize(ctx context.Context, logical uint64, size uint64) error {
	m.mu.Lock()
	desc, ok := m.objects[logical]
	if !ok {
		m.mu.Unlock()
		return ErrNoObject
	}
	changed := size > desc.Size
	if changed {
		desc.Size = size
	}
	m.mu.Unlock()
	if changed {
		return m.save(ctx)
	}
	return nil
}

// Stat returns a copy of the descriptor.
func (m *Manager) Stat(logical uint64) (Descriptor, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	desc, ok := m.objects[logical]
	if !ok {
		return Descriptor{}, ErrNoObject
	}
	d := *desc
	d.Components = append([]Component(nil), desc.Components...)
	return d, nil
}

// LockStripe serializes read-modify-write parity updates on one stripe
// (the manager "supports concurrency control for multi-disk accesses").
// It blocks until the lock is granted.
func (m *Manager) LockStripe(logical uint64, stripe int64) {
	k := stripeKey{logical, stripe}
	m.mu.Lock()
	for m.locks[k] {
		m.lockC.Wait()
	}
	m.locks[k] = true
	m.mu.Unlock()
}

// UnlockStripe releases a stripe lock.
func (m *Manager) UnlockStripe(logical uint64, stripe int64) {
	k := stripeKey{logical, stripe}
	m.mu.Lock()
	delete(m.locks, k)
	m.lockC.Broadcast()
	m.mu.Unlock()
}

// mintWildcard issues a partition-scope capability for manager-internal
// operations on a drive.
func (m *Manager) mintWildcard(driveIdx int, rights capability.Rights) capability.Capability {
	kid, key, err := m.keys[driveIdx].CurrentWorkingKey(m.part)
	if err != nil {
		panic("cheops: no partition key: " + err.Error())
	}
	pub := capability.Public{
		DriveID:   m.drives[driveIdx].DriveID,
		Partition: m.part,
		Rights:    rights,
		Expiry:    time.Now().Add(m.expiry).UnixNano(),
		Key:       kid,
	}
	return capability.Mint(pub, key)
}

// ReplaceComponent swaps a failed component for a fresh object on
// another drive and reconstructs its contents from the survivors
// (mirror copy or RAID5 xor). The logical object must be redundant.
// Survivor reads within each reconstruction chunk fan out to all
// drives concurrently.
func (m *Manager) ReplaceComponent(ctx context.Context, logical uint64, failedIdx int, newDrive int) error {
	d, err := m.Stat(logical)
	if err != nil {
		return err
	}
	if failedIdx < 0 || failedIdx >= len(d.Components) {
		return ErrBadLayout
	}
	if d.Pattern == Stripe0 {
		return fmt.Errorf("%w: stripe0 has no redundancy", ErrDegraded)
	}
	m.tel.reconstructions.Inc()

	// Create the replacement object.
	cc := m.mintWildcard(newDrive, capability.CreateObj)
	newObj, err := m.drives[newDrive].Client.Create(ctx, &cc, m.part)
	if err != nil {
		return err
	}
	repl := Component{Drive: newDrive, DriveID: m.drives[newDrive].DriveID, Object: newObj}

	// Reconstruct contents component-offset by component-offset.
	length, err := m.componentLength(&d, failedIdx)
	if err != nil {
		return err
	}
	const chunk = 1 << 16
	wc := m.mintWildcard(newDrive, capability.Write)
	buf := bufpool.Get(chunk) // every chunk is rebuilt here, then written out
	defer bufpool.Put(buf)
	for off := uint64(0); off < length; off += chunk {
		data := buf[:min(chunk, length-off)]
		switch d.Pattern {
		case Mirror1:
			// Source from a clean replica: a suspect mirror holds
			// stale data a degraded write skipped.
			src := -1
			for i := range d.Components {
				if i != failedIdx && !m.componentSuspect(logical, i) {
					src = i
					break
				}
			}
			if src < 0 {
				return fmt.Errorf("%w: no clean mirror to rebuild from", ErrDegraded)
			}
			rc := m.mintWildcard(d.Components[src].Drive, capability.Read)
			n, err := m.drives[d.Components[src].Drive].Client.ReadInto(ctx, &rc, m.part, d.Components[src].Object, off, data)
			if err != nil {
				return err
			}
			data = data[:n]
		case RAID5:
			if err := xorSurvivors(len(d.Components), failedIdx, data, func(i int, part []byte) error {
				if m.componentSuspect(logical, i) {
					// Two stale lanes cannot be disentangled by xor.
					return fmt.Errorf("%w: survivor %d also awaits repair", ErrDegraded, i)
				}
				comp := d.Components[i]
				rc := m.mintWildcard(comp.Drive, capability.Read)
				n, err := m.drives[comp.Drive].Client.ReadInto(ctx, &rc, m.part, comp.Object, off, part)
				clear(part[n:])
				return err
			}); err != nil {
				return err
			}
		}
		if len(data) == 0 {
			break
		}
		if err := m.drives[newDrive].Client.Write(ctx, &wc, m.part, newObj, off, data); err != nil {
			return err
		}
	}

	m.mu.Lock()
	desc, ok := m.objects[logical]
	if !ok {
		m.mu.Unlock()
		return ErrNoObject
	}
	prev := desc.Components[failedIdx]
	desc.Components[failedIdx] = repl
	m.mu.Unlock()
	if err := m.save(ctx); err != nil {
		// Roll back the swap: the persisted table still points at the
		// old component, so the in-memory descriptor must too. The
		// reconstructed replacement is removed best-effort.
		m.mu.Lock()
		if desc, ok := m.objects[logical]; ok {
			desc.Components[failedIdx] = prev
		}
		m.mu.Unlock()
		rc := m.mintWildcard(newDrive, capability.Remove)
		_ = m.drives[newDrive].Client.Remove(ctx, &rc, m.part, newObj)
		return err
	}
	// The lane is fully redundant again: reads may go direct.
	m.clearRepair(logical, failedIdx)
	m.tel.events.Emitf(telemetry.SevInfo, "cheops", "repair",
		"logical=%d comp=%d rebuilt on drive %d", logical, failedIdx, newDrive)
	return nil
}

// componentLength computes how many bytes component idx must hold given
// the logical size.
func (m *Manager) componentLength(d *Descriptor, idx int) (uint64, error) {
	switch d.Pattern {
	case Mirror1:
		return d.Size, nil
	case RAID5, Stripe0:
		// Upper bound: ceil(size / dataWidth) rounded up to a stripe unit.
		dw := uint64(d.DataWidth())
		if dw == 0 {
			return 0, ErrBadLayout
		}
		perLane := (d.Size + dw - 1) / dw
		unit := uint64(d.StripeUnit)
		return (perLane + unit - 1) / unit * unit, nil
	}
	return 0, ErrBadLayout
}
