// Package nasdafs is the paper's AFS port to NASD (Section 5.1).
//
// AFS differs from NFS in three ways the port must preserve:
//
//   - Clients cache whole files and are notified by callbacks when a
//     cached copy may be stale. Because the file manager "no longer
//     knows that a write operation arrived at a drive", callbacks are
//     broken as soon as a write capability is *issued*, and issuing new
//     callbacks on a file with an outstanding write capability is
//     blocked until the capability is relinquished or expires.
//   - Capabilities are acquired and relinquished by explicit RPCs (AFS
//     clients parse directories locally, so there is no lookup to
//     piggyback on).
//   - Per-volume quota is enforced by the file manager even though it
//     no longer sees writes: write capabilities escrow space via their
//     byte-range restriction, and the file manager settles the quota by
//     examining the object's size when the capability is relinquished.
package nasdafs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/filemgr"
	"nasd/internal/object"
)

func objectAttrsWithSize(size uint64) object.Attributes {
	return object.Attributes{Size: size}
}

func objectSetSizeMask() object.SetAttrMask { return object.SetSize }

// Errors.
var (
	// ErrWriteLocked means a write capability is outstanding and new
	// callbacks are blocked; retry after the writer relinquishes.
	ErrWriteLocked = errors.New("nasdafs: write capability outstanding")
	// ErrQuota means the volume quota cannot cover the requested escrow.
	ErrQuota = errors.New("nasdafs: volume quota exceeded")
)

// CallbackReceiver is notified when a cached copy may go stale. The
// in-process Client implements it directly; afsrpc delivers breaks to
// remote receivers over their callback channel.
type CallbackReceiver interface {
	BreakCallback(path string)
}

// ManagerAPI is the protocol between AFS clients and the AFS manager.
// *Manager implements it in-process; afsrpc.Client implements it across
// the network.
type ManagerAPI interface {
	AcquireRead(ctx context.Context, rcv CallbackReceiver, id filemgr.Identity, path string) (filemgr.Handle, capability.Capability, error)
	TryAcquireRead(ctx context.Context, rcv CallbackReceiver, id filemgr.Identity, path string) (filemgr.Handle, capability.Capability, error)
	AcquireWrite(ctx context.Context, rcv CallbackReceiver, id filemgr.Identity, path string, escrowLen uint64) (filemgr.Handle, capability.Capability, error)
	Relinquish(ctx context.Context, rcv CallbackReceiver, path string) error
	Truncate(ctx context.Context, h filemgr.Handle, size uint64) error
	CreateFile(ctx context.Context, id filemgr.Identity, path string, mode uint32) error
}

// Manager is the AFS file manager personality: the filemgr plus
// callback and escrow state. It holds its own drive connections for
// attribute reads and truncation (it must not depend on any client's
// connectivity).
type Manager struct {
	fm     *filemgr.FM
	drives []*client.Drive
	quota  uint64 // volume quota in bytes (0 = unlimited)

	mu        sync.Mutex
	cond      *sync.Cond
	callbacks map[string]map[CallbackReceiver]bool
	writes    map[string]*escrowState
	used      uint64 // settled volume usage in bytes
	escrowed  uint64 // outstanding escrow beyond settled usage
	clock     func() time.Time
}

type escrowState struct {
	holder   CallbackReceiver
	handle   filemgr.Handle
	prevSize uint64
	escrow   uint64 // escrowed object length (capability range end)
	expiry   time.Time
}

// NewManager wraps fm with AFS semantics. quotaBytes bounds the volume
// (0 = unlimited). drives are the manager's own connections, indexed
// like fm's drive table.
func NewManager(fm *filemgr.FM, quotaBytes uint64, drives []*client.Drive) *Manager {
	m := &Manager{
		fm:        fm,
		drives:    drives,
		quota:     quotaBytes,
		callbacks: make(map[string]map[CallbackReceiver]bool),
		writes:    make(map[string]*escrowState),
		clock:     time.Now,
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// VolumeUsed returns the settled volume usage in bytes.
func (m *Manager) VolumeUsed() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// expireStale clears an outstanding write whose capability expired; the
// expiry bound is what keeps callback waiting finite ("expiration times
// set by the file manager in every capability ... allow file managers
// to bound the waiting time for a callback"). Caller holds mu.
func (m *Manager) expireStale(ctx context.Context, path string) {
	es, ok := m.writes[path]
	if ok && m.clock().After(es.expiry) {
		m.settleLocked(ctx, path, es)
	}
}

// settleLocked finalizes an outstanding write: reads the object's real
// size and charges the quota. Caller holds mu.
func (m *Manager) settleLocked(ctx context.Context, path string, es *escrowState) {
	delete(m.writes, path)
	m.escrowed -= es.escrow - es.prevSize
	attrs, err := m.driveGetAttr(ctx, es.handle)
	if err == nil {
		if attrs.Size >= es.prevSize {
			m.used += attrs.Size - es.prevSize
		} else {
			m.used -= es.prevSize - attrs.Size
		}
	}
	m.cond.Broadcast()
}

// AcquireRead issues a read capability for path to c and registers a
// callback promise: c will be notified before the file can change.
// It blocks while a write capability is outstanding.
func (m *Manager) AcquireRead(ctx context.Context, rcv CallbackReceiver, id filemgr.Identity, path string) (filemgr.Handle, capability.Capability, error) {
	m.mu.Lock()
	for {
		m.expireStale(ctx, path)
		if _, busy := m.writes[path]; !busy {
			break
		}
		m.cond.Wait()
	}
	m.mu.Unlock()

	h, _, cap, err := m.fm.Lookup(ctx, id, path, capability.Read|capability.GetAttr)
	if err != nil {
		return filemgr.Handle{}, capability.Capability{}, err
	}
	m.mu.Lock()
	if m.callbacks[path] == nil {
		m.callbacks[path] = make(map[CallbackReceiver]bool)
	}
	m.callbacks[path][rcv] = true
	m.mu.Unlock()
	return h, cap, nil
}

// TryAcquireRead is AcquireRead without blocking: it returns
// ErrWriteLocked when a write capability is outstanding.
func (m *Manager) TryAcquireRead(ctx context.Context, rcv CallbackReceiver, id filemgr.Identity, path string) (filemgr.Handle, capability.Capability, error) {
	m.mu.Lock()
	m.expireStale(ctx, path)
	if _, busy := m.writes[path]; busy {
		m.mu.Unlock()
		return filemgr.Handle{}, capability.Capability{}, ErrWriteLocked
	}
	m.mu.Unlock()
	return m.AcquireRead(ctx, rcv, id, path)
}

// AcquireWrite issues a write capability escrowing room for the file to
// grow to escrowLen bytes. Callbacks on the file are broken first
// (sequential consistency: holders of potentially stale copies are
// notified as soon as a write *may* occur).
func (m *Manager) AcquireWrite(ctx context.Context, rcv CallbackReceiver, id filemgr.Identity, path string, escrowLen uint64) (filemgr.Handle, capability.Capability, error) {
	h, info, _, err := m.fm.Lookup(ctx, id, path, capability.Write)
	if err != nil {
		return filemgr.Handle{}, capability.Capability{}, err
	}
	if escrowLen < info.Size {
		escrowLen = info.Size
	}

	m.mu.Lock()
	m.expireStale(ctx, path)
	if es, busy := m.writes[path]; busy && es.holder != rcv {
		m.mu.Unlock()
		return filemgr.Handle{}, capability.Capability{}, ErrWriteLocked
	}
	if m.quota != 0 {
		grow := escrowLen - info.Size
		if m.used+m.escrowed+grow > m.quota {
			m.mu.Unlock()
			return filemgr.Handle{}, capability.Capability{}, fmt.Errorf("%w: need %d, used %d + escrowed %d of %d",
				ErrQuota, grow, m.used, m.escrowed, m.quota)
		}
	}
	// Break callbacks on everyone but the writer.
	holders := m.callbacks[path]
	delete(m.callbacks, path)
	expiry := m.clock().Add(m.capExpiry())
	m.writes[path] = &escrowState{holder: rcv, handle: h, prevSize: info.Size, escrow: escrowLen, expiry: expiry}
	m.escrowed += escrowLen - info.Size
	m.mu.Unlock()

	for holder := range holders {
		if holder != rcv {
			holder.BreakCallback(path)
		}
	}

	// The capability's byte range is the escrow: the drive enforces that
	// the file cannot grow beyond it.
	cap, err := m.fm.MintRange(h, m.currentVersion(ctx, h), capability.Write|capability.GetAttr, 0, escrowLen)
	if err != nil {
		return filemgr.Handle{}, capability.Capability{}, err
	}
	return h, cap, nil
}

func (m *Manager) capExpiry() time.Duration { return 5 * time.Minute }

func (m *Manager) currentVersion(ctx context.Context, h filemgr.Handle) uint64 {
	attrs, err := m.driveGetAttr(ctx, h)
	if err != nil {
		return 1
	}
	return attrs.Version
}

// driveGetAttr reads size and version through the manager's own drive
// connections (partition-scope capability: the current version is what
// we are fetching).
func (m *Manager) driveGetAttr(ctx context.Context, h filemgr.Handle) (attrs struct {
	Size    uint64
	Version uint64
}, err error) {
	cap := m.fm.MintWildcard(h.Drive, capability.GetAttr)
	a, err := m.drives[h.Drive].GetAttr(ctx, &cap, h.Partition, h.Object)
	if err != nil {
		return attrs, err
	}
	attrs.Size = a.Size
	attrs.Version = a.Version
	return attrs, nil
}

// CreateFile makes a file through the underlying file manager.
func (m *Manager) CreateFile(ctx context.Context, id filemgr.Identity, path string, mode uint32) error {
	_, _, err := m.fm.Create(ctx, id, path, mode)
	return err
}

// Relinquish returns a write capability. The manager examines the
// object to settle the volume quota (Section 5.1: "the file manager
// can examine the object to determine its new size and update the
// quota data structures appropriately").
func (m *Manager) Relinquish(ctx context.Context, rcv CallbackReceiver, path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	es, ok := m.writes[path]
	if !ok || es.holder != rcv {
		return fmt.Errorf("nasdafs: no outstanding write capability for %s", path)
	}
	m.settleLocked(ctx, path, es)
	return nil
}

// Truncate shrinks (or extends) an object on a client's behalf during
// StoreData. The manager uses its own authority: size is policy.
func (m *Manager) Truncate(ctx context.Context, h filemgr.Handle, size uint64) error {
	attrs, err := m.driveGetAttr(ctx, h)
	if err != nil {
		return err
	}
	if attrs.Size == size {
		return nil
	}
	cap := m.fm.MintWildcard(h.Drive, capability.SetAttr)
	return m.drives[h.Drive].SetAttr(ctx, &cap, h.Partition, h.Object,
		objectAttrsWithSize(size), objectSetSizeMask())
}

var _ ManagerAPI = (*Manager)(nil)

// CallbackHolders reports how many clients hold callbacks on path.
func (m *Manager) CallbackHolders(path string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.callbacks[path])
}

// Client is a whole-file-caching AFS client. It works identically
// against an in-process *Manager or a remote afsrpc.Client.
type Client struct {
	mgr    ManagerAPI
	id     filemgr.Identity
	drives []*client.Drive

	mu     sync.Mutex
	cache  map[string][]byte
	valid  map[string]bool
	breaks int
}

// NewClient creates an AFS client for identity id. drives must be
// indexed like the file manager's drive table.
func NewClient(mgr ManagerAPI, drives []*client.Drive, id filemgr.Identity) *Client {
	return &Client{
		mgr:    mgr,
		id:     id,
		drives: drives,
		cache:  make(map[string][]byte),
		valid:  make(map[string]bool),
	}
}

// BreakCallback is invoked by the manager when a cached copy may go
// stale. It implements CallbackReceiver.
func (c *Client) BreakCallback(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.valid[path] = false
	c.breaks++
}

// CallbackBreaks counts callbacks this client has received.
func (c *Client) CallbackBreaks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breaks
}

// Cached reports whether path is validly cached.
func (c *Client) Cached(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.valid[path]
}

// FetchData returns the file's contents, serving from the local cache
// when the callback promise is intact (the AFS fast path) and fetching
// whole-file from the drive otherwise.
func (c *Client) FetchData(ctx context.Context, path string) ([]byte, error) {
	c.mu.Lock()
	if c.valid[path] {
		data := c.cache[path]
		c.mu.Unlock()
		return data, nil
	}
	c.mu.Unlock()

	h, cap, err := c.mgr.AcquireRead(ctx, c, c.id, path)
	if err != nil {
		return nil, err
	}
	attrs, err := c.drives[h.Drive].GetAttr(ctx, &cap, h.Partition, h.Object)
	if err != nil {
		return nil, err
	}
	data, err := c.drives[h.Drive].Read(ctx, &cap, h.Partition, h.Object, 0, int(attrs.Size))
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.cache[path] = data
	c.valid[path] = true
	c.mu.Unlock()
	return data, nil
}

// StoreData replaces the file's contents: acquire a write capability
// (breaking other clients' callbacks), write drive-direct, relinquish.
func (c *Client) StoreData(ctx context.Context, path string, data []byte) error {
	h, cap, err := c.mgr.AcquireWrite(ctx, c, c.id, path, uint64(len(data)))
	if err != nil {
		return err
	}
	if err := c.drives[h.Drive].Write(ctx, &cap, h.Partition, h.Object, 0, data); err != nil {
		_ = c.mgr.Relinquish(ctx, c, path)
		return err
	}
	// AFS StoreData replaces the whole file: shrink through the manager
	// (truncation changes size, a policy-relevant attribute, so it is
	// not granted to plain write capabilities).
	if err := c.mgr.Truncate(ctx, h, uint64(len(data))); err != nil {
		_ = c.mgr.Relinquish(ctx, c, path)
		return err
	}
	c.mu.Lock()
	c.cache[path] = append([]byte(nil), data...)
	c.valid[path] = true
	c.mu.Unlock()
	return c.mgr.Relinquish(ctx, c, path)
}

// FetchStatus returns size and version drive-direct.
func (c *Client) FetchStatus(ctx context.Context, path string) (size uint64, err error) {
	h, cap, err := c.mgr.AcquireRead(ctx, c, c.id, path)
	if err != nil {
		return 0, err
	}
	a, err := c.drives[h.Drive].GetAttr(ctx, &cap, h.Partition, h.Object)
	if err != nil {
		return 0, err
	}
	return a.Size, nil
}

// Create makes a file through the file manager.
func (c *Client) Create(ctx context.Context, path string, mode uint32) error {
	return c.mgr.CreateFile(ctx, c.id, path, mode)
}
