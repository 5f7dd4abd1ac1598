// Package filemgr implements a NASD file manager: the residual
// filesystem of Figure 1. It owns naming (a directory hierarchy stored
// in NASD objects), access control (owner/group/mode bits kept in each
// object's uninterpreted attribute block), and capability issuance and
// revocation. It is consulted on namespace and policy operations only —
// data moves directly between clients and drives, which is the entire
// point of the architecture ("asynchronous oversight").
package filemgr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/object"
	"nasd/internal/rpc"
)

// Identity names a caller for access control decisions.
type Identity struct {
	UID  uint32
	GIDs []uint32
}

// Root is the superuser.
var Root = Identity{UID: 0}

// InGroup reports whether the identity carries gid.
func (id Identity) InGroup(gid uint32) bool {
	for _, g := range id.GIDs {
		if g == gid {
			return true
		}
	}
	return false
}

// Mode bits (a classic UNIX subset).
const (
	ModeDir uint32 = 1 << 16
)

// Handle locates a file or directory: which drive, partition, object.
type Handle struct {
	Drive     int // index into the file manager's drive table
	DriveID   uint64
	Partition uint16
	Object    uint64
	IsDir     bool
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name   string
	Handle Handle
}

// FileInfo combines drive-maintained attributes with policy attributes
// the file manager keeps in the uninterpreted block (Section 5.1: file
// length and modify time come from NASD object attributes; owner and
// mode bits live in the uninterpreted attributes).
type FileInfo struct {
	Handle  Handle
	Size    uint64
	Mode    uint32
	UID     uint32
	GID     uint32
	ModTime time.Time
}

// Errors.
var (
	ErrNotFound = errors.New("filemgr: no such file or directory")
	ErrExists   = errors.New("filemgr: already exists")
	ErrNotDir   = errors.New("filemgr: not a directory")
	ErrIsDir    = errors.New("filemgr: is a directory")
	ErrPerm     = errors.New("filemgr: permission denied")
	ErrNotEmpty = errors.New("filemgr: directory not empty")
	ErrBadPath  = errors.New("filemgr: invalid path")
)

// DriveTarget is one drive under this file manager's management.
type DriveTarget struct {
	// Client is an authenticated connection to the drive.
	Client *client.Drive
	// DriveID is the drive's identity.
	DriveID uint64
	// Master is the shared master key; the file manager derives the
	// same hierarchy the drive holds.
	Master crypt.Key
}

// Config configures a file manager.
type Config struct {
	Drives []DriveTarget
	// Partition is the partition the filesystem occupies on each drive.
	Partition uint16
	// Quota is the per-drive partition quota in blocks (0 = unlimited).
	Quota int64
	// CapExpiry bounds capability lifetime (default 5 minutes; the
	// paper uses expiry to bound callback waiting in AFS).
	CapExpiry time.Duration
	// Clock for expiry stamping.
	Clock func() time.Time
}

type driveState struct {
	target DriveTarget
	keys   *crypt.Hierarchy
}

// FM is a file manager instance.
type FM struct {
	mu     sync.Mutex
	drives []*driveState
	part   uint16
	expiry time.Duration
	clock  func() time.Time
	root   Handle
	next   int // round-robin placement cursor
}

// rootObjectID is the well-known object holding the filesystem root
// directory on drive 0: the first user object created after format.
const rootObjectID = object.FirstUserObject

// Format initializes the filesystem: creates the partition on every
// drive and an empty root directory on drive 0.
func Format(ctx context.Context, cfg Config) (*FM, error) {
	fm, err := newFM(cfg)
	if err != nil {
		return nil, err
	}
	for i, d := range fm.drives {
		err := d.target.Client.CreatePartition(ctx, crypt.KeyID{Type: crypt.MasterKey}, d.target.Master, fm.part, cfg.Quota)
		if err != nil {
			return nil, fmt.Errorf("filemgr: creating partition on drive %d: %w", i, err)
		}
		if err := d.keys.AddPartition(fm.part); err != nil {
			return nil, err
		}
	}
	// Root directory on drive 0.
	cap := fm.mintPartition(0, capability.CreateObj)
	rootObj, err := fm.drives[0].target.Client.Create(ctx, &cap, fm.part)
	if err != nil {
		return nil, fmt.Errorf("filemgr: creating root: %w", err)
	}
	if rootObj != rootObjectID {
		return nil, fmt.Errorf("filemgr: root object id %d, want well-known %d", rootObj, rootObjectID)
	}
	fm.root = Handle{Drive: 0, DriveID: fm.drives[0].target.DriveID, Partition: fm.part, Object: rootObj, IsDir: true}
	// The fresh root is world-writable so any identity can build its
	// own subtree; administrators can Chmod it down afterwards.
	if err := fm.writePolicy(ctx, fm.root, ModeDir|0o777, 0, 0); err != nil {
		return nil, err
	}
	if err := fm.writeDir(ctx, fm.root, nil); err != nil {
		return nil, err
	}
	return fm, nil
}

// Mount attaches to an already-formatted filesystem.
func Mount(ctx context.Context, cfg Config) (*FM, error) {
	fm, err := newFM(cfg)
	if err != nil {
		return nil, err
	}
	for _, d := range fm.drives {
		if err := d.keys.AddPartition(fm.part); err != nil {
			return nil, err
		}
	}
	fm.root = Handle{Drive: 0, DriveID: fm.drives[0].target.DriveID, Partition: fm.part, Object: rootObjectID, IsDir: true}
	// Verify the root exists.
	if _, err := fm.getAttr(ctx, fm.root); err != nil {
		return nil, fmt.Errorf("filemgr: root directory missing: %w", err)
	}
	return fm, nil
}

func newFM(cfg Config) (*FM, error) {
	if len(cfg.Drives) == 0 {
		return nil, errors.New("filemgr: no drives")
	}
	if cfg.Partition == 0 {
		cfg.Partition = 1
	}
	if cfg.CapExpiry == 0 {
		cfg.CapExpiry = 5 * time.Minute
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	fm := &FM{part: cfg.Partition, expiry: cfg.CapExpiry, clock: cfg.Clock}
	for _, t := range cfg.Drives {
		fm.drives = append(fm.drives, &driveState{target: t, keys: crypt.NewHierarchy(t.Master)})
	}
	return fm, nil
}

// Root returns the root directory handle.
func (fm *FM) Root() Handle { return fm.root }

// --- capability minting ----------------------------------------------------

// Mint issues a capability for an object at its current version.
// This is the file manager's core privilege: it holds the drive keys.
func (fm *FM) Mint(h Handle, objVer uint64, rights capability.Rights) (capability.Capability, error) {
	d := fm.drives[h.Drive]
	kid, key, err := d.keys.CurrentWorkingKey(h.Partition)
	if err != nil {
		return capability.Capability{}, err
	}
	pub := capability.Public{
		DriveID:   h.DriveID,
		Partition: h.Partition,
		Object:    h.Object,
		ObjVer:    objVer,
		Rights:    rights,
		Expiry:    fm.clock().Add(fm.expiry).UnixNano(),
		Key:       kid,
	}
	return capability.Mint(pub, key), nil
}

// MintRange issues a byte-range-restricted capability (the quota-escrow
// primitive of Section 5.1's AFS port).
func (fm *FM) MintRange(h Handle, objVer uint64, rights capability.Rights, off, length uint64) (capability.Capability, error) {
	c, err := fm.Mint(h, objVer, rights)
	if err != nil {
		return c, err
	}
	d := fm.drives[h.Drive]
	_, key, err := d.keys.CurrentWorkingKey(h.Partition)
	if err != nil {
		return capability.Capability{}, err
	}
	pub := c.Public
	pub.Offset = off
	pub.Length = length
	return capability.Mint(pub, key), nil
}

// MintWildcard issues a partition-scope capability (Object 0) with the
// given rights for one drive. Such capabilities are not bound to any
// object version, so trusted components (the file manager itself, the
// AFS manager, the storage manager) use them for attribute reads whose
// current version is not yet known.
func (fm *FM) MintWildcard(driveIdx int, rights capability.Rights) capability.Capability {
	return fm.mintPartition(driveIdx, rights)
}

// mintPartition issues a partition-scope capability for internal use.
func (fm *FM) mintPartition(driveIdx int, rights capability.Rights) capability.Capability {
	d := fm.drives[driveIdx]
	kid, key, err := d.keys.CurrentWorkingKey(fm.part)
	if err != nil {
		// Partition keys exist for every formatted drive; reaching this
		// indicates drive-table misuse.
		panic("filemgr: no partition key: " + err.Error())
	}
	pub := capability.Public{
		DriveID:   d.target.DriveID,
		Partition: fm.part,
		Object:    0,
		ObjVer:    0,
		Rights:    rights,
		Expiry:    fm.clock().Add(fm.expiry).UnixNano(),
		Key:       kid,
	}
	return capability.Mint(pub, key)
}

// mintSelf issues an object capability for the file manager's own
// metadata access.
func (fm *FM) mintSelf(h Handle, ver uint64, rights capability.Rights) capability.Capability {
	c, err := fm.Mint(h, ver, rights)
	if err != nil {
		panic("filemgr: minting self capability: " + err.Error())
	}
	return c
}

// --- low-level object access ------------------------------------------------

func (fm *FM) cli(h Handle) *client.Drive { return fm.drives[h.Drive].target.Client }

func (fm *FM) getAttr(ctx context.Context, h Handle) (object.Attributes, error) {
	// Version unknown before the call; use a GetAttr capability minted
	// against each plausible version. The drive checks version equality,
	// so the file manager keeps attribute reads simple by minting with
	// version read from a first unauthenticated attempt. To avoid two
	// round trips we mint with version 0..3 fallbacks only in the rare
	// revocation window; normally version matches the cached value.
	//
	// Simpler and correct: attribute reads from the *file manager* are
	// policy-path operations, so issue them under a partition-scope
	// capability (Object=0, version 0), which the drive accepts for any
	// object in the partition.
	cap := fm.mintPartition(h.Drive, capability.GetAttr)
	return fm.cli(h).GetAttr(ctx, &cap, h.Partition, h.Object)
}

func (fm *FM) readObject(ctx context.Context, h Handle, ver uint64) ([]byte, error) {
	a, err := fm.getAttr(ctx, h)
	if err != nil {
		return nil, err
	}
	cap := fm.mintSelf(h, a.Version, capability.Read)
	return fm.cli(h).Read(ctx, &cap, h.Partition, h.Object, 0, int(a.Size))
}

func (fm *FM) writeObject(ctx context.Context, h Handle, data []byte) error {
	a, err := fm.getAttr(ctx, h)
	if err != nil {
		return err
	}
	cap := fm.mintSelf(h, a.Version, capability.Write|capability.SetAttr)
	if err := fm.cli(h).Write(ctx, &cap, h.Partition, h.Object, 0, data); err != nil {
		return err
	}
	// Truncate to the new length when shrinking.
	if uint64(len(data)) < a.Size {
		return fm.cli(h).SetAttr(ctx, &cap, h.Partition, h.Object,
			object.Attributes{Size: uint64(len(data))}, object.SetSize)
	}
	return nil
}

// --- policy attributes -------------------------------------------------------

// policy is what lives in the uninterpreted attribute block.
type policy struct {
	Mode uint32
	UID  uint32
	GID  uint32
}

func encodePolicy(pol policy) [256]byte {
	var b [256]byte
	var e rpc.Encoder
	e.U32(pol.Mode)
	e.U32(pol.UID)
	e.U32(pol.GID)
	copy(b[:], e.Bytes())
	return b
}

func decodePolicy(b [256]byte) policy {
	d := rpc.NewDecoder(b[:12])
	return policy{Mode: d.U32(), UID: d.U32(), GID: d.U32()}
}

func (fm *FM) writePolicy(ctx context.Context, h Handle, mode, uid, gid uint32) error {
	a, err := fm.getAttr(ctx, h)
	if err != nil {
		return err
	}
	cap := fm.mintSelf(h, a.Version, capability.SetAttr)
	attrs := object.Attributes{Uninterp: encodePolicy(policy{Mode: mode, UID: uid, GID: gid})}
	return fm.cli(h).SetAttr(ctx, &cap, h.Partition, h.Object, attrs, object.SetUninterp)
}

func (fm *FM) readPolicy(ctx context.Context, h Handle) (policy, object.Attributes, error) {
	a, err := fm.getAttr(ctx, h)
	if err != nil {
		return policy{}, a, err
	}
	return decodePolicy(a.Uninterp), a, nil
}

// checkAccess enforces mode bits: want is a 3-bit rwx mask (4=r, 2=w).
func checkAccess(id Identity, pol policy, want uint32) error {
	if id.UID == 0 {
		return nil
	}
	var bits uint32
	switch {
	case id.UID == pol.UID:
		bits = (pol.Mode >> 6) & 7
	case id.InGroup(pol.GID):
		bits = (pol.Mode >> 3) & 7
	default:
		bits = pol.Mode & 7
	}
	if bits&want != want {
		return ErrPerm
	}
	return nil
}

// --- directory representation -----------------------------------------------

type dirEntryRec struct {
	name  string
	drive uint32
	obj   uint64
	isDir bool
}

func encodeDir(entries []dirEntryRec) []byte {
	var e rpc.Encoder
	e.U32(uint32(len(entries)))
	for _, ent := range entries {
		e.String(ent.name)
		e.U32(ent.drive)
		e.U64(ent.obj)
		if ent.isDir {
			e.U8(1)
		} else {
			e.U8(0)
		}
	}
	return e.Bytes()
}

func decodeDir(b []byte) ([]dirEntryRec, error) {
	d := rpc.NewDecoder(b)
	n := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	out := make([]dirEntryRec, 0, n)
	for i := 0; i < n; i++ {
		ent := dirEntryRec{name: d.String(), drive: d.U32(), obj: d.U64(), isDir: d.U8() == 1}
		if d.Err() != nil {
			return nil, d.Err()
		}
		out = append(out, ent)
	}
	return out, nil
}

func (fm *FM) readDir(ctx context.Context, h Handle) ([]dirEntryRec, error) {
	data, err := fm.readObject(ctx, h, 0)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, nil
	}
	return decodeDir(data)
}

func (fm *FM) writeDir(ctx context.Context, h Handle, entries []dirEntryRec) error {
	return fm.writeObject(ctx, h, encodeDir(entries))
}

// --- path walking -------------------------------------------------------------

func splitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, ErrBadPath
	}
	var parts []string
	for _, p := range strings.Split(path, "/") {
		switch p {
		case "", ".":
		case "..":
			return nil, ErrBadPath
		default:
			parts = append(parts, p)
		}
	}
	return parts, nil
}

// walk resolves path to its handle, checking execute (search)
// permission along the way. Caller holds mu.
func (fm *FM) walk(ctx context.Context, id Identity, path string) (Handle, error) {
	parts, err := splitPath(path)
	if err != nil {
		return Handle{}, err
	}
	cur := fm.root
	for _, name := range parts {
		if !cur.IsDir {
			return Handle{}, ErrNotDir
		}
		pol, _, err := fm.readPolicy(ctx, cur)
		if err != nil {
			return Handle{}, err
		}
		if err := checkAccess(id, pol, 1); err != nil { // search
			return Handle{}, err
		}
		entries, err := fm.readDir(ctx, cur)
		if err != nil {
			return Handle{}, err
		}
		found := false
		for _, ent := range entries {
			if ent.name == name {
				cur = fm.entryHandle(ent)
				found = true
				break
			}
		}
		if !found {
			return Handle{}, ErrNotFound
		}
	}
	return cur, nil
}

func (fm *FM) entryHandle(ent dirEntryRec) Handle {
	return Handle{
		Drive:     int(ent.drive),
		DriveID:   fm.drives[ent.drive].target.DriveID,
		Partition: fm.part,
		Object:    ent.obj,
		IsDir:     ent.isDir,
	}
}

// walkParent resolves the parent directory of path and returns it with
// the final name component.
func (fm *FM) walkParent(ctx context.Context, id Identity, path string) (Handle, string, error) {
	parts, err := splitPath(path)
	if err != nil {
		return Handle{}, "", err
	}
	if len(parts) == 0 {
		return Handle{}, "", ErrBadPath
	}
	dirPath := "/" + strings.Join(parts[:len(parts)-1], "/")
	parent, err := fm.walk(ctx, id, dirPath)
	if err != nil {
		return Handle{}, "", err
	}
	if !parent.IsDir {
		return Handle{}, "", ErrNotDir
	}
	return parent, parts[len(parts)-1], nil
}
