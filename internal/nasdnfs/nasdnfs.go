// Package nasdnfs is the paper's NFS port to NASD (Section 5.1): an
// NFS-flavoured client where data-moving operations (read, write) and
// attribute reads (getattr) go directly to NASD drives, while namespace
// and policy operations (lookup, create, remove, mkdir, readdir,
// rename) go to the file manager. Capabilities are piggybacked on
// lookup responses and cached; when a drive rejects a capability
// (expiry or revocation) the client transparently re-looks-up, exactly
// the "client is sent back to the file manager" recovery of Section 4.1.
//
// Consistency is NFS-weak: attribute reads go to the drive, and
// concurrent writers are not serialized beyond per-request atomicity.
package nasdnfs

import (
	"context"
	"errors"
	"sync"

	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/filemgr"
	"nasd/internal/object"
)

// FileManager is the policy-path interface the NFS port consults. It is
// satisfied by *filemgr.FM directly (co-located file manager) and by
// fmrpc.Client (file manager across the network).
type FileManager interface {
	Lookup(ctx context.Context, id filemgr.Identity, path string, want capability.Rights) (filemgr.Handle, filemgr.FileInfo, capability.Capability, error)
	Create(ctx context.Context, id filemgr.Identity, path string, mode uint32) (filemgr.Handle, capability.Capability, error)
	Mkdir(ctx context.Context, id filemgr.Identity, path string, mode uint32) (filemgr.Handle, error)
	Remove(ctx context.Context, id filemgr.Identity, path string) error
	Rename(ctx context.Context, id filemgr.Identity, oldPath, newPath string) error
	ReadDir(ctx context.Context, id filemgr.Identity, path string) ([]filemgr.DirEntry, error)
	Stat(ctx context.Context, id filemgr.Identity, path string) (filemgr.FileInfo, error)
}

// Client is an NFS-style client of a NASD filesystem.
type Client struct {
	fm     FileManager
	drives []*client.Drive // indexed like the file manager's drive table
	id     filemgr.Identity

	mu   sync.Mutex
	caps map[capKey]entry
}

type capKey struct {
	path   string
	rights capability.Rights
}

type entry struct {
	h   filemgr.Handle
	cap capability.Capability
}

// New builds a client for identity id. drives must be connections to
// the same drives, in the same order, as the file manager's table.
func New(fm FileManager, drives []*client.Drive, id filemgr.Identity) *Client {
	return &Client{fm: fm, drives: drives, id: id, caps: make(map[capKey]entry)}
}

// lookup resolves a path at the file manager and caches the piggybacked
// capability.
func (c *Client) lookup(ctx context.Context, path string, rights capability.Rights) (entry, error) {
	h, _, cap, err := c.fm.Lookup(ctx, c.id, path, rights)
	if err != nil {
		return entry{}, err
	}
	e := entry{h: h, cap: cap}
	c.mu.Lock()
	c.caps[capKey{path, rights}] = e
	c.mu.Unlock()
	return e, nil
}

func (c *Client) cached(path string, rights capability.Rights) (entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.caps[capKey{path, rights}]
	return e, ok
}

func (c *Client) invalidate(path string, rights capability.Rights) {
	c.mu.Lock()
	delete(c.caps, capKey{path, rights})
	c.mu.Unlock()
}

// CachedCapabilities reports how many capabilities the client holds —
// the measure of how rarely the file manager sits in the data path.
func (c *Client) CachedCapabilities() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.caps)
}

// withCap runs op with a capability for (path, rights): cached when
// available (the common case — the file manager is off the data path),
// fetched on miss, and re-fetched once when the drive rejects it.
func (c *Client) withCap(ctx context.Context, path string, rights capability.Rights, op func(h filemgr.Handle, cap capability.Capability) error) error {
	e, ok := c.cached(path, rights)
	if !ok {
		var err error
		e, err = c.lookup(ctx, path, rights)
		if err != nil {
			return err
		}
	}
	err := op(e.h, e.cap)
	if errors.Is(err, client.ErrAuth) {
		// Stale capability (expired, revoked, or the file was replaced):
		// revisit the file manager once, as Section 4.1 prescribes.
		c.invalidate(path, rights)
		e, err = c.lookup(ctx, path, rights)
		if err != nil {
			return err
		}
		return op(e.h, e.cap)
	}
	return err
}

// Read returns up to n bytes at off, moving data drive-direct.
func (c *Client) Read(ctx context.Context, path string, off uint64, n int) ([]byte, error) {
	var out []byte
	err := c.withCap(ctx, path, capability.Read, func(h filemgr.Handle, cap capability.Capability) error {
		data, err := c.drives[h.Drive].Read(ctx, &cap, h.Partition, h.Object, off, n)
		out = data
		return err
	})
	return out, err
}

// Write stores data at off, drive-direct.
func (c *Client) Write(ctx context.Context, path string, off uint64, data []byte) error {
	return c.withCap(ctx, path, capability.Write, func(h filemgr.Handle, cap capability.Capability) error {
		return c.drives[h.Drive].Write(ctx, &cap, h.Partition, h.Object, off, data)
	})
}

// GetAttr fetches attributes drive-direct (Section 5.1 sends getattr to
// the drive; policy attributes come from the uninterpreted block).
func (c *Client) GetAttr(ctx context.Context, path string) (object.Attributes, error) {
	var out object.Attributes
	err := c.withCap(ctx, path, capability.GetAttr, func(h filemgr.Handle, cap capability.Capability) error {
		a, err := c.drives[h.Drive].GetAttr(ctx, &cap, h.Partition, h.Object)
		out = a
		return err
	})
	return out, err
}

// Stat goes through the file manager (policy attributes included).
func (c *Client) Stat(ctx context.Context, path string) (filemgr.FileInfo, error) {
	return c.fm.Stat(ctx, c.id, path)
}

// Create, Remove, Mkdir, Rename, ReadDir are file manager operations.

// Create makes a file.
func (c *Client) Create(ctx context.Context, path string, mode uint32) error {
	h, cap, err := c.fm.Create(ctx, c.id, path, mode)
	if err != nil {
		return err
	}
	rw := capability.Read | capability.Write | capability.GetAttr
	c.mu.Lock()
	// The creation capability covers read, write, and getattr; register
	// it under each so first accesses skip the file manager.
	for _, r := range []capability.Rights{rw, capability.Read, capability.Write, capability.GetAttr} {
		c.caps[capKey{path, r}] = entry{h: h, cap: cap}
	}
	c.mu.Unlock()
	return nil
}

// Remove unlinks a file or empty directory.
func (c *Client) Remove(ctx context.Context, path string) error { return c.fm.Remove(ctx, c.id, path) }

// Mkdir makes a directory.
func (c *Client) Mkdir(ctx context.Context, path string, mode uint32) error {
	_, err := c.fm.Mkdir(ctx, c.id, path, mode)
	return err
}

// Rename moves a file.
func (c *Client) Rename(ctx context.Context, oldPath, newPath string) error {
	return c.fm.Rename(ctx, c.id, oldPath, newPath)
}

// ReadDir lists a directory.
func (c *Client) ReadDir(ctx context.Context, path string) ([]filemgr.DirEntry, error) {
	return c.fm.ReadDir(ctx, c.id, path)
}
