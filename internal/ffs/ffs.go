// Package ffs is a small FFS-flavoured local filesystem — the baseline
// the paper measures the NASD object system against in Figure 6 ("a
// variant of Berkeley's FFS").
//
// It is a real local filesystem over a block device: a hierarchical
// namespace whose directories are files, inode-style metadata, and a
// buffer cache. Two FFS behaviours that matter to the comparison are
// reproduced:
//
//   - write acknowledgement: writes of up to WriteBehindLimit (64 KB)
//     complete from the cache; larger writes flush synchronously to the
//     device ("it acknowledges immediately for writes of up to 64 KB
//     (write-behind), and otherwise waits for disk media");
//   - allocation: blocks are allocated first-fit with no object
//     contiguity hint, so files interleave after churn — the layout
//     difference that costs FFS half its miss bandwidth in Figure 6,
//     versus the NASD object system's clustering.
//
// Compared with the NASD object system it has no partitions, quotas,
// capabilities, versions, or attributes beyond size and times: it is a
// local filesystem, not a network object store.
package ffs

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"nasd/internal/blockdev"
	"nasd/internal/cache"
	"nasd/internal/layout"
	"nasd/internal/rpc"
)

// WriteBehindLimit is the largest write acknowledged from cache.
const WriteBehindLimit = 64 << 10

// Errors.
var (
	ErrNotFound = errors.New("ffs: no such file or directory")
	ErrExists   = errors.New("ffs: file exists")
	ErrNotDir   = errors.New("ffs: not a directory")
	ErrIsDir    = errors.New("ffs: is a directory")
	ErrNotEmpty = errors.New("ffs: directory not empty")
	ErrBadPath  = errors.New("ffs: invalid path")
)

// inode flag bits.
const flagDir uint16 = 1

// FS is a mounted filesystem.
type FS struct {
	mu    sync.Mutex
	lay   *layout.Store
	cache *cache.BlockCache
	root  uint64 // root directory file ID
}

// Format creates an empty filesystem on dev.
func Format(dev blockdev.Device) (*FS, error) {
	lay, err := layout.Format(dev, layout.FormatOptions{})
	if err != nil {
		return nil, err
	}
	fs := newFS(lay, dev)
	// Root directory: the first allocated file.
	rootID, err := fs.allocFile(true)
	if err != nil {
		return nil, err
	}
	fs.root = rootID
	if err := fs.writeAll(rootID, encodeEntries(nil)); err != nil {
		return nil, err
	}
	return fs, nil
}

// Open mounts an existing filesystem.
func Open(dev blockdev.Device) (*FS, error) {
	lay, err := layout.Open(dev, layout.OpenOptions{})
	if err != nil {
		return nil, err
	}
	fs := newFS(lay, dev)
	fs.root = 1 // the first file allocated by Format
	if _, ok := lay.FindOnode(fs.root); !ok {
		return nil, fmt.Errorf("ffs: root inode missing")
	}
	return fs, nil
}

func newFS(lay *layout.Store, dev blockdev.Device) *FS {
	c := cache.New(dev, 1024)
	lay.SetDataIO(c)
	return &FS{lay: lay, cache: c}
}

// allocFile creates a fresh inode and returns its file ID.
func (fs *FS) allocFile(dir bool) (uint64, error) {
	idx, err := fs.lay.AllocOnode()
	if err != nil {
		return 0, err
	}
	id := fs.lay.NextObjectID()
	var flags uint16
	if dir {
		flags = flagDir
	}
	o := layout.Onode{ObjectID: id, Partition: 1, Flags: flags, Version: 1}
	if err := fs.lay.WriteOnode(idx, &o); err != nil {
		return 0, err
	}
	return id, nil
}

func (fs *FS) inode(id uint64) (int64, layout.Onode, error) {
	idx, ok := fs.lay.FindOnode(id)
	if !ok {
		return 0, layout.Onode{}, ErrNotFound
	}
	o, err := fs.lay.ReadOnode(idx)
	return idx, o, err
}

// --- raw file IO (by file ID) ---------------------------------------------

func (fs *FS) readAll(id uint64) ([]byte, error) {
	_, o, err := fs.inode(id)
	if err != nil {
		return nil, err
	}
	return fs.readRange(&o, 0, int(o.Size))
}

func (fs *FS) readRange(o *layout.Onode, off uint64, n int) ([]byte, error) {
	if off >= o.Size {
		return nil, nil
	}
	if max := o.Size - off; uint64(n) > max {
		n = int(max)
	}
	bs := uint64(fs.lay.BlockSize())
	out := make([]byte, n)
	buf := make([]byte, bs)
	for done := 0; done < n; {
		cur := off + uint64(done)
		fb := int64(cur / bs)
		within := cur % bs
		chunk := int(bs - within)
		if chunk > n-done {
			chunk = n - done
		}
		phys, err := fs.lay.BMap(o, fb)
		if err != nil {
			return nil, err
		}
		if phys == 0 {
			for i := 0; i < chunk; i++ {
				out[done+i] = 0
			}
		} else {
			if err := fs.cache.ReadBlock(phys, buf); err != nil {
				return nil, err
			}
			copy(out[done:done+chunk], buf[within:])
		}
		done += chunk
	}
	return out, nil
}

func (fs *FS) writeRange(idx int64, o *layout.Onode, off uint64, data []byte) error {
	bs := uint64(fs.lay.BlockSize())
	buf := make([]byte, bs)
	for done := 0; done < len(data); {
		cur := off + uint64(done)
		fb := int64(cur / bs)
		within := cur % bs
		chunk := int(bs - within)
		if chunk > len(data)-done {
			chunk = len(data) - done
		}
		prev, err := fs.lay.BMap(o, fb)
		if err != nil {
			return err
		}
		// First-fit allocation, no contiguity hint: classic FFS-era
		// fragmentation behaviour.
		phys, err := fs.lay.BMapAlloc(o, fb, 0)
		if err != nil {
			return err
		}
		if within == 0 && chunk == int(bs) {
			copy(buf, data[done:done+chunk])
		} else {
			if prev == 0 {
				for i := range buf {
					buf[i] = 0
				}
			} else if err := fs.cache.ReadBlock(phys, buf); err != nil {
				return err
			}
			copy(buf[within:], data[done:done+chunk])
		}
		if err := fs.cache.WriteBlock(phys, buf); err != nil {
			return err
		}
		done += chunk
	}
	if end := off + uint64(len(data)); end > o.Size {
		o.Size = end
	}
	if err := fs.lay.WriteOnode(idx, o); err != nil {
		return err
	}
	// FFS acknowledgement rule: large writes wait for the media.
	if len(data) > WriteBehindLimit {
		return fs.cache.Flush()
	}
	return nil
}

func (fs *FS) writeAll(id uint64, data []byte) error {
	idx, o, err := fs.inode(id)
	if err != nil {
		return err
	}
	if err := fs.writeRange(idx, &o, 0, data); err != nil {
		return err
	}
	if uint64(len(data)) < o.Size {
		return fs.truncate(idx, &o, uint64(len(data)))
	}
	return nil
}

func (fs *FS) truncate(idx int64, o *layout.Onode, size uint64) error {
	bs := uint64(fs.lay.BlockSize())
	first := (size + bs - 1) / bs
	last := (o.Size + bs - 1) / bs
	for fb := first; fb < last; fb++ {
		phys, err := fs.lay.BMap(o, int64(fb))
		if err != nil {
			return err
		}
		if phys != 0 {
			fs.cache.Invalidate(phys)
		}
		if _, err := fs.lay.UnmapBlock(o, int64(fb)); err != nil {
			return err
		}
	}
	o.Size = size
	return fs.lay.WriteOnode(idx, o)
}

// --- directories --------------------------------------------------------------

type dirEntry struct {
	name  string
	id    uint64
	isDir bool
}

func encodeEntries(ents []dirEntry) []byte {
	var e rpc.Encoder
	e.U32(uint32(len(ents)))
	for _, ent := range ents {
		e.String(ent.name)
		e.U64(ent.id)
		if ent.isDir {
			e.U8(1)
		} else {
			e.U8(0)
		}
	}
	return e.Bytes()
}

func decodeEntries(b []byte) ([]dirEntry, error) {
	if len(b) == 0 {
		return nil, nil
	}
	d := rpc.NewDecoder(b)
	n := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	out := make([]dirEntry, 0, n)
	for i := 0; i < n; i++ {
		ent := dirEntry{name: d.String(), id: d.U64(), isDir: d.U8() == 1}
		if d.Err() != nil {
			return nil, d.Err()
		}
		out = append(out, ent)
	}
	return out, nil
}

func (fs *FS) readDirFile(id uint64) ([]dirEntry, error) {
	data, err := fs.readAll(id)
	if err != nil {
		return nil, err
	}
	return decodeEntries(data)
}

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

// walk resolves path to (file ID, isDir). Caller holds mu.
func (fs *FS) walk(path string) (uint64, bool, error) {
	parts, err := splitPath(path)
	if err != nil {
		return 0, false, err
	}
	cur, isDir := fs.root, true
	for _, name := range parts {
		if !isDir {
			return 0, false, ErrNotDir
		}
		ents, err := fs.readDirFile(cur)
		if err != nil {
			return 0, false, err
		}
		found := false
		for _, ent := range ents {
			if ent.name == name {
				cur, isDir = ent.id, ent.isDir
				found = true
				break
			}
		}
		if !found {
			return 0, false, ErrNotFound
		}
	}
	return cur, isDir, nil
}

func (fs *FS) walkParent(path string) (uint64, string, error) {
	parts, err := splitPath(path)
	if err != nil {
		return 0, "", err
	}
	if len(parts) == 0 {
		return 0, "", ErrBadPath
	}
	dir := "/" + strings.Join(parts[:len(parts)-1], "/")
	id, isDir, err := fs.walk(dir)
	if err != nil {
		return 0, "", err
	}
	if !isDir {
		return 0, "", ErrNotDir
	}
	return id, parts[len(parts)-1], nil
}

// --- public API -----------------------------------------------------------------

// Mkdir creates a directory.
func (fs *FS) Mkdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, err := fs.createLocked(path, true)
	return err
}

// Create makes an empty file.
func (fs *FS) Create(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, err := fs.createLocked(path, false)
	return err
}

func (fs *FS) createLocked(path string, dir bool) (uint64, error) {
	parent, name, err := fs.walkParent(path)
	if err != nil {
		return 0, err
	}
	ents, err := fs.readDirFile(parent)
	if err != nil {
		return 0, err
	}
	for _, ent := range ents {
		if ent.name == name {
			return 0, ErrExists
		}
	}
	id, err := fs.allocFile(dir)
	if err != nil {
		return 0, err
	}
	if dir {
		if err := fs.writeAll(id, encodeEntries(nil)); err != nil {
			return 0, err
		}
	}
	ents = append(ents, dirEntry{name: name, id: id, isDir: dir})
	return id, fs.writeAll(parent, encodeEntries(ents))
}

// Write stores data at off, extending the file. Writes larger than
// WriteBehindLimit are flushed through to the device before returning.
func (fs *FS) Write(path string, off uint64, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	id, isDir, err := fs.walk(path)
	if err != nil {
		return err
	}
	if isDir {
		return ErrIsDir
	}
	idx, o, err := fs.inode(id)
	if err != nil {
		return err
	}
	return fs.writeRange(idx, &o, off, data)
}

// Read returns up to n bytes at off, clipped at file size.
func (fs *FS) Read(path string, off uint64, n int) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	id, isDir, err := fs.walk(path)
	if err != nil {
		return nil, err
	}
	if isDir {
		return nil, ErrIsDir
	}
	_, o, err := fs.inode(id)
	if err != nil {
		return nil, err
	}
	return fs.readRange(&o, off, n)
}

// Stat returns the file size.
func (fs *FS) Stat(path string) (size uint64, isDir bool, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	id, d, err := fs.walk(path)
	if err != nil {
		return 0, false, err
	}
	_, o, err := fs.inode(id)
	if err != nil {
		return 0, false, err
	}
	return o.Size, d, nil
}

// Truncate resizes a file.
func (fs *FS) Truncate(path string, size uint64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	id, isDir, err := fs.walk(path)
	if err != nil {
		return err
	}
	if isDir {
		return ErrIsDir
	}
	idx, o, err := fs.inode(id)
	if err != nil {
		return err
	}
	if size < o.Size {
		return fs.truncate(idx, &o, size)
	}
	o.Size = size
	return fs.lay.WriteOnode(idx, &o)
}

// Remove unlinks a file or empty directory.
func (fs *FS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, err := fs.walkParent(path)
	if err != nil {
		return err
	}
	ents, err := fs.readDirFile(parent)
	if err != nil {
		return err
	}
	pos := -1
	var victim dirEntry
	for i, ent := range ents {
		if ent.name == name {
			pos, victim = i, ent
			break
		}
	}
	if pos < 0 {
		return ErrNotFound
	}
	if victim.isDir {
		children, err := fs.readDirFile(victim.id)
		if err != nil {
			return err
		}
		if len(children) > 0 {
			return ErrNotEmpty
		}
	}
	idx, o, err := fs.inode(victim.id)
	if err != nil {
		return err
	}
	if err := fs.lay.ForEachBlock(&o, func(phys int64, isPtr bool) error {
		if !isPtr && fs.lay.RefCount(phys) == 1 {
			fs.cache.Invalidate(phys)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := fs.lay.FreeObjectBlocks(&o); err != nil {
		return err
	}
	if err := fs.lay.WriteOnode(idx, &layout.Onode{}); err != nil {
		return err
	}
	ents = append(ents[:pos], ents[pos+1:]...)
	return fs.writeAll(parent, encodeEntries(ents))
}

// Rename moves an entry between directories.
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	op, oldName, err := fs.walkParent(oldPath)
	if err != nil {
		return err
	}
	np, newName, err := fs.walkParent(newPath)
	if err != nil {
		return err
	}
	oldEnts, err := fs.readDirFile(op)
	if err != nil {
		return err
	}
	pos := -1
	var moving dirEntry
	for i, ent := range oldEnts {
		if ent.name == oldName {
			pos, moving = i, ent
			break
		}
	}
	if pos < 0 {
		return ErrNotFound
	}
	same := op == np
	newEnts := oldEnts
	if !same {
		newEnts, err = fs.readDirFile(np)
		if err != nil {
			return err
		}
	}
	for _, ent := range newEnts {
		if ent.name == newName {
			return ErrExists
		}
	}
	moving.name = newName
	if same {
		oldEnts[pos] = moving
		return fs.writeAll(op, encodeEntries(oldEnts))
	}
	oldEnts = append(oldEnts[:pos], oldEnts[pos+1:]...)
	newEnts = append(newEnts, moving)
	if err := fs.writeAll(op, encodeEntries(oldEnts)); err != nil {
		return err
	}
	return fs.writeAll(np, encodeEntries(newEnts))
}

// ReadDir lists a directory.
func (fs *FS) ReadDir(path string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	id, isDir, err := fs.walk(path)
	if err != nil {
		return nil, err
	}
	if !isDir {
		return nil, ErrNotDir
	}
	ents, err := fs.readDirFile(id)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ents))
	for i, ent := range ents {
		out[i] = ent.name
	}
	return out, nil
}

// Sync flushes all buffered data and metadata to the device.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.cache.Flush(); err != nil {
		return err
	}
	return fs.lay.Sync()
}

// CacheStats exposes buffer-cache counters for tests and comparisons.
func (fs *FS) CacheStats() cache.Stats { return fs.cache.Stats() }
