package blockdev

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
)

// FileDisk is a block device backed by a file on the host filesystem,
// giving nasdd durable storage. Geometry is fixed at creation and
// validated on reopen via a small header block stored before block 0.
type FileDisk struct {
	f         *os.File
	blockSize int
	blocks    int64
}

// fileDiskHeader occupies the first headerSize bytes of the backing
// file; device blocks start after it.
const fileDiskMagic = "NASDBLK1"
const headerSize = 4096

// CreateFileDisk creates (or truncates) path as a block device with the
// given geometry.
func CreateFileDisk(path string, blockSize int, blocks int64) (*FileDisk, error) {
	if blockSize <= 0 || blocks <= 0 {
		return nil, fmt.Errorf("blockdev: invalid geometry %dx%d", blockSize, blocks)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, headerSize)
	copy(hdr, fileDiskMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(blockSize))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(blocks))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	// Reserve the full extent so geometry is stable.
	if err := f.Truncate(headerSize + int64(blockSize)*blocks); err != nil {
		f.Close()
		return nil, err
	}
	return &FileDisk{f: f, blockSize: blockSize, blocks: blocks}, nil
}

// OpenFileDisk opens an existing file-backed device, validating its
// header: a positive geometry whose extent fits an int64 and the file.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	d, err := openFileDisk(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

func openFileDisk(f *os.File, path string) (*FileDisk, error) {
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("blockdev: reading header: %w", err)
	}
	if string(hdr[:8]) != fileDiskMagic {
		return nil, fmt.Errorf("blockdev: %s is not a NASD block device", path)
	}
	bs := int64(binary.LittleEndian.Uint64(hdr[8:]))
	blocks := int64(binary.LittleEndian.Uint64(hdr[16:]))
	if bs <= 0 || blocks <= 0 || blocks > (math.MaxInt64-headerSize)/bs {
		return nil, fmt.Errorf("blockdev: %s: invalid geometry %dx%d", path, bs, blocks)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if want := headerSize + bs*blocks; st.Size() < want {
		return nil, fmt.Errorf("blockdev: %s: %d bytes, geometry %dx%d needs %d", path, st.Size(), bs, blocks, want)
	}
	return &FileDisk{f: f, blockSize: int(bs), blocks: blocks}, nil
}

// BlockSize implements Device.
func (d *FileDisk) BlockSize() int { return d.blockSize }

// Blocks implements Device.
func (d *FileDisk) Blocks() int64 { return d.blocks }

func (d *FileDisk) offset(i int64) int64 {
	return headerSize + i*int64(d.blockSize)
}

// ReadBlock implements Device.
func (d *FileDisk) ReadBlock(i int64, buf []byte) error { return readOne(d, i, buf) }

// WriteBlock implements Device.
func (d *FileDisk) WriteBlock(i int64, data []byte) error { return writeOne(d, i, data) }

// ReadBlocks implements Device: one syscall for the whole extent.
func (d *FileDisk) ReadBlocks(start int64, buf []byte) error {
	if _, err := checkRange(d, start, len(buf)); err != nil {
		return err
	}
	_, err := d.f.ReadAt(buf, d.offset(start))
	return err
}

// WriteBlocks implements Device: one syscall for the whole extent.
func (d *FileDisk) WriteBlocks(start int64, data []byte) error {
	if _, err := checkRange(d, start, len(data)); err != nil {
		return err
	}
	_, err := d.f.WriteAt(data, d.offset(start))
	return err
}

// Flush implements Device: fsync to stable storage.
func (d *FileDisk) Flush() error { return d.f.Sync() }

// Close releases the backing file.
func (d *FileDisk) Close() error { return d.f.Close() }
