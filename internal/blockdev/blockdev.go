package blockdev

import (
	"errors"
	"fmt"
	"sync"
)

// Device is a fixed-geometry block device. Implementations must be safe
// for concurrent use.
type Device interface {
	// BlockSize returns the size of every block in bytes.
	BlockSize() int
	// Blocks returns the number of blocks on the device.
	Blocks() int64
	// ReadBlock fills buf (exactly BlockSize bytes) from block i.
	ReadBlock(i int64, buf []byte) error
	// WriteBlock stores data (exactly BlockSize bytes) to block i.
	WriteBlock(i int64, data []byte) error
	// ReadBlocks and WriteBlocks move a contiguous extent in one call.
	BlockRanger
	// Flush forces any buffered writes to stable storage.
	Flush() error
}

// Errors returned by devices.
var (
	ErrOutOfRange = errors.New("blockdev: block out of range")
	ErrBadSize    = errors.New("blockdev: buffer size != block size")
	ErrFailed     = errors.New("blockdev: device failed")
	ErrCorrupt    = errors.New("blockdev: block corrupt")
)

// MemDisk is an in-memory block device. Unwritten blocks read as zeros.
// It supports fault injection for failure-path tests: whole-device
// crash (Fail/Heal), whole-device hang (Hang/Resume), per-block
// corruption, and transient per-block errors.
type MemDisk struct {
	mu        sync.RWMutex
	blockSize int
	blocks    int64
	data      map[int64][]byte
	failed    bool
	hung      chan struct{} // non-nil while hung; closed by Resume
	corrupt   map[int64]bool
	errOnce   map[int64]error

	reads, writes int64
}

// NewMemDisk returns a MemDisk with the given geometry.
func NewMemDisk(blockSize int, blocks int64) *MemDisk {
	if blockSize <= 0 || blocks <= 0 {
		panic("blockdev: invalid geometry")
	}
	return &MemDisk{
		blockSize: blockSize,
		blocks:    blocks,
		data:      make(map[int64][]byte),
		corrupt:   make(map[int64]bool),
		errOnce:   make(map[int64]error),
	}
}

// BlockSize implements Device.
func (d *MemDisk) BlockSize() int { return d.blockSize }

// Blocks implements Device.
func (d *MemDisk) Blocks() int64 { return d.blocks }

// gate blocks while the device is hung. It runs before the data lock
// is taken so a wedged drive stalls new requests without deadlocking
// the fault-control methods.
func (d *MemDisk) gate() {
	d.mu.RLock()
	ch := d.hung
	d.mu.RUnlock()
	if ch != nil {
		<-ch
	}
}

// ReadBlock implements Device.
func (d *MemDisk) ReadBlock(i int64, buf []byte) error { return readOne(d, i, buf) }

// WriteBlock implements Device.
func (d *MemDisk) WriteBlock(i int64, data []byte) error { return writeOne(d, i, data) }

// ReadBlocks implements Device: one gate and one lock for the whole
// extent.
func (d *MemDisk) ReadBlocks(start int64, buf []byte) error {
	blocks, err := checkRange(d, start, len(buf))
	if err != nil {
		return err
	}
	d.gate()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrFailed
	}
	bs := d.blockSize
	for b := int64(0); b < blocks; b++ {
		i := start + b
		if err, ok := d.errOnce[i]; ok {
			delete(d.errOnce, i)
			return err
		}
		if d.corrupt[i] {
			return fmt.Errorf("%w: block %d", ErrCorrupt, i)
		}
		d.reads++
		dst := buf[int(b)*bs : int(b+1)*bs]
		if src, ok := d.data[i]; ok {
			copy(dst, src)
		} else {
			clear(dst)
		}
	}
	return nil
}

// WriteBlocks implements Device.
func (d *MemDisk) WriteBlocks(start int64, data []byte) error {
	blocks, err := checkRange(d, start, len(data))
	if err != nil {
		return err
	}
	d.gate()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrFailed
	}
	bs := d.blockSize
	for b := int64(0); b < blocks; b++ {
		i := start + b
		if err, ok := d.errOnce[i]; ok {
			delete(d.errOnce, i)
			return err
		}
		d.writes++
		dst, ok := d.data[i]
		if !ok {
			dst = make([]byte, bs)
			d.data[i] = dst
		}
		copy(dst, data[int(b)*bs:int(b+1)*bs])
		delete(d.corrupt, i) // rewriting heals corruption
	}
	return nil
}

// Flush implements Device (a no-op for memory).
func (d *MemDisk) Flush() error {
	d.gate()
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.failed {
		return ErrFailed
	}
	return nil
}

// Fail crashes the device: every subsequent operation returns
// ErrFailed (fail-stop, immediately detectable).
func (d *MemDisk) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
}

// Heal revives a Failed device.
func (d *MemDisk) Heal() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = false
}

// Hang wedges the device: subsequent operations block — neither
// failing nor completing — until Resume. This models a drive that
// stops answering, the failure mode only timeouts can detect, as
// opposed to Fail's fail-stop errors.
func (d *MemDisk) Hang() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hung == nil {
		d.hung = make(chan struct{})
	}
}

// Resume releases every operation blocked by Hang.
func (d *MemDisk) Resume() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hung != nil {
		close(d.hung)
		d.hung = nil
	}
}

// CorruptBlock marks block i corrupt: reads fail until it is rewritten.
func (d *MemDisk) CorruptBlock(i int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.corrupt[i] = true
}

// FailNext injects err on the next access to block i only.
func (d *MemDisk) FailNext(i int64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.errOnce[i] = err
}

// Stats returns cumulative successful read and write counts.
func (d *MemDisk) Stats() (reads, writes int64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.reads, d.writes
}

// AllocatedBlocks returns how many blocks hold written data (for memory
// accounting in tests).
func (d *MemDisk) AllocatedBlocks() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.data)
}
