package blockdev

import "fmt"

// BlockRanger is the ranged half of Device: a contiguous multi-block
// extent moves in one call — one syscall on a file-backed disk, one lock
// acquisition on a memory disk, one pacer charge behind a throttle.
// buf/data must be a whole number of blocks; the extent
// [start, start+len/blockSize) must lie on the device.
type BlockRanger interface {
	// ReadBlocks fills buf from the blocks starting at start.
	ReadBlocks(start int64, buf []byte) error
	// WriteBlocks stores data to the blocks starting at start.
	WriteBlocks(start int64, data []byte) error
}

func checkRange(d Device, start int64, n int) (blocks int64, err error) {
	bs := d.BlockSize()
	if n%bs != 0 {
		return 0, fmt.Errorf("%w: range %d not a multiple of block size %d", ErrBadSize, n, bs)
	}
	blocks = int64(n / bs)
	if start < 0 || start+blocks > d.Blocks() {
		return 0, fmt.Errorf("%w: blocks [%d,%d) of %d", ErrOutOfRange, start, start+blocks, d.Blocks())
	}
	return blocks, nil
}

// readOne and writeOne are every device's ReadBlock and WriteBlock: a
// range of one block, refused unless the buffer is exactly one block.
func readOne(d Device, i int64, buf []byte) error {
	if len(buf) != d.BlockSize() {
		return fmt.Errorf("%w: %d != %d", ErrBadSize, len(buf), d.BlockSize())
	}
	return d.ReadBlocks(i, buf)
}

func writeOne(d Device, i int64, data []byte) error {
	if len(data) != d.BlockSize() {
		return fmt.Errorf("%w: %d != %d", ErrBadSize, len(data), d.BlockSize())
	}
	return d.WriteBlocks(i, data)
}

// ReadBlocks is d.ReadBlocks. It and WriteBlocks stay only because
// bench/ names them; product code calls the methods.
func ReadBlocks(d Device, start int64, buf []byte) error { return d.ReadBlocks(start, buf) }

// WriteBlocks is d.WriteBlocks.
func WriteBlocks(d Device, start int64, data []byte) error { return d.WriteBlocks(start, data) }

// RunLimit is the longest run, in blocks, that callers which stage a
// run in memory (cache write-back, the refcount region) hand to one
// ranged call: at 4 KiB blocks the staging buffer is a 1 MiB pool class.
const RunLimit = 256

// EachRun calls fn once for every maximal run of consecutive block
// numbers in blocks, cut at limit blocks, in the order given: the unit
// a caller hands to ReadBlocks or WriteBlocks. It stops at fn's first
// error.
func EachRun(blocks []int64, limit int, fn func(start int64, n int) error) error {
	for i := 0; i < len(blocks); {
		j := i + 1
		for j < len(blocks) && j-i < limit && blocks[j] == blocks[j-1]+1 {
			j++
		}
		if err := fn(blocks[i], j-i); err != nil {
			return err
		}
		i = j
	}
	return nil
}

var (
	_ Device = (*MemDisk)(nil)
	_ Device = (*FileDisk)(nil)
	_ Device = (*Throttle)(nil)
	_ Device = (*Instrumented)(nil)
	_ Device = (*CrashDisk)(nil)
)
