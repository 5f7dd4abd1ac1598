package blockdev

import "fmt"

// BlockRanger is implemented by devices that can move a contiguous
// multi-block extent in one call: one syscall on a file-backed disk,
// one lock acquisition on a memory disk, one pacer charge behind a
// throttle. buf/data must be a whole number of blocks; the extent
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

// ReadBlocks reads the contiguous extent starting at block start into
// buf (a whole number of blocks) from any device, using the device's
// native range read when it has one and a per-block loop otherwise.
func ReadBlocks(d Device, start int64, buf []byte) error {
	if br, ok := d.(BlockRanger); ok {
		return br.ReadBlocks(start, buf)
	}
	bs := d.BlockSize()
	blocks, err := checkRange(d, start, len(buf))
	if err != nil {
		return err
	}
	for b := int64(0); b < blocks; b++ {
		if err := d.ReadBlock(start+b, buf[int(b)*bs:int(b+1)*bs]); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlocks writes data (a whole number of blocks) to the contiguous
// extent starting at block start, using the device's native range write
// when it has one and a per-block loop otherwise.
func WriteBlocks(d Device, start int64, data []byte) error {
	if br, ok := d.(BlockRanger); ok {
		return br.WriteBlocks(start, data)
	}
	bs := d.BlockSize()
	blocks, err := checkRange(d, start, len(data))
	if err != nil {
		return err
	}
	for b := int64(0); b < blocks; b++ {
		if err := d.WriteBlock(start+b, data[int(b)*bs:int(b+1)*bs]); err != nil {
			return err
		}
	}
	return nil
}

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

// --- MemDisk: one gate + one lock for the whole extent --------------------

// ReadBlocks implements BlockRanger.
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
			for j := range dst {
				dst[j] = 0
			}
		}
	}
	return nil
}

// WriteBlocks implements BlockRanger.
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
		delete(d.corrupt, i)
	}
	return nil
}

// --- FileDisk: one syscall for the whole extent ---------------------------

// ReadBlocks implements BlockRanger.
func (d *FileDisk) ReadBlocks(start int64, buf []byte) error {
	if _, err := checkRange(d, start, len(buf)); err != nil {
		return err
	}
	_, err := d.f.ReadAt(buf, d.offset(start))
	return err
}

// WriteBlocks implements BlockRanger.
func (d *FileDisk) WriteBlocks(start int64, data []byte) error {
	if _, err := checkRange(d, start, len(data)); err != nil {
		return err
	}
	_, err := d.f.WriteAt(data, d.offset(start))
	return err
}

// --- Throttle: one charge (bytes dominate; perOp is charged once, as a
// single multi-block command) ----------------------------------------------

// ReadBlocks implements BlockRanger.
func (t *Throttle) ReadBlocks(start int64, buf []byte) error {
	t.pacer.Charge(len(buf))
	return ReadBlocks(t.dev, start, buf)
}

// WriteBlocks implements BlockRanger.
func (t *Throttle) WriteBlocks(start int64, data []byte) error {
	t.pacer.Charge(len(data))
	return WriteBlocks(t.dev, start, data)
}

// --- Stripe: split the extent into per-device contiguous runs -------------

// ReadBlocks implements BlockRanger.
func (s *Stripe) ReadBlocks(start int64, buf []byte) error {
	return s.rangeOp(start, len(buf), func(dev Device, phys int64, lo, hi int) error {
		return ReadBlocks(dev, phys, buf[lo:hi])
	})
}

// WriteBlocks implements BlockRanger.
func (s *Stripe) WriteBlocks(start int64, data []byte) error {
	return s.rangeOp(start, len(data), func(dev Device, phys int64, lo, hi int) error {
		return WriteBlocks(dev, phys, data[lo:hi])
	})
}

// rangeOp walks the extent in runs that stay within one stripe unit —
// the longest spans that are physically contiguous on one member — and
// applies op to each.
func (s *Stripe) rangeOp(start int64, n int, op func(dev Device, phys int64, lo, hi int) error) error {
	blocks, err := checkRange(s, start, n)
	if err != nil {
		return err
	}
	bs := s.blockSize
	for b := int64(0); b < blocks; {
		i := start + b
		dev, phys := s.Locate(i)
		// Run length: to the end of this stripe unit or the extent.
		run := s.unitBlocks - i%s.unitBlocks
		if run > blocks-b {
			run = blocks - b
		}
		lo := int(b) * bs
		hi := int(b+run) * bs
		if err := op(s.devs[dev], phys, lo, hi); err != nil {
			return err
		}
		b += run
	}
	return nil
}

var (
	_ BlockRanger = (*MemDisk)(nil)
	_ BlockRanger = (*FileDisk)(nil)
	_ BlockRanger = (*Throttle)(nil)
	_ BlockRanger = (*Stripe)(nil)
)
