package blockdev

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
)

// ErrCrashed is returned by every CrashDisk operation after Crash.
var ErrCrashed = errors.New("blockdev: crashed")

// CrashDisk models a drive with a volatile write cache for crash-
// consistency testing. Writes land in an in-memory overlay; Flush
// persists the overlay to the inner device — in a seeded-shuffled
// order, because a real cache destages with no ordering guarantee.
// Crash discards whatever the overlay still holds, so everything
// written since the last completed Flush is lost.
//
// A crash budget (SetCrashAfter) arms a deterministic mid-flush crash:
// the Nth persist step fails, leaving a random subset of the flushing
// batch durable and — optionally — one torn block whose tail is
// zeroed mid-write. Walking N across a mutation history visits every
// intermediate persistence state, which is what the crash-harness
// property test sweeps.
type CrashDisk struct {
	mu      sync.Mutex
	inner   Device
	rng     *rand.Rand
	overlay map[int64][]byte

	crashed    bool
	armed      bool
	budget     int64 // persist steps remaining before the crash fires
	steps      int64 // total persist steps so far
	tearWrites bool
}

// NewCrashDisk wraps inner with the given deterministic seed.
func NewCrashDisk(inner Device, seed int64) *CrashDisk {
	return &CrashDisk{
		inner:   inner,
		rng:     rand.New(rand.NewSource(seed)),
		overlay: make(map[int64][]byte),
	}
}

// SetCrashAfter arms a crash that fires on the n-th future persist
// step (a single block moving from overlay to inner during Flush).
// n <= 0 disarms.
func (d *CrashDisk) SetCrashAfter(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.armed = n > 0
	d.budget = n
}

// SetTearWrites controls whether the crashing persist step writes a
// torn block instead of dropping it entirely. A torn block is a
// sector-granular partial write — a prefix of 512-byte sectors carries
// the new data, the rest keeps the old contents — matching the sector
// atomicity real disks guarantee. Both outcomes are legal for real
// media.
func (d *CrashDisk) SetTearWrites(tear bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tearWrites = tear
}

// Steps returns how many persist steps have executed, which bounds the
// crash-point space for a given workload.
func (d *CrashDisk) Steps() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.steps
}

// Crash drops the volatile overlay immediately: every write since the
// last completed Flush is lost and all subsequent operations return
// ErrCrashed. The persisted state remains readable through the inner
// device (reopen it to simulate a restart).
func (d *CrashDisk) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed = true
	d.overlay = make(map[int64][]byte)
}

// Crashed reports whether the disk has crashed.
func (d *CrashDisk) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// BlockSize implements Device.
func (d *CrashDisk) BlockSize() int { return d.inner.BlockSize() }

// Blocks implements Device.
func (d *CrashDisk) Blocks() int64 { return d.inner.Blocks() }

// ReadBlock implements Device.
func (d *CrashDisk) ReadBlock(i int64, buf []byte) error { return readOne(d, i, buf) }

// WriteBlock implements Device.
func (d *CrashDisk) WriteBlock(i int64, data []byte) error { return writeOne(d, i, data) }

// ReadBlocks implements Device: overlay blocks over the inner device's,
// whose runs between them go down as ranged reads.
func (d *CrashDisk) ReadBlocks(start int64, buf []byte) error {
	blocks, err := checkRange(d, start, len(buf))
	if err != nil {
		return err
	}
	bs := int64(d.BlockSize())
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	for b := int64(0); b < blocks; {
		if ov, ok := d.overlay[start+b]; ok {
			copy(buf[b*bs:], ov)
			b++
			continue
		}
		e := b + 1
		for e < blocks && d.overlay[start+e] == nil {
			e++
		}
		if err := d.inner.ReadBlocks(start+b, buf[b*bs:e*bs]); err != nil {
			return err
		}
		b = e
	}
	return nil
}

// WriteBlocks implements Device: the extent lands in the volatile
// overlay only, one block per entry, so Flush destages it block by
// block and a crash can tear it between any two.
func (d *CrashDisk) WriteBlocks(start int64, data []byte) error {
	blocks, err := checkRange(d, start, len(data))
	if err != nil {
		return err
	}
	bs := int64(d.BlockSize())
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	for b := int64(0); b < blocks; b++ {
		ov, ok := d.overlay[start+b]
		if !ok {
			ov = make([]byte, bs)
			d.overlay[start+b] = ov
		}
		copy(ov, data[b*bs:])
	}
	return nil
}

// Flush implements Device: destage the overlay to the inner device in
// a shuffled order. If the armed crash budget runs out mid-destage the
// flush fails with ErrCrashed, the remaining overlay is dropped, and
// the disk is crashed — a random subset of the batch made it to
// stable storage, possibly with one torn block.
func (d *CrashDisk) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	blocks := make([]int64, 0, len(d.overlay))
	for i := range d.overlay {
		blocks = append(blocks, i)
	}
	// Sort first so the shuffle is a deterministic function of the
	// seed and the set, not of map iteration order.
	sort.Slice(blocks, func(a, b int) bool { return blocks[a] < blocks[b] })
	d.rng.Shuffle(len(blocks), func(a, b int) { blocks[a], blocks[b] = blocks[b], blocks[a] })
	for _, i := range blocks {
		data := d.overlay[i]
		if d.armed {
			d.budget--
			if d.budget <= 0 {
				if sectors := len(data) / 512; d.tearWrites && sectors > 1 {
					// Persist a strict sector prefix of the new data;
					// unwritten sectors keep their old contents.
					torn := make([]byte, len(data))
					if err := d.inner.ReadBlock(i, torn); err != nil {
						for j := range torn {
							torn[j] = 0
						}
					}
					cut := (1 + d.rng.Intn(sectors-1)) * 512
					copy(torn[:cut], data[:cut])
					d.inner.WriteBlock(i, torn)
				}
				d.crashed = true
				d.overlay = make(map[int64][]byte)
				return ErrCrashed
			}
		}
		d.steps++
		if err := d.inner.WriteBlock(i, data); err != nil {
			return err
		}
		delete(d.overlay, i)
	}
	return d.inner.Flush()
}
