package blockdev

import (
	"bytes"
	"errors"
	"testing"
)

func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func TestCrashDiskVolatileUntilFlush(t *testing.T) {
	inner := NewMemDisk(512, 64)
	d := NewCrashDisk(inner, 1)
	if err := d.WriteBlock(3, fill(0xAA, 512)); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Visible through the cache...
	buf := make([]byte, 512)
	if err := d.ReadBlock(3, buf); err != nil || buf[0] != 0xAA {
		t.Fatalf("read through overlay: %v %x", err, buf[0])
	}
	// ...but not on the inner device yet.
	if err := inner.ReadBlock(3, buf); err != nil || buf[0] != 0 {
		t.Fatalf("inner should be untouched before flush: %v %x", err, buf[0])
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := inner.ReadBlock(3, buf); err != nil || buf[0] != 0xAA {
		t.Fatalf("inner after flush: %v %x", err, buf[0])
	}
}

func TestCrashDropsUnflushed(t *testing.T) {
	inner := NewMemDisk(512, 64)
	d := NewCrashDisk(inner, 1)
	d.WriteBlock(1, fill(0x11, 512))
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	d.WriteBlock(2, fill(0x22, 512))
	d.Crash()

	if err := d.Flush(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash flush: %v", err)
	}
	buf := make([]byte, 512)
	if err := d.ReadBlock(1, buf); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: %v", err)
	}
	// The durable state survives on the inner device.
	if err := inner.ReadBlock(1, buf); err != nil || buf[0] != 0x11 {
		t.Fatalf("flushed block lost: %v %x", err, buf[0])
	}
	if err := inner.ReadBlock(2, buf); err != nil || buf[0] != 0 {
		t.Fatalf("unflushed block leaked to stable storage: %v %x", err, buf[0])
	}
}

func TestCrashMidFlushPersistsSubset(t *testing.T) {
	inner := NewMemDisk(512, 64)
	d := NewCrashDisk(inner, 42)
	for i := int64(0); i < 10; i++ {
		d.WriteBlock(i, fill(byte(i+1), 512))
	}
	d.SetCrashAfter(5) // crash on the 5th persist step
	if err := d.Flush(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("flush should crash: %v", err)
	}
	if !d.Crashed() {
		t.Fatal("disk not marked crashed")
	}
	persisted := 0
	buf := make([]byte, 512)
	for i := int64(0); i < 10; i++ {
		inner.ReadBlock(i, buf)
		if buf[0] == byte(i+1) {
			persisted++
		}
	}
	if persisted == 0 || persisted == 10 {
		t.Fatalf("mid-flush crash persisted %d of 10 blocks; want a strict subset", persisted)
	}
}

func TestCrashDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []byte {
		inner := NewMemDisk(512, 64)
		d := NewCrashDisk(inner, seed)
		for i := int64(0); i < 8; i++ {
			d.WriteBlock(i, fill(byte(i+1), 512))
		}
		d.SetCrashAfter(4)
		d.Flush()
		state := make([]byte, 8)
		buf := make([]byte, 512)
		for i := int64(0); i < 8; i++ {
			inner.ReadBlock(i, buf)
			state[i] = buf[0]
		}
		return state
	}
	if !bytes.Equal(run(7), run(7)) {
		t.Fatal("same seed produced different crash states")
	}
}

func TestTornWrite(t *testing.T) {
	// With tearing on, the crashing step leaves a sector-granular
	// partial write: a prefix of new sectors, old data in the rest.
	inner := NewMemDisk(4096, 64)
	d := NewCrashDisk(inner, 11)
	d.SetTearWrites(true)
	d.WriteBlock(0, fill(0x0D, 4096)) // the old durable contents
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	d.WriteBlock(0, fill(0xBB, 4096))
	d.SetCrashAfter(1)
	if err := d.Flush(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("flush should crash: %v", err)
	}
	buf := make([]byte, 4096)
	inner.ReadBlock(0, buf)
	cut := 0
	for cut < 4096 && buf[cut] == 0xBB {
		cut++
	}
	if cut == 0 || cut == 4096 {
		t.Fatalf("torn write persisted %d bytes; want a strict prefix", cut)
	}
	if cut%512 != 0 {
		t.Fatalf("tear at byte %d is not sector-aligned", cut)
	}
	for i := cut; i < 4096; i++ {
		if buf[i] != 0x0D {
			t.Fatalf("old data not preserved past the tear at byte %d", i)
		}
	}
}

func TestTornWriteSectorDeviceAtomic(t *testing.T) {
	// A 512-byte-block device is sector-atomic: the crashing write is
	// dropped whole, never torn.
	inner := NewMemDisk(512, 8)
	d := NewCrashDisk(inner, 3)
	d.SetTearWrites(true)
	d.WriteBlock(0, fill(0x0D, 512))
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	d.WriteBlock(0, fill(0xBB, 512))
	d.SetCrashAfter(1)
	if err := d.Flush(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("flush should crash: %v", err)
	}
	buf := make([]byte, 512)
	inner.ReadBlock(0, buf)
	for i, b := range buf {
		if b != 0x0D {
			t.Fatalf("sector write was torn at byte %d (%x)", i, b)
		}
	}
}

// TestCrashDiskRanged: a ranged read lays overlay blocks over the inner
// device's, and a crash before Flush loses a ranged write whole.
func TestCrashDiskRanged(t *testing.T) {
	const bs = 512
	inner := NewMemDisk(bs, 16)
	if err := inner.WriteBlocks(0, fill(0x11, 8*bs)); err != nil {
		t.Fatal(err)
	}
	d := NewCrashDisk(inner, 1)
	if err := d.WriteBlocks(2, fill(0x22, 3*bs)); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlock(6, fill(0x33, bs)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8*bs)
	if err := d.ReadBlocks(0, got); err != nil {
		t.Fatal(err)
	}
	for b, want := range []byte{0x11, 0x11, 0x22, 0x22, 0x22, 0x11, 0x33, 0x11} {
		if blk := got[b*bs : (b+1)*bs]; !bytes.Equal(blk, fill(want, bs)) {
			t.Errorf("block %d reads %#x, want %#x", b, blk[0], want)
		}
	}
	d.Crash()
	if err := d.ReadBlocks(0, got); !errors.Is(err, ErrCrashed) {
		t.Fatalf("ranged read after crash: %v", err)
	}
	if err := d.WriteBlocks(0, got); !errors.Is(err, ErrCrashed) {
		t.Fatalf("ranged write after crash: %v", err)
	}
	if err := inner.ReadBlocks(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(0x11, 8*bs)) {
		t.Fatal("a ranged write not flushed before the crash reached stable storage")
	}
}
