package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func fillPattern(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i%251)
	}
}

// rangeDevices enumerates every device in the package.
func rangeDevices(t *testing.T) map[string]Device {
	t.Helper()
	const bs, blocks = 512, 64
	fd, err := CreateFileDisk(filepath.Join(t.TempDir(), "disk"), bs, blocks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fd.Close() })
	return map[string]Device{
		"memdisk":   NewMemDisk(bs, blocks),
		"filedisk":  fd,
		"throttle":  NewThrottle(NewMemDisk(bs, blocks), 0, 0),
		"instr":     Instrument(NewMemDisk(bs, blocks), nil),
		"crashdisk": NewCrashDisk(NewMemDisk(bs, blocks), 1),
	}
}

func TestRangeIORoundTrip(t *testing.T) {
	for name, dev := range rangeDevices(t) {
		t.Run(name, func(t *testing.T) {
			bs := dev.BlockSize()
			// A multi-block extent starting mid-device.
			data := make([]byte, 11*bs)
			fillPattern(data, 3)
			if err := dev.WriteBlocks(5, data); err != nil {
				t.Fatalf("WriteBlocks: %v", err)
			}
			got := make([]byte, len(data))
			if err := dev.ReadBlocks(5, got); err != nil {
				t.Fatalf("ReadBlocks: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("range round-trip mismatch")
			}
			// Per-block view must agree with the range view.
			one := make([]byte, bs)
			for b := 0; b < 11; b++ {
				if err := dev.ReadBlock(5+int64(b), one); err != nil {
					t.Fatalf("ReadBlock %d: %v", b, err)
				}
				if !bytes.Equal(one, data[b*bs:(b+1)*bs]) {
					t.Fatalf("block %d: range write not visible to block read", b)
				}
			}
		})
	}
}

func TestRangeIOBounds(t *testing.T) {
	for name, dev := range rangeDevices(t) {
		t.Run(name, func(t *testing.T) {
			bs := dev.BlockSize()
			if err := dev.ReadBlocks(dev.Blocks()-1, make([]byte, 2*bs)); err == nil {
				t.Error("read past end of device succeeded")
			}
			if err := dev.WriteBlocks(-1, make([]byte, bs)); err == nil {
				t.Error("write before start of device succeeded")
			}
			if err := dev.ReadBlocks(0, make([]byte, bs+1)); err == nil {
				t.Error("non-block-multiple range succeeded")
			}
		})
	}
}

func TestRangeIOFaults(t *testing.T) {
	const bs = 512
	d := NewMemDisk(bs, 16)
	buf := make([]byte, 4*bs)
	d.CorruptBlock(6)
	if err := d.ReadBlocks(4, buf); err == nil {
		t.Error("range read through corrupt block succeeded")
	}
	d.Fail()
	if err := d.ReadBlocks(0, buf); err == nil {
		t.Error("range read on failed device succeeded")
	}
	if err := d.WriteBlocks(0, buf); err == nil {
		t.Error("range write on failed device succeeded")
	}
	d.Heal()
	if err := d.WriteBlocks(4, buf); err != nil {
		t.Errorf("range write over healed corrupt block: %v", err)
	}
	if err := d.ReadBlocks(4, buf); err != nil {
		t.Errorf("rewrite did not heal corruption: %v", err)
	}
}

// TestReadBlockIsOneBlockRange: on every device ReadBlock(i) and a
// one-block ReadBlocks(i) return the same bytes and refuse the same
// inputs, and WriteBlock refuses what WriteBlocks does.
func TestReadBlockIsOneBlockRange(t *testing.T) {
	for name, dev := range rangeDevices(t) {
		t.Run(name, func(t *testing.T) {
			bs := dev.BlockSize()
			data := make([]byte, 3*bs)
			fillPattern(data, 7)
			if err := dev.WriteBlocks(10, data); err != nil {
				t.Fatal(err)
			}
			for i := int64(9); i < 14; i++ {
				one, ranged := make([]byte, bs), make([]byte, bs)
				if err := dev.ReadBlock(i, one); err != nil {
					t.Fatalf("ReadBlock %d: %v", i, err)
				}
				if err := dev.ReadBlocks(i, ranged); err != nil {
					t.Fatalf("ReadBlocks %d: %v", i, err)
				}
				if !bytes.Equal(one, ranged) {
					t.Fatalf("block %d: ReadBlock and ReadBlocks disagree", i)
				}
			}
			bad := []struct {
				i    int64
				n    int
				want error
			}{
				{-1, bs, ErrOutOfRange},
				{dev.Blocks(), bs, ErrOutOfRange},
				{0, bs - 1, ErrBadSize},
				{0, bs + 1, ErrBadSize},
			}
			for _, c := range bad {
				buf := make([]byte, c.n)
				for _, err := range []error{
					dev.ReadBlock(c.i, buf), dev.ReadBlocks(c.i, buf),
					dev.WriteBlock(c.i, buf), dev.WriteBlocks(c.i, buf),
				} {
					if !errors.Is(err, c.want) {
						t.Errorf("block %d, %d bytes: %v, want %v", c.i, c.n, err, c.want)
					}
				}
			}
			// Two blocks are a range, not a block.
			if err := dev.ReadBlock(0, make([]byte, 2*bs)); !errors.Is(err, ErrBadSize) {
				t.Errorf("two-block ReadBlock: %v, want %v", err, ErrBadSize)
			}
		})
	}
}

func TestFileDiskRangePersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk")
	fd, err := CreateFileDisk(path, 512, 32)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8*512)
	fillPattern(data, 1)
	if err := fd.WriteBlocks(3, data); err != nil {
		t.Fatal(err)
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
	fd2, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fd2.Close()
	got := make([]byte, len(data))
	if err := fd2.ReadBlocks(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("range write not durable across reopen")
	}
	_ = os.Remove(path)
}

func TestEachRun(t *testing.T) {
	var got [][2]int64
	collect := func(start int64, n int) error {
		got = append(got, [2]int64{start, int64(n)})
		return nil
	}
	if err := EachRun([]int64{3, 4, 5, 9, 10, 12, 11, 20, 21, 22, 23, 24}, 3, collect); err != nil {
		t.Fatal(err)
	}
	// Order is the caller's; a run ends at a gap, a step back, or the limit.
	want := [][2]int64{{3, 3}, {9, 2}, {12, 1}, {11, 1}, {20, 3}, {23, 2}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("runs = %v, want %v", got, want)
	}
	boom := errors.New("stop")
	calls := 0
	err := EachRun([]int64{1, 5, 9}, RunLimit, func(int64, int) error { calls++; return boom })
	if err != boom || calls != 1 {
		t.Fatalf("EachRun after an error: %v after %d calls, want the error after 1", err, calls)
	}
	if err := EachRun(nil, RunLimit, collect); err != nil || len(got) != len(want) {
		t.Fatalf("EachRun(nil) called fn or failed: %v", err)
	}
}
