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

// rangeDevices enumerates every BlockRanger implementation plus a
// plain-interface fallback wrapper, so each case exercises both the
// native range path and the per-block loop.
func rangeDevices(t *testing.T) map[string]Device {
	t.Helper()
	const bs, blocks = 512, 64
	fd, err := CreateFileDisk(filepath.Join(t.TempDir(), "disk"), bs, blocks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fd.Close() })
	d1 := NewMemDisk(bs, blocks)
	d2 := NewMemDisk(bs, blocks)
	stripe, err := NewStripe([]Device{d1, d2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Device{
		"memdisk":  NewMemDisk(bs, blocks),
		"filedisk": fd,
		"stripe":   stripe,
		"throttle": NewThrottle(NewMemDisk(bs, blocks), 0, 0),
		"instr":    Instrument(NewMemDisk(bs, blocks), nil),
		"fallback": opaqueDevice{NewMemDisk(bs, blocks)},
	}
}

// opaqueDevice hides any BlockRanger implementation, forcing the
// package-level fallback loop.
type opaqueDevice struct{ d Device }

func (o opaqueDevice) BlockSize() int                      { return o.d.BlockSize() }
func (o opaqueDevice) Blocks() int64                       { return o.d.Blocks() }
func (o opaqueDevice) ReadBlock(i int64, buf []byte) error { return o.d.ReadBlock(i, buf) }
func (o opaqueDevice) WriteBlock(i int64, b []byte) error  { return o.d.WriteBlock(i, b) }
func (o opaqueDevice) Flush() error                        { return o.d.Flush() }

func TestRangeIORoundTrip(t *testing.T) {
	for name, dev := range rangeDevices(t) {
		t.Run(name, func(t *testing.T) {
			bs := dev.BlockSize()
			// Extent crossing several stripe units and starting mid-device.
			data := make([]byte, 11*bs)
			fillPattern(data, 3)
			if err := WriteBlocks(dev, 5, data); err != nil {
				t.Fatalf("WriteBlocks: %v", err)
			}
			got := make([]byte, len(data))
			if err := ReadBlocks(dev, 5, got); err != nil {
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
			if err := ReadBlocks(dev, dev.Blocks()-1, make([]byte, 2*bs)); err == nil {
				t.Error("read past end of device succeeded")
			}
			if err := WriteBlocks(dev, -1, make([]byte, bs)); err == nil {
				t.Error("write before start of device succeeded")
			}
			if err := ReadBlocks(dev, 0, make([]byte, bs+1)); err == nil {
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

func TestStripeRangeSplitsRuns(t *testing.T) {
	const bs, unit = 512, 4
	d1 := NewMemDisk(bs, 64)
	d2 := NewMemDisk(bs, 64)
	s, err := NewStripe([]Device{d1, d2}, unit)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 16*bs) // four full units, alternating devices
	fillPattern(data, 9)
	if err := s.WriteBlocks(2, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	for b := 0; b < 16; b++ {
		if err := s.ReadBlock(2+int64(b), got[b*bs:(b+1)*bs]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stripe range write scattered incorrectly")
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
