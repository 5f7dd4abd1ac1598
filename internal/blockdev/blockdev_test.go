package blockdev

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestMemDiskReadWriteRoundTrip(t *testing.T) {
	d := NewMemDisk(512, 100)
	data := bytes.Repeat([]byte{0xAB}, 512)
	if err := d.WriteBlock(7, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := d.ReadBlock(7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read != written")
	}
}

func TestMemDiskUnwrittenReadsZero(t *testing.T) {
	d := NewMemDisk(512, 10)
	buf := bytes.Repeat([]byte{0xFF}, 512)
	if err := d.ReadBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten block not zero")
		}
	}
}

func TestMemDiskBounds(t *testing.T) {
	d := NewMemDisk(512, 10)
	buf := make([]byte, 512)
	if err := d.ReadBlock(10, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read past end: %v", err)
	}
	if err := d.ReadBlock(-1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative read: %v", err)
	}
	if err := d.WriteBlock(11, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write past end: %v", err)
	}
	if err := d.ReadBlock(0, make([]byte, 100)); !errors.Is(err, ErrBadSize) {
		t.Fatalf("short buffer: %v", err)
	}
}

func TestMemDiskWriteDoesNotAliasCaller(t *testing.T) {
	d := NewMemDisk(4, 4)
	data := []byte{1, 2, 3, 4}
	if err := d.WriteBlock(0, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 99
	buf := make([]byte, 4)
	if err := d.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatal("device aliased caller buffer")
	}
}

func TestMemDiskFailAndHeal(t *testing.T) {
	d := NewMemDisk(512, 10)
	d.Fail()
	buf := make([]byte, 512)
	if err := d.ReadBlock(0, buf); !errors.Is(err, ErrFailed) {
		t.Fatalf("read on failed disk: %v", err)
	}
	if err := d.WriteBlock(0, buf); !errors.Is(err, ErrFailed) {
		t.Fatalf("write on failed disk: %v", err)
	}
	if err := d.Flush(); !errors.Is(err, ErrFailed) {
		t.Fatalf("flush on failed disk: %v", err)
	}
	d.Heal()
	if err := d.ReadBlock(0, buf); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

func TestMemDiskCorruptionAndHealByRewrite(t *testing.T) {
	d := NewMemDisk(512, 10)
	data := bytes.Repeat([]byte{1}, 512)
	if err := d.WriteBlock(5, data); err != nil {
		t.Fatal(err)
	}
	d.CorruptBlock(5)
	buf := make([]byte, 512)
	if err := d.ReadBlock(5, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt read: %v", err)
	}
	if err := d.WriteBlock(5, data); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadBlock(5, buf); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
}

func TestMemDiskFailNext(t *testing.T) {
	d := NewMemDisk(512, 10)
	injected := errors.New("transient")
	d.FailNext(2, injected)
	buf := make([]byte, 512)
	if err := d.ReadBlock(2, buf); !errors.Is(err, injected) {
		t.Fatalf("injected error not returned: %v", err)
	}
	if err := d.ReadBlock(2, buf); err != nil {
		t.Fatalf("error persisted: %v", err)
	}
}

func TestMemDiskStats(t *testing.T) {
	d := NewMemDisk(512, 10)
	buf := make([]byte, 512)
	_ = d.WriteBlock(0, buf)
	_ = d.WriteBlock(1, buf)
	_ = d.ReadBlock(0, buf)
	r, w := d.Stats()
	if r != 1 || w != 2 {
		t.Fatalf("stats = %d reads %d writes", r, w)
	}
	if d.AllocatedBlocks() != 2 {
		t.Fatalf("allocated = %d", d.AllocatedBlocks())
	}
}

// Property: for random geometry, writing random data to random blocks
// and reading it back always matches (read-after-write).
func TestMemDiskReadAfterWriteProperty(t *testing.T) {
	d := NewMemDisk(64, 32)
	f := func(block uint8, fill byte) bool {
		i := int64(block % 32)
		data := bytes.Repeat([]byte{fill}, 64)
		if err := d.WriteBlock(i, data); err != nil {
			return false
		}
		buf := make([]byte, 64)
		if err := d.ReadBlock(i, buf); err != nil {
			return false
		}
		return bytes.Equal(buf, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMemDiskHangAndResume(t *testing.T) {
	d := NewMemDisk(512, 10)
	if err := d.WriteBlock(1, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	d.Hang()
	done := make(chan error, 2)
	go func() { done <- d.ReadBlock(1, make([]byte, 512)) }()
	go func() { done <- d.WriteBlock(2, make([]byte, 512)) }()
	select {
	case err := <-done:
		t.Fatalf("operation completed on a hung device: %v", err)
	case <-time.After(50 * time.Millisecond):
		// Wedged, as a hung drive should be: no error, no progress.
	}
	d.Resume()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("operation failed after resume: %v", err)
			}
		case <-time.After(time.Second):
			t.Fatal("operation still blocked after Resume")
		}
	}
	// A resumed device serves new traffic normally.
	if err := d.ReadBlock(1, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
}

func TestMemDiskHangResumeIdempotent(t *testing.T) {
	d := NewMemDisk(512, 10)
	d.Resume() // resume without hang is a no-op
	d.Hang()
	d.Hang() // double hang keeps one gate
	d.Resume()
	if err := d.ReadBlock(0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
}
