package blockdev

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestFileDiskRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.img")
	d, err := CreateFileDisk(path, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.BlockSize() != 512 || d.Blocks() != 64 {
		t.Fatalf("geometry = %dx%d", d.BlockSize(), d.Blocks())
	}
	data := bytes.Repeat([]byte{0xAB}, 512)
	if err := d.WriteBlock(7, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := d.ReadBlock(7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("round trip failed")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestFileDiskPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.img")
	d, err := CreateFileDisk(path, 4096, 32)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("durable!"), 512)
	if err := d.WriteBlock(3, data); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.BlockSize() != 4096 || d2.Blocks() != 32 {
		t.Fatalf("geometry lost: %dx%d", d2.BlockSize(), d2.Blocks())
	}
	buf := make([]byte, 4096)
	if err := d2.ReadBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("data lost across reopen")
	}
}

func TestFileDiskBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.img")
	d, err := CreateFileDisk(path, 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := make([]byte, 512)
	if err := d.ReadBlock(8, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read past end: %v", err)
	}
	if err := d.WriteBlock(-1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative write: %v", err)
	}
	if err := d.ReadBlock(0, make([]byte, 100)); !errors.Is(err, ErrBadSize) {
		t.Fatalf("short buffer: %v", err)
	}
}

func TestOpenFileDiskRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-disk")
	if err := os.WriteFile(path, bytes.Repeat([]byte{1}, 8192), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDisk(path); err == nil {
		t.Fatal("garbage file accepted")
	}
	if _, err := OpenFileDisk(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	// A header the magic vouches for must still describe a geometry
	// the file holds.
	for name, c := range map[string]struct {
		bs, blocks uint64
		size       int64
	}{
		"zero block size":  {0, 8, headerSize + 8*512},
		"zero blocks":      {512, 0, headerSize},
		"negative size":    {1 << 63, 8, headerSize + 8*512},
		"negative blocks":  {512, 1 << 63, headerSize},
		"extent overflows": {1 << 32, 1 << 32, headerSize},
		"file too short":   {512, 8, headerSize + 7*512},
		"header only":      {512, 8, headerSize},
		"one byte too few": {512, 8, headerSize + 8*512 - 1},
	} {
		hdr := make([]byte, headerSize)
		copy(hdr, fileDiskMagic)
		binary.LittleEndian.PutUint64(hdr[8:], c.bs)
		binary.LittleEndian.PutUint64(hdr[16:], c.blocks)
		p := filepath.Join(t.TempDir(), "disk")
		if err := os.WriteFile(p, hdr, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(p, c.size); err != nil {
			t.Fatal(err)
		}
		if d, err := OpenFileDisk(p); err == nil {
			d.Close()
			t.Errorf("%s: header %dx%d on a %d-byte file accepted", name, c.bs, c.blocks, c.size)
		}
	}
}

func TestCreateFileDiskRejectsBadGeometry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.img")
	if _, err := CreateFileDisk(path, 0, 8); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := CreateFileDisk(path, 512, 0); err == nil {
		t.Fatal("zero blocks accepted")
	}
}
