package layout

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"nasd/internal/blockdev"
)

// Property: onode encode/decode is a bijection over the full field
// space (the on-disk format loses nothing).
func TestOnodeCodecRoundTripProperty(t *testing.T) {
	f := func(objID uint64, part, flags uint16, ver, size, prealloc, cluster uint64,
		cSec, mSec, aSec int64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := Onode{
			ObjectID: objID, Partition: part, Flags: flags, Version: ver,
			Size: size, CreateSec: cSec, ModSec: mSec, AttrModSec: aSec,
			Prealloc: prealloc, Cluster: cluster,
		}
		rng.Read(o.Uninterp[:])
		for i := range o.Direct {
			o.Direct[i] = rng.Int63()
		}
		o.Indirect = rng.Int63()
		o.Indirect2 = rng.Int63()

		buf := make([]byte, OnodeSize)
		encodeOnode(buf, &o)
		got := decodeOnode(buf)
		return got == o
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: superblock encode/decode is a bijection.
func TestSuperblockCodecRoundTripProperty(t *testing.T) {
	f := func(bs uint32, total, jStart, jBlocks, refStart, refBlocks, oStart, oBlocks, dataStart, oCount int64, next uint64) bool {
		sb := Superblock{
			Magic: Magic, Version: FormatVersion, BlockSize: bs,
			TotalBlocks: total, RefStart: refStart, RefBlocks: refBlocks,
			OnodeStart: oStart, OnodeBlocks: oBlocks, DataStart: dataStart,
			OnodeCount: oCount, NextObjectID: next,
			JournalStart: jStart, JournalBlocks: jBlocks,
		}
		buf := make([]byte, 4096)
		encodeSuperblock(buf, &sb)
		got, err := decodeSuperblock(buf)
		return err == nil && got == sb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSuperblockRejectsBadMagicAndVersion(t *testing.T) {
	buf := make([]byte, 4096)
	sb := Superblock{Magic: Magic, Version: FormatVersion, BlockSize: 4096}
	encodeSuperblock(buf, &sb)
	buf[0] ^= 1
	if _, err := decodeSuperblock(buf); err == nil {
		t.Fatal("bad magic accepted")
	}
	encodeSuperblock(buf, &sb)
	buf[4] = 99 // version
	if _, err := decodeSuperblock(buf); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := decodeSuperblock(buf[:10]); err == nil {
		t.Fatal("short superblock accepted")
	}
}

// remount formats a small volume, rewrites its superblock through edit
// and mounts it again.
func remount(t *testing.T, edit func(sb *Superblock)) error {
	t.Helper()
	dev := blockdev.NewMemDisk(4096, 1024)
	s, err := Format(dev, FormatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sb := s.Superblock()
	edit(&sb)
	buf := make([]byte, 4096)
	encodeSuperblock(buf, &sb)
	if err := dev.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dev, OpenOptions{})
	return err
}

// TestOpenRefusesVolumeWithoutJournal: a volume with no journal region,
// version 1 or version 2 with a journal of zero blocks, is refused by
// name; every volume this package mounts is journaled.
func TestOpenRefusesVolumeWithoutJournal(t *testing.T) {
	for name, edit := range map[string]func(sb *Superblock){
		"version 1": func(sb *Superblock) {
			sb.Version, sb.JournalStart, sb.JournalBlocks = 1, 0, 0
		},
		"version 2, journal of 0 blocks": func(sb *Superblock) {
			sb.JournalStart, sb.JournalBlocks = 0, 0
		},
	} {
		if err := remount(t, edit); !errors.Is(err, ErrNoJournal) {
			t.Errorf("%s: Open = %v, want %v", name, err, ErrNoJournal)
		}
	}
	if _, err := Format(blockdev.NewMemDisk(4096, 1024), FormatOptions{JournalBlocks: -8}); err == nil {
		t.Error("Format with a negative journal size succeeded")
	}
}

// TestOpenRefusesCorruptSuperblock: geometry read from the disk is
// checked against the device before anything is sized by it, so a
// corrupt superblock is an error, not a panic or an allocation of the
// size it claims.
func TestOpenRefusesCorruptSuperblock(t *testing.T) {
	for name, edit := range map[string]func(sb *Superblock){
		"negative size":        func(sb *Superblock) { sb.TotalBlocks = -1 },
		"larger than device":   func(sb *Superblock) { sb.TotalBlocks = 1 << 40 },
		"regions out of order": func(sb *Superblock) { sb.OnodeStart = sb.RefStart },
		"data past the end":    func(sb *Superblock) { sb.DataStart = sb.TotalBlocks },
		"too few refcounts":    func(sb *Superblock) { sb.RefBlocks = 0 },
		"too many onodes":      func(sb *Superblock) { sb.OnodeCount = sb.OnodeBlocks*8 + 1 },
	} {
		if err := remount(t, edit); !errors.Is(err, ErrBadSuperblock) {
			t.Errorf("%s: Open = %v, want %v", name, err, ErrBadSuperblock)
		}
	}
}

// FuzzSuperblock: decoding and validating a superblock never panics,
// and one validate accepts lays its regions out in order inside the
// device, counts every block and holds every onode. The fields are the
// fuzzer's arguments, so its small steps probe each bound.
func FuzzSuperblock(f *testing.F) {
	const bs, devBlocks = 512, 2048 // several refcount blocks, one onode a block
	s, err := Format(blockdev.NewMemDisk(bs, devBlocks), FormatOptions{})
	if err != nil {
		f.Fatal(err)
	}
	sb := s.Superblock()
	f.Add(sb.Version, sb.BlockSize, sb.TotalBlocks, sb.JournalStart, sb.JournalBlocks, sb.RefStart, sb.RefBlocks, sb.OnodeStart, sb.OnodeBlocks, sb.DataStart, sb.OnodeCount)
	f.Add(sb.Version, sb.BlockSize, int64(1<<40), sb.JournalStart, sb.JournalBlocks, sb.RefStart, sb.RefBlocks, sb.OnodeStart, sb.OnodeBlocks, sb.DataStart, sb.OnodeCount)
	f.Fuzz(func(t *testing.T, version, blockSize uint32, total, jStart, jBlocks, refStart, refBlocks, oStart, oBlocks, dataStart, oCount int64) {
		buf := make([]byte, bs)
		encodeSuperblock(buf, &Superblock{
			Magic: Magic, Version: version, BlockSize: blockSize, TotalBlocks: total,
			JournalStart: jStart, JournalBlocks: jBlocks, RefStart: refStart, RefBlocks: refBlocks,
			OnodeStart: oStart, OnodeBlocks: oBlocks, DataStart: dataStart, OnodeCount: oCount,
		})
		sb, err := decodeSuperblock(buf)
		if err != nil || sb.validate(bs, devBlocks) != nil {
			return
		}
		regions := [][2]int64{ // {start, blocks}
			{0, 1},
			{sb.JournalStart, sb.JournalBlocks},
			{sb.RefStart, sb.RefBlocks},
			{sb.OnodeStart, sb.OnodeBlocks},
			{sb.DataStart, sb.TotalBlocks - sb.DataStart},
		}
		end := int64(0)
		for _, r := range regions {
			if r[0] < end || r[1] < 0 || r[1] > devBlocks || r[0]+r[1] > sb.TotalBlocks {
				t.Fatalf("accepted %+v: region %v overlaps or leaves [0, %d)", sb, r, sb.TotalBlocks)
			}
			end = r[0] + r[1]
		}
		switch {
		case sb.TotalBlocks > devBlocks || sb.JournalBlocks == 0 || sb.DataStart == sb.TotalBlocks:
			t.Fatalf("accepted %+v on a device of %d blocks", sb, devBlocks)
		case sb.RefBlocks*(bs/2) < sb.TotalBlocks:
			t.Fatalf("accepted %+v: refcounts do not cover the volume", sb)
		case sb.OnodeCount < 0 || sb.OnodeCount > sb.OnodeBlocks*(bs/OnodeSize):
			t.Fatalf("accepted %+v: the onode table does not hold OnodeCount onodes", sb)
		}
	})
}
