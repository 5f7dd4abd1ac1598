package journal

import (
	"testing"

	"nasd/internal/blockdev"
)

// FuzzJournalScan writes arbitrary bytes over the active half of a
// journal and mounts it: replay reads whatever a crash or a bad medium
// left there. Open must not panic, every record it returns must lie
// inside the half, and each payload decoder must take every record's
// payload without a panic.
func FuzzJournalScan(f *testing.F) {
	const start, blocks, bs = 3, 16, 512
	half := (blocks - 1) / 2 * bs

	// Seeds: a committed stream with a record of each kind, the same
	// stream with a byte flipped in its last batch, and an empty half.
	dev := blockdev.NewMemDisk(bs, start+blocks)
	if err := Format(dev, start, blocks); err != nil {
		f.Fatal(err)
	}
	j, _, _, err := Open(dev, start, blocks, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []struct {
		kind    Kind
		payload []byte
	}{
		{KindRefUpdate, EncodeRefUpdate([]int64{40, 41, 7}, []uint16{1, 2, 0})},
		{KindOnode, EncodeOnode(nil, 5, make([]byte, 300))},
		{KindPartTable, []byte("partitions")},
		{KindNeedleSeg, EncodeNeedleSeg(2, []byte{1, 2, 3, 4})},
	} {
		lsn, err := j.Append(r.kind, r.payload)
		if err != nil {
			f.Fatal(err)
		}
		if err := j.Commit(lsn); err != nil {
			f.Fatal(err)
		}
	}
	stream := make([]byte, half)
	if err := dev.ReadBlocks(start+1, stream); err != nil {
		f.Fatal(err)
	}
	f.Add(stream)
	torn := append([]byte(nil), stream...)
	torn[3*bs+40] ^= 0xff
	f.Add(torn)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dev := blockdev.NewMemDisk(bs, start+blocks)
		if err := Format(dev, start, blocks); err != nil {
			t.Fatal(err)
		}
		img := make([]byte, half)
		copy(img, data)
		if err := dev.WriteBlocks(start+1, img); err != nil {
			t.Fatal(err)
		}
		_, recs, _, err := Open(dev, start, blocks, nil)
		if err != nil {
			t.Fatalf("Open over a valid header: %v", err)
		}
		used := 0
		for _, r := range recs {
			if used += recHeaderSize + len(r.Payload); used > half {
				t.Fatalf("records take %d bytes of a %d-byte half", used, half)
			}
			_, _, _ = DecodeRefUpdate(r.Payload)
			_, _, _ = DecodeOnode(r.Payload)
			_, _, _ = DecodeNeedleSeg(r.Payload)
		}
	})
}
