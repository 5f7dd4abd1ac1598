package journal

import (
	"bytes"
	"fmt"
	"testing"

	"nasd/internal/blockdev"
)

func newJournal(t *testing.T, blocks int64) (*blockdev.MemDisk, *Journal) {
	t.Helper()
	dev := blockdev.NewMemDisk(512, blocks+10)
	if err := Format(dev, 3, blocks); err != nil {
		t.Fatalf("Format: %v", err)
	}
	j, recs, _, err := Open(dev, 3, blocks, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal recovered %d records", len(recs))
	}
	return dev, j
}

func TestAppendCommitRecover(t *testing.T) {
	dev, j := newJournal(t, 64)
	var lsns []uint64
	for i := 0; i < 5; i++ {
		lsn, err := j.Append(KindOnode, EncodeOnode(nil, uint32(i), bytes.Repeat([]byte{byte(i)}, 100)))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		lsns = append(lsns, lsn)
	}
	if err := j.Commit(lsns[len(lsns)-1]); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	j2, recs, st, err := Open(dev, 3, 64, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st.TornTails != 0 {
		t.Fatalf("torn tails on clean journal: %d", st.TornTails)
	}
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Kind != KindOnode || r.LSN != lsns[i] {
			t.Fatalf("record %d = {%d %d}, want {%d %d}", i, r.Kind, r.LSN, KindOnode, lsns[i])
		}
		idx, img, err := DecodeOnode(r.Payload)
		if err != nil || idx != uint32(i) || len(img) != 100 || img[0] != byte(i) {
			t.Fatalf("record %d payload mismatch (err=%v idx=%d)", i, err, idx)
		}
	}
	if j2.Outstanding() != 5 {
		t.Fatalf("outstanding = %d, want 5", j2.Outstanding())
	}
}

func TestUncommittedNotRecovered(t *testing.T) {
	dev, j := newJournal(t, 64)
	if _, err := j.Append(KindPartTable, []byte("never committed")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	_, recs, _, err := Open(dev, 3, 64, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("recovered %d uncommitted records", len(recs))
	}
}

func TestGroupCommit(t *testing.T) {
	_, j := newJournal(t, 64)
	a, _ := j.Append(KindPartTable, []byte("a"))
	b, _ := j.Append(KindPartTable, []byte("b"))
	if err := j.Commit(b); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// a was covered by b's commit: this must be a no-op fast path.
	if err := j.Commit(a); err != nil {
		t.Fatalf("Commit(a): %v", err)
	}
}

func TestCheckpointKeepsUnapplied(t *testing.T) {
	dev, j := newJournal(t, 64)
	applied, _ := j.Append(KindPartTable, []byte("applied"))
	kept, _ := j.Append(KindNeedleSeg, EncodeNeedleSeg(7, []byte("kept")))
	if err := j.Commit(kept); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	j.Applied(applied)
	if err := j.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	_, recs, _, err := Open(dev, 3, 64, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d records after checkpoint, want 1", len(recs))
	}
	if recs[0].LSN != kept {
		t.Fatalf("kept LSN %d, want %d (original LSN must survive checkpoint)", recs[0].LSN, kept)
	}
	part, data, err := DecodeNeedleSeg(recs[0].Payload)
	if err != nil || part != 7 || string(data) != "kept" {
		t.Fatalf("kept payload mismatch: part=%d data=%q err=%v", part, data, err)
	}
}

func TestLSNsSurviveCheckpointAndGrow(t *testing.T) {
	_, j := newJournal(t, 64)
	a, _ := j.Append(KindPartTable, []byte("a"))
	j.Commit(a)
	if err := j.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	b, _ := j.Append(KindPartTable, []byte("b"))
	if b <= a {
		t.Fatalf("LSN went backwards after checkpoint: %d <= %d", b, a)
	}
}

func TestFullThenCheckpointFrees(t *testing.T) {
	_, j := newJournal(t, 16) // tiny: half = 7 blocks of 512 B
	payload := bytes.Repeat([]byte{0xAA}, 400)
	var last uint64
	filled := 0
	for i := 0; i < 100; i++ {
		lsn, err := j.Append(KindOnode, payload)
		if err == ErrFull {
			break
		}
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		last = lsn
		filled++
	}
	if filled == 0 || filled == 100 {
		t.Fatalf("expected to fill the journal, appended %d", filled)
	}
	if err := j.Commit(last); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Apply everything, checkpoint, and the journal must accept again.
	for lsn := uint64(1); lsn <= last; lsn++ {
		j.Applied(lsn)
	}
	if err := j.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := j.Append(KindOnode, payload); err != nil {
		t.Fatalf("Append after checkpoint: %v", err)
	}
}

func TestTornTailDetected(t *testing.T) {
	dev, j := newJournal(t, 64)
	lsn, _ := j.Append(KindOnode, bytes.Repeat([]byte{1}, 64))
	if err := j.Commit(lsn); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	lsn2, _ := j.Append(KindOnode, bytes.Repeat([]byte{2}, 64))
	if err := j.Commit(lsn2); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Corrupt a byte inside the second batch's payload: current
	// generation, bad CRC — the signature of a torn commit.
	buf := make([]byte, 512)
	if err := dev.ReadBlock(3+1+1, buf); err != nil { // header at 3, half base +1, batch 2 at +1
		t.Fatalf("read: %v", err)
	}
	buf[40] ^= 0xFF
	if err := dev.WriteBlock(3+1+1, buf); err != nil {
		t.Fatalf("write: %v", err)
	}

	_, recs, st, err := Open(dev, 3, 64, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) != 1 || recs[0].LSN != lsn {
		t.Fatalf("recovered %d records (want just the first batch)", len(recs))
	}
	if st.TornTails != 1 {
		t.Fatalf("torn tails = %d, want 1", st.TornTails)
	}
}

func TestResetDiscardsEverything(t *testing.T) {
	dev, j := newJournal(t, 64)
	lsn, _ := j.Append(KindPartTable, []byte("x"))
	j.Commit(lsn)
	if err := j.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	_, recs, _, err := Open(dev, 3, 64, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("recovered %d records after Reset", len(recs))
	}
}

func TestLargeRecordSpansBlocks(t *testing.T) {
	dev, j := newJournal(t, 64)
	big := make([]byte, 3*512+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	lsn, err := j.Append(KindPartTable, big)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Commit(lsn); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	_, recs, _, err := Open(dev, 3, 64, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0].Payload, big) {
		t.Fatalf("multi-block record did not round-trip")
	}
}

func TestRefUpdateCodec(t *testing.T) {
	blocks := []int64{5, 99, 1 << 40}
	refs := []uint16{1, 0, 7}
	b2, r2, err := DecodeRefUpdate(EncodeRefUpdate(blocks, refs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range blocks {
		if b2[i] != blocks[i] || r2[i] != refs[i] {
			t.Fatalf("pair %d: got {%d %d} want {%d %d}", i, b2[i], r2[i], blocks[i], refs[i])
		}
	}
	if _, _, err := DecodeRefUpdate([]byte{1, 2}); err == nil {
		t.Fatal("short payload must error")
	}
}

func TestConcurrentAppendCommit(t *testing.T) {
	_, j := newJournal(t, 1024)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				lsn, err := j.Append(KindOnode, []byte(fmt.Sprintf("g%d-%d", g, i)))
				if err != nil {
					done <- err
					return
				}
				if err := j.Commit(lsn); err != nil {
					done <- err
					return
				}
				j.Applied(lsn)
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if err := j.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if j.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after all applied", j.Outstanding())
	}
}

// callCounter counts device calls, ranged or not.
type callCounter struct {
	*blockdev.MemDisk
	reads, writes int
}

func (d *callCounter) ReadBlock(b int64, buf []byte) error {
	d.reads++
	return d.MemDisk.ReadBlock(b, buf)
}

func (d *callCounter) ReadBlocks(start int64, buf []byte) error {
	d.reads++
	return d.MemDisk.ReadBlocks(start, buf)
}

func (d *callCounter) WriteBlock(b int64, data []byte) error {
	d.writes++
	return d.MemDisk.WriteBlock(b, data)
}

func (d *callCounter) WriteBlocks(start int64, data []byte) error {
	d.writes++
	return d.MemDisk.WriteBlocks(start, data)
}

// TestCommitAndScanAreRangedCalls: a commit batch goes out as one device
// write however many blocks it spans, and mounting reads the header and
// then the active half in one call.
func TestCommitAndScanAreRangedCalls(t *testing.T) {
	dev := &callCounter{MemDisk: blockdev.NewMemDisk(512, 80)}
	if err := Format(dev, 3, 64); err != nil {
		t.Fatal(err)
	}
	j, _, _, err := Open(dev, 3, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lsn uint64
	for i := 0; i < 3; i++ { // one batch of three records over five blocks
		if lsn, err = j.Append(KindPartTable, bytes.Repeat([]byte{byte(i + 1)}, 700)); err != nil {
			t.Fatal(err)
		}
	}
	dev.writes = 0
	if err := j.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if dev.writes != 1 {
		t.Fatalf("commit of a five-block batch cost %d device writes, want 1", dev.writes)
	}
	dev.reads = 0
	_, recs, _, err := Open(dev, 3, 64, nil)
	if err != nil || len(recs) != 3 {
		t.Fatalf("reopen recovered %d records (%v), want 3", len(recs), err)
	}
	if dev.reads != 2 {
		t.Fatalf("mount cost %d device reads, want the header and one for the active half", dev.reads)
	}
}

// TestCheckpointWithLeavesNoEmptyJournal: the retry after ErrFull is one
// step. The new generation holds the retried record (and one another
// caller had appended but not committed) the moment it becomes the
// active one, so a mount at any point finds the journal empty only if
// nothing is in flight; the Commit the caller issues next is a no-op.
func TestCheckpointWithLeavesNoEmptyJournal(t *testing.T) {
	inner := blockdev.NewMemDisk(512, 32)
	dev := &callCounter{MemDisk: inner}
	if err := Format(dev, 3, 16); err != nil {
		t.Fatal(err)
	}
	j, _, _, err := Open(dev, 3, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAA}, 400)
	var applied []uint64
	for {
		lsn, err := j.Append(KindOnode, payload)
		if err == ErrFull {
			break
		}
		if err != nil || j.Commit(lsn) != nil {
			t.Fatalf("filling the journal: %v", err)
		}
		applied = append(applied, lsn)
	}
	j.Applied(applied...)
	waiting, err := j.Append(KindPartTable, []byte("pending")) // fits: small
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := j.CheckpointWith(KindOnode, payload)
	if err != nil || lsn != waiting+1 {
		t.Fatalf("CheckpointWith = lsn %d (%v), want %d", lsn, err, waiting+1)
	}
	dev.writes = 0
	if err := j.Commit(lsn); err != nil || j.Commit(waiting) != nil || dev.writes != 0 {
		t.Fatalf("Commit after CheckpointWith: %v, %d device writes, want none", err, dev.writes)
	}
	if j.Outstanding() != 2 {
		t.Fatalf("%d records outstanding, want the pending one and the retried one", j.Outstanding())
	}
	_, recs, st, err := Open(inner, 3, 16, nil)
	if err != nil || st.TornTails != 0 || len(recs) != 2 || recs[0].LSN != waiting || recs[1].LSN != lsn || !bytes.Equal(recs[1].Payload, payload) {
		t.Fatalf("mount after CheckpointWith: %d records, %+v (%v), want lsns %d and %d", len(recs), st, err, waiting, lsn)
	}
	if next, err := j.Append(KindOnode, payload); err != nil || next != lsn+1 {
		t.Fatalf("Append after CheckpointWith = lsn %d (%v), want %d", next, err, lsn+1)
	}
}

// TestBatchPaddingIsZeroed: a batch is staged in a pooled buffer, which
// may hold an older batch. What follows the records in the last block
// must still read as padding: a stale record header there would end the
// scan early and lose every later batch.
func TestBatchPaddingIsZeroed(t *testing.T) {
	dev, j := newJournal(t, 64)
	big, small := bytes.Repeat([]byte{1}, 500), []byte("0123456789")
	for round := 0; round < 4; round++ {
		// {big, small} leaves a record header where {big} alone ends.
		if _, err := j.Append(KindOnode, big); err != nil {
			t.Fatal(err)
		}
		lsn, err := j.Append(KindOnode, small)
		if err != nil || j.Commit(lsn) != nil {
			t.Fatal(err)
		}
		lsn, err = j.Append(KindOnode, big)
		if err != nil || j.Commit(lsn) != nil {
			t.Fatal(err)
		}
	}
	_, recs, st, err := Open(dev, 3, 64, nil)
	if err != nil || len(recs) != 12 || st.TornTails != 0 {
		t.Fatalf("mount found %d records and %d torn tails (%v), want 12 and 0", len(recs), st.TornTails, err)
	}
}
