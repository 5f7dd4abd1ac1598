package object

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nasd/internal/journal"
	"nasd/internal/layout"
)

// The partition table is persisted in the drive's well-known control
// object (ControlObject, partition 0), so a reopened drive recovers its
// partitions, quotas, and usage accounting without rescanning.
//
// The table starts with a sentinel word and a version, then carries
// per record the usage accounting, the backend kind and the needle
// metadata object IDs. The pre-backend (v1) table began with a bare
// u32 partition count instead; such volumes are rejected by name, not
// decoded.

const (
	partitionRecordSizeV2 = 2 + 8 + 8 + 8 + 1 + 8 + 8

	// partTableSentinel marks a versioned table; it cannot be a v1
	// count (the partition ID space is 16-bit).
	partTableSentinel = 0xFFFFFFFF
	partTableVersion  = 2
)

func encodePartitions(parts map[uint16]*Partition) []byte {
	b := make([]byte, 4+4+4+len(parts)*partitionRecordSizeV2)
	le := binary.LittleEndian
	le.PutUint32(b, partTableSentinel)
	le.PutUint32(b[4:], partTableVersion)
	le.PutUint32(b[8:], uint32(len(parts)))
	off := 12
	for _, p := range parts {
		le.PutUint16(b[off:], p.ID)
		le.PutUint64(b[off+2:], uint64(p.QuotaBlocks))
		le.PutUint64(b[off+10:], uint64(p.UsedBlocks))
		le.PutUint64(b[off+18:], uint64(p.ObjectCount))
		b[off+26] = byte(p.Backend)
		le.PutUint64(b[off+27:], p.metaSegs)
		le.PutUint64(b[off+35:], p.metaIdx)
		off += partitionRecordSizeV2
	}
	return b
}

func decodePartitions(b []byte) (map[uint16]*Partition, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("object: control object too short (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	if w := le.Uint32(b); w != partTableSentinel {
		return nil, fmt.Errorf("object: partition table starts with %#x, not the version sentinel: a pre-backend (v1) volume, which this build no longer reads", w)
	}
	if len(b) < 12 {
		return nil, fmt.Errorf("object: control object too short (%d bytes)", len(b))
	}
	if v := le.Uint32(b[4:]); v != partTableVersion {
		return nil, fmt.Errorf("object: unsupported partition table version %d", v)
	}
	n := int(le.Uint32(b[8:]))
	if len(b) < 12+n*partitionRecordSizeV2 {
		return nil, fmt.Errorf("object: control object truncated (%d partitions, %d bytes)", n, len(b))
	}
	parts := make(map[uint16]*Partition, n)
	off := 12
	for i := 0; i < n; i++ {
		p := &Partition{
			ID:          le.Uint16(b[off:]),
			QuotaBlocks: int64(le.Uint64(b[off+2:])),
			UsedBlocks:  int64(le.Uint64(b[off+10:])),
			ObjectCount: int64(le.Uint64(b[off+18:])),
			Backend:     BackendKind(b[off+26]),
			metaSegs:    le.Uint64(b[off+27:]),
			metaIdx:     le.Uint64(b[off+35:]),
		}
		parts[p.ID] = p
		off += partitionRecordSizeV2
	}
	return parts, nil
}

// savePartitionsLocked persists the partition table to the control
// object. Caller holds pmu (which also covers the control object's
// onode and blocks — no user object maps onto them). On a journaled
// volume the encoded table is committed to the write-ahead journal
// first, so a crash that loses the buffered control-object write
// replays the table at the next mount; each new record supersedes the
// previous one, which is retired immediately.
func (s *Store) savePartitionsLocked() error {
	data := encodePartitions(s.parts)
	lay := s.classic.lay
	if lay.JournalEnabled() {
		lsn, err := lay.JournalAppend(journal.KindPartTable, data)
		switch {
		case errors.Is(err, journal.ErrFull):
			// The table cannot fit even after compaction. Proceed with
			// the buffered write alone — pre-journal durability: the
			// table is safe at the next Flush.
		case err != nil:
			return err
		default:
			if s.partsLSN != 0 {
				lay.JournalApplied(s.partsLSN)
			}
			s.partsLSN = lsn
		}
	}
	idx, ok := lay.FindOnode(ControlObject)
	var o layout.Onode
	if ok {
		var err error
		o, err = lay.ReadOnode(idx)
		if err != nil {
			return err
		}
	} else {
		var err error
		idx, err = lay.AllocOnode()
		if err != nil {
			return err
		}
		o = layout.Onode{ObjectID: ControlObject, Partition: 0, Version: 1}
	}
	if err := s.classic.writeRaw(&o, data); err != nil {
		return err
	}
	return lay.WriteOnode(idx, &o)
}

// loadPartitions reads the partition table from the control object.
func (s *Store) loadPartitions() error {
	s.lockParts()
	defer s.pmu.Unlock()
	data, err := s.classic.loadRaw(ControlObject)
	if err != nil {
		if errors.Is(err, ErrNoObject) {
			return fmt.Errorf("object: control object missing; not an object store")
		}
		return err
	}
	parts, err := decodePartitions(data)
	if err != nil {
		return err
	}
	s.parts = parts
	return nil
}

// metaIDs returns the partition-0 object IDs holding a needle
// partition's segment table and index snapshot.
func (s *Store) metaIDs(part uint16) (segs, idx uint64, err error) {
	s.lockParts()
	defer s.pmu.Unlock()
	p := s.parts[part]
	if p == nil {
		return 0, 0, ErrNoPartition
	}
	if p.Backend != BackendNeedle {
		return 0, 0, ErrBackendMismatch
	}
	return p.metaSegs, p.metaIdx, nil
}
