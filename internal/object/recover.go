package object

import (
	"fmt"
	"time"

	"nasd/internal/journal"
	"nasd/internal/needle"
	"nasd/internal/telemetry"
)

// Mount-time recovery.
//
// layout.Open has already replayed the layout-level intent records
// (onode images, refcount updates) and handed the object-layer records
// back through RecoveredRecords. This file finishes the job:
//
//  1. recoverObjectRecords pins every block named by durable metadata —
//     onode-reachable blocks and the blocks listed in journaled needle
//     segment tables — by raising on-disk reference counts that a crash
//     left stale. Only then does it replay the newest partition-table
//     record and the newest segment-table record per partition, so the
//     allocations those replays perform cannot hand out a block that
//     durable metadata still claims.
//  2. finishRecovery (after the needle logs are open) recomputes every
//     data block's exact expected reference count from reachability,
//     repairs both leaks and losses, flushes the recovered state, and
//     resets the journal.
//
// Two invariants hold on return: every block reachable from an onode or
// needle segment has a reference count equal to the number of claims on
// it, and every unreachable data block is free.

// RecoveryInfo summarizes what mount-time recovery did. The zero value
// means the volume opened clean.
type RecoveryInfo struct {
	// Replayed is the number of committed journal records replayed
	// (layout-level and object-level combined).
	Replayed int
	// TornTails is the number of torn (partially persisted) record
	// batches the journal scan discarded.
	TornTails int
	// RefRepairs is the number of block reference counts corrected by
	// the reachability verification pass.
	RefRepairs int
	// Duration is the wall-clock time recovery took, including
	// verification.
	Duration time.Duration
}

// RecoveryInfo returns the summary of the recovery performed when this
// store was opened.
func (s *Store) RecoveryInfo() RecoveryInfo { return s.recovery }

// recoverObjectRecords loads the partition table — from the newest
// journaled copy when one is committed, from the control object
// otherwise — and replays the newest journaled segment table of each
// needle partition. Called from Open before the needle logs recover.
func (s *Store) recoverObjectRecords() error {
	lay := s.classic.lay
	recs, stats := lay.RecoveredRecords()
	s.recovery.Replayed = stats.Replayed
	s.recovery.TornTails = stats.TornTails

	// Newest record wins per scope: the whole table, and one segment
	// table per partition.
	var partsRec *journal.Record
	segRecs := make(map[uint16]journal.Record)
	for i := range recs {
		r := recs[i]
		switch r.Kind {
		case journal.KindPartTable:
			partsRec = &recs[i]
		case journal.KindNeedleSeg:
			part, _, err := journal.DecodeNeedleSeg(r.Payload)
			if err != nil {
				return fmt.Errorf("object: bad needle-segment journal record (lsn %d): %w", r.LSN, err)
			}
			segRecs[part] = r
		}
	}

	if stats.Replayed > 0 || stats.TornTails > 0 {
		if err := s.pinDurableBlocks(segRecs); err != nil {
			return err
		}
	}

	if partsRec != nil {
		parts, err := decodePartitions(partsRec.Payload)
		if err != nil {
			return fmt.Errorf("object: bad partition-table journal record (lsn %d): %w", partsRec.LSN, err)
		}
		s.lockParts()
		s.parts = parts
		// Rewrite the control object from the journaled image; this
		// journals a fresh superseding record, so the recovered one can
		// be retired.
		err = s.savePartitionsLocked()
		s.pmu.Unlock()
		if err != nil {
			return err
		}
		lay.JournalApplied(partsRec.LSN)
	} else if err := s.loadPartitions(); err != nil {
		return err
	}

	for part, rec := range segRecs {
		_, data, err := journal.DecodeNeedleSeg(rec.Payload)
		if err != nil {
			return fmt.Errorf("object: bad needle-segment journal record (lsn %d): %w", rec.LSN, err)
		}
		s.lockParts()
		p := s.parts[part]
		s.pmu.Unlock()
		if p == nil || p.Backend != BackendNeedle {
			// The partition was removed after the record was written;
			// nothing to restore.
			lay.JournalApplied(rec.LSN)
			continue
		}
		// Rewrite the segment-table object from the journaled image.
		// needleMeta.SaveSegments journals a superseding record (or, on
		// a full journal, writes through durably), after which the
		// recovered record can be retired.
		if err := (needleMeta{s}).SaveSegments(part, data); err != nil {
			return fmt.Errorf("object: replaying segment table of partition %d: %w", part, err)
		}
		lay.JournalApplied(rec.LSN)
	}
	return nil
}

// pinDurableBlocks raises any on-disk reference count below what
// durable metadata requires: blocks reachable from the (replayed) onode
// table and blocks listed in journaled needle segment tables. It never
// lowers a count — leak repair needs the needle logs open and happens
// in verifyRefs — so replay-time allocations see every claimed block as
// in use.
func (s *Store) pinDurableBlocks(segRecs map[uint16]journal.Record) error {
	lay := s.classic.lay
	expected, _, _, err := s.onodeRefs()
	if err != nil {
		return err
	}
	for _, rec := range segRecs {
		_, data, err := journal.DecodeNeedleSeg(rec.Payload)
		if err != nil {
			continue
		}
		blocks, err := needle.SegTableBlocks(data)
		if err != nil {
			// The record committed, so its CRC-checked payload should
			// decode; a failure here means the table format changed.
			return fmt.Errorf("object: undecodable journaled segment table (lsn %d): %w", rec.LSN, err)
		}
		sb := lay.Superblock()
		for _, blk := range blocks {
			if blk >= sb.DataStart && blk < sb.TotalBlocks && expected[blk] == 0 {
				expected[blk] = 1
			}
		}
	}
	for blk, want := range expected {
		if lay.RefCount(blk) < want {
			lay.RepairRef(blk, want)
			s.recovery.RefRepairs++
		}
	}
	return nil
}

// partCensus is what an onode walk implies a partition's accounting
// should be.
type partCensus struct {
	objects int64
	charge  int64
}

// onodeRefs walks every allocated onode and returns the per-block
// reference count the onode table implies (data and indirect blocks;
// copy-on-write sharing yields counts above one), the highest object ID
// seen, and a per-partition census of object counts and quota charges.
func (s *Store) onodeRefs() (map[int64]uint16, uint64, map[uint16]partCensus, error) {
	lay := s.classic.lay
	bs := uint64(lay.BlockSize())
	expected := make(map[int64]uint16)
	census := make(map[uint16]partCensus)
	var maxID uint64
	for _, id := range lay.ObjectIDs(0) {
		if id > maxID {
			maxID = id
		}
		idx, ok := lay.FindOnode(id)
		if !ok {
			continue
		}
		o, err := lay.ReadOnode(idx)
		if err != nil {
			return nil, 0, nil, err
		}
		var footprint int64
		if err := lay.ForEachBlock(&o, func(phys int64, _ bool) error {
			expected[phys]++
			footprint++
			return nil
		}); err != nil {
			return nil, 0, nil, err
		}
		if o.Partition != 0 {
			charge := footprint
			if res := int64((o.Prealloc + bs - 1) / bs); res > charge {
				charge = res
			}
			c := census[o.Partition]
			c.objects++
			c.charge += charge
			census[o.Partition] = c
		}
	}
	return expected, maxID, census, nil
}

// verifyRefs recomputes the exact expected reference count of every
// data block — onode reachability plus open needle logs — and repairs
// the on-disk counts in both directions: blocks metadata still claims
// get their counts raised, unreachable blocks are freed. Classic
// partition accounting (object counts, quota charges) is rebuilt from
// the same walk, since a crash can strand it between control-object
// saves. Returns the number of reference-count repairs.
func (s *Store) verifyRefs() (int, error) {
	lay := s.classic.lay
	expected, maxID, census, err := s.onodeRefs()
	if err != nil {
		return 0, err
	}
	s.lockParts()
	var needleParts []uint16
	for id, p := range s.parts {
		if p.Backend == BackendNeedle {
			needleParts = append(needleParts, id)
			continue
		}
		c := census[id]
		p.ObjectCount = c.objects
		p.UsedBlocks = c.charge
	}
	s.pmu.Unlock()
	for _, part := range needleParts {
		blocks, err := s.needle.eng.LogBlocks(part)
		if err != nil {
			return 0, err
		}
		for _, blk := range blocks {
			expected[blk]++
		}
	}
	// The volume-wide ID counter is persisted only at Sync; never
	// re-issue an ID a surviving onode carries.
	if maxID != 0 {
		lay.ReserveObjectIDs(maxID + 1)
	}
	sb := lay.Superblock()
	repairs := 0
	for blk := sb.DataStart; blk < sb.TotalBlocks; blk++ {
		want := expected[blk]
		if lay.RefCount(blk) != want {
			lay.RepairRef(blk, want)
			repairs++
		}
	}
	return repairs, nil
}

// finishRecovery runs after the needle logs are open: it verifies and
// repairs the block reference counts, makes the recovered state fully
// durable, and resets the journal. A volume whose journal scan came
// back empty is known consistent and skips all of it.
func (s *Store) finishRecovery(start time.Time) error {
	lay := s.classic.lay
	if s.recovery.Replayed == 0 && s.recovery.TornTails == 0 {
		return nil
	}
	repairs, err := s.verifyRefs()
	if err != nil {
		return err
	}
	s.recovery.RefRepairs += repairs
	// Flush drains every replayed effect (and marks the superseding
	// records applied); with the state durable the journal restarts
	// empty.
	if err := s.Flush(); err != nil {
		return err
	}
	if err := lay.JournalReset(); err != nil {
		return err
	}
	s.recovery.Duration = time.Since(start)
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Gauge("recovery_ms").Set(s.recovery.Duration.Milliseconds())
	}
	// Ref repairs mean durable metadata and the allocator disagreed —
	// expected after a crash, but worth a warning severity so operators
	// scanning the event log see which mounts did real repair work.
	sev := telemetry.SevInfo
	if s.recovery.RefRepairs > 0 {
		sev = telemetry.SevWarn
	}
	s.cfg.Events.Emitf(sev, "journal", "recovery",
		"replayed=%d torn_tails=%d ref_repairs=%d duration=%s",
		s.recovery.Replayed, s.recovery.TornTails, s.recovery.RefRepairs, s.recovery.Duration)
	return nil
}
