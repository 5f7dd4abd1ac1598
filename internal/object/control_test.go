package object

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

// TestDecodePartitionsRejects: every control-object image that is not a
// whole current-version table is refused with an error that names what
// is wrong with it; the good image beside them decodes.
func TestDecodePartitionsRejects(t *testing.T) {
	p1 := Partition{ID: 1, QuotaBlocks: 100, UsedBlocks: 7, ObjectCount: 2, Backend: BackendNeedle, metaSegs: 11, metaIdx: 12}
	good := encodePartitions(map[uint16]*Partition{1: &p1, 2: {ID: 2}})
	parts, err := decodePartitions(good)
	if err != nil || len(parts) != 2 || *parts[1] != p1 {
		t.Fatalf("current table did not round-trip: %+v, %v", parts, err)
	}

	// The pre-backend encoding: a bare count, then 26-byte records.
	v1 := make([]byte, 4+26)
	binary.LittleEndian.PutUint32(v1, 1)
	binary.LittleEndian.PutUint16(v1[4:], 1)

	future := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(future[4:], partTableVersion+1)

	for _, tc := range []struct {
		name string
		b    []byte
		want string
	}{
		{"v1 table", v1, "pre-backend (v1) volume"},
		{"truncated v2 table", good[:len(good)-1], "truncated (2 partitions"},
		{"unknown version", future, "unsupported partition table version 3"},
	} {
		parts, err := decodePartitions(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decoded %d partitions, err %v; want an error containing %q", tc.name, len(parts), err, tc.want)
		}
	}
}

// FuzzPartitionTable: decoding arbitrary control-object bytes never
// panics, and a table that decodes re-encodes to one that decodes to
// the same partitions.
func FuzzPartitionTable(f *testing.F) {
	f.Add(encodePartitions(map[uint16]*Partition{
		1: {ID: 1, QuotaBlocks: 100, UsedBlocks: 7, ObjectCount: 2, Backend: BackendNeedle, metaSegs: 11, metaIdx: 12},
		2: {ID: 2},
	}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 2, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		parts, err := decodePartitions(b)
		if err != nil {
			return
		}
		again, err := decodePartitions(encodePartitions(parts))
		if err != nil || !reflect.DeepEqual(again, parts) {
			t.Fatalf("round trip: got %+v (%v), want %+v", again, err, parts)
		}
	})
}
