package drive

import (
	"reflect"
	"runtime"
	"testing"

	"nasd/internal/object"
)

// TestDecodeIDListReplyBoundsCount: the ID count comes from the wire,
// so a reply that claims more IDs than its bytes hold is an error, and
// it is refused before anything is allocated for the claimed count (a
// four-byte 0xffffffff once asked for 32 GiB). TotalAlloc counts every
// goroutine's allocations, the runtime's included, so the bytes are
// averaged over many decodes (as testing.AllocsPerRun averages counts):
// a stray allocation elsewhere in the process during the measurement
// cannot pass for the decoder's.
func TestDecodeIDListReplyBoundsCount(t *testing.T) {
	const runs = 100
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"max count, no IDs", []byte{0xff, 0xff, 0xff, 0xff}},
		{"two claimed, one present", append([]byte{2, 0, 0, 0}, make([]byte, 8)...)},
	} {
		var ids []uint64
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			ids, err = DecodeIDListReply(tc.in)
		}
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded %d IDs, want an error", tc.name, len(ids))
		}
		if grew := (after.TotalAlloc - before.TotalAlloc) / runs; grew >= 4096 {
			t.Errorf("%s: allocated %d bytes per decode, want under 4 KiB", tc.name, grew)
		}
	}
	ids, err := DecodeIDListReply(EncodeIDListReply([]uint64{7, 9}))
	if err != nil || !reflect.DeepEqual(ids, []uint64{7, 9}) {
		t.Fatalf("round trip: %v, %v", ids, err)
	}
}

// roundTrip decodes b and, when that succeeds, checks that the value
// re-encodes to bytes that decode to the same value.
func roundTrip[T any](t *testing.T, name string, b []byte, decode func([]byte) (T, error), encode func(*T) []byte) {
	t.Helper()
	v, err := decode(b)
	if err != nil {
		return
	}
	again, err := decode(encode(&v))
	if err != nil || !reflect.DeepEqual(again, v) {
		t.Fatalf("%s: %+v re-decodes to %+v (%v)", name, v, again, err)
	}
}

// FuzzProtoDecode runs every argument and reply decoder of the drive
// protocol on the same bytes: a drive decodes what any client sends,
// and a client what the drive answers. No decode may panic, an ID list
// may not hold more IDs than the bytes could carry, and whatever
// decodes must survive an encode/decode round trip unchanged.
func FuzzProtoDecode(f *testing.F) {
	key := KeyRef{Type: 2, Partition: 1, Version: 3}
	for _, seed := range [][]byte{
		(&ReadArgs{Partition: 1, Object: 2, Offset: 3, Length: 4}).Encode(),
		(&WriteArgs{Partition: 1, Object: 2, Offset: 3}).Encode(),
		(&ObjArgs{Partition: 1, Object: 2}).Encode(),
		(&SetAttrArgs{Partition: 1, Object: 2, Mask: 1, Attrs: object.Attributes{Size: 5}}).Encode(),
		(&PartArgs{Partition: 1, Quota: 100, Backend: WireBackendNeedle, AuthKey: key}).Encode(),
		(&SetKeyArgs{Target: key, Key: []byte("sixteen byte key"), AuthKey: key}).Encode(),
		(&ExecuteArgs{Partition: 1, Object: 2, Kernel: "scan", Params: []byte{1, 2}}).Encode(),
		(&StatsArgs{TraceN: 4, SpanTrace: 5, EventN: 6, EventMin: 1}).Encode(),
		EncodeIDListReply([]uint64{1, 2, 3}),
		{0xff, 0xff, 0xff, 0xff},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if ids, err := DecodeIDListReply(b); err == nil && len(ids) > len(b)/8 {
			t.Fatalf("%d IDs decoded from %d bytes", len(ids), len(b))
		}
		roundTrip(t, "ReadArgs", b, DecodeReadArgs, (*ReadArgs).Encode)
		roundTrip(t, "WriteArgs", b, DecodeWriteArgs, (*WriteArgs).Encode)
		roundTrip(t, "ObjArgs", b, DecodeObjArgs, (*ObjArgs).Encode)
		roundTrip(t, "SetAttrArgs", b, DecodeSetAttrArgs, (*SetAttrArgs).Encode)
		roundTrip(t, "PartArgs", b, DecodePartArgs, (*PartArgs).Encode)
		roundTrip(t, "SetKeyArgs", b, DecodeSetKeyArgs, (*SetKeyArgs).Encode)
		roundTrip(t, "ExecuteArgs", b, DecodeExecuteArgs, (*ExecuteArgs).Encode)
		roundTrip(t, "StatsArgs", b, DecodeStatsArgs, (*StatsArgs).Encode)
		roundTrip(t, "AttrsReply", b, DecodeAttrsReply, EncodeAttrsReply)
		roundTrip(t, "IDReply", b, DecodeIDReply, func(id *uint64) []byte { return EncodeIDReply(*id) })
		roundTrip(t, "IDListReply", b, DecodeIDListReply, func(ids *[]uint64) []byte { return EncodeIDListReply(*ids) })
		roundTrip(t, "PartReply", b, DecodePartReply, func(p *object.Partition) []byte { return EncodePartReply(*p) })
	})
}
