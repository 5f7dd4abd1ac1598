package drive

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/crypt"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

func TestOpString(t *testing.T) {
	if OpReadObject.String() != "read" || OpSetKey.String() != "setkey" {
		t.Fatal("op names wrong")
	}
	if Op(999).String() == "" {
		t.Fatal("unknown op empty")
	}
}

func TestUnknownOpRejected(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 1024)
	d, err := NewFormat(dev, Config{ID: 1, Master: crypt.NewRandomKey()})
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Handle(&rpc.Request{Proc: 999})
	if rep.Status != rpc.StatusBadRequest {
		t.Fatalf("status = %v", rep.Status)
	}
}

func TestMalformedArgsRejected(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 1024)
	d, err := NewFormat(dev, Config{ID: 1, Master: crypt.NewRandomKey()})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op{OpReadObject, OpWriteObject, OpGetAttr, OpSetAttr,
		OpCreateObject, OpCreatePartition, OpSetKey, OpExecute} {
		rep := d.Handle(&rpc.Request{Proc: uint16(op), Args: []byte{1}})
		if rep.Status != rpc.StatusBadRequest {
			t.Errorf("%v with truncated args: %v", op, rep.Status)
		}
	}
}

func TestOpenRebuildsPartitionKeys(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 2048)
	master := crypt.NewRandomKey()
	d, err := NewFormat(dev, Config{ID: 1, Master: master})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store().CreatePartition(3, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Keys().AddPartition(3); err != nil {
		t.Fatal(err)
	}
	if err := d.Store().Flush(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dev, Config{ID: 1, Master: master})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d2.Keys().CurrentWorkingKey(3); err != nil {
		t.Fatalf("partition keys not rebuilt: %v", err)
	}
}

func TestProtoRoundTrips(t *testing.T) {
	ra := ReadArgs{Partition: 2, Object: 42, Offset: 100, Length: 4096}
	got, err := DecodeReadArgs(ra.Encode())
	if err != nil || got != ra {
		t.Fatalf("ReadArgs: %+v, %v", got, err)
	}
	wa := WriteArgs{Partition: 1, Object: 7, Offset: 9}
	gw, err := DecodeWriteArgs(wa.Encode())
	if err != nil || gw != wa {
		t.Fatalf("WriteArgs: %+v, %v", gw, err)
	}
	sa := SetAttrArgs{Partition: 1, Object: 2, Mask: 5}
	sa.Attrs.Size = 100
	sa.Attrs.CreateTime = time.Unix(1234, 0).UTC()
	copy(sa.Attrs.Uninterp[:], []byte("attrs"))
	gs, err := DecodeSetAttrArgs(sa.Encode())
	if err != nil || gs.Attrs.Size != 100 || gs.Attrs.CreateTime.Unix() != 1234 {
		t.Fatalf("SetAttrArgs: %+v, %v", gs, err)
	}
	ka := SetKeyArgs{
		Target:  KeyRef{Type: 3, Partition: 1, Version: 2},
		Key:     make([]byte, crypt.KeySize),
		AuthKey: KeyRef{Type: 1},
	}
	gk, err := DecodeSetKeyArgs(ka.Encode())
	if err != nil || gk.Target != ka.Target || len(gk.Key) != crypt.KeySize {
		t.Fatalf("SetKeyArgs: %+v, %v", gk, err)
	}
	ea := ExecuteArgs{Partition: 1, Object: 2, Kernel: "freqset", Params: []byte("p")}
	ge, err := DecodeExecuteArgs(ea.Encode())
	if err != nil || ge.Kernel != "freqset" || string(ge.Params) != "p" {
		t.Fatalf("ExecuteArgs: %+v, %v", ge, err)
	}
	ids, err := DecodeIDListReply(EncodeIDListReply([]uint64{1, 2, 3}))
	if err != nil || len(ids) != 3 || ids[2] != 3 {
		t.Fatalf("IDList: %v, %v", ids, err)
	}
}

func TestKernelExecution(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 2048)
	d, err := NewFormat(dev, Config{ID: 1, Master: crypt.NewRandomKey()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store().CreatePartition(1, 0); err != nil {
		t.Fatal(err)
	}
	id, err := d.Store().Create(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store().Write(1, id, 0, []byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	// A kernel that sums bytes on the drive.
	d.RegisterKernel("sum", func(params []byte, data func(uint64, int) ([]byte, error), size uint64) ([]byte, error) {
		var total byte
		b, err := data(0, int(size))
		if err != nil {
			return nil, err
		}
		for _, v := range b {
			total += v
		}
		return []byte{total}, nil
	})
	args := (&ExecuteArgs{Partition: 1, Object: id, Kernel: "sum"}).Encode()
	rep := d.Handle(&rpc.Request{Proc: uint16(OpExecute), Args: args})
	if rep.Status != rpc.StatusOK || len(rep.Data) != 1 || rep.Data[0] != 15 {
		t.Fatalf("kernel result = %+v", rep)
	}
	// Unknown kernels are rejected.
	args = (&ExecuteArgs{Partition: 1, Object: id, Kernel: "nope"}).Encode()
	if rep := d.Handle(&rpc.Request{Proc: uint16(OpExecute), Args: args}); rep.Status != rpc.StatusBadRequest {
		t.Fatalf("unknown kernel status = %v", rep.Status)
	}
}

// TestStatsReplyBounded: the stats op needs no capability, so whatever
// count it is asked for it attaches at most telemetry.MaxTraceResponse
// records of any kind, the cap /trace and /events apply, and a
// truncated argument record is refused.
func TestStatsReplyBounded(t *testing.T) {
	d, err := NewFormat(blockdev.NewMemDisk(4096, 1024), Config{
		ID: 1, Master: crypt.NewRandomKey(), Events: telemetry.NewEventLog(4096),
	})
	if err != nil {
		t.Fatal(err)
	}
	const trace = 77
	for i := 0; i < 3000; i++ {
		sp := d.Spans().StartRemote(trace, 0, d.tel.spanName(OpReadObject))
		sp.End()
		d.Events().Emit(telemetry.SevInfo, "test", "fill", "")
	}
	for _, tc := range []struct {
		name string
		args []byte
		want rpc.Status
	}{
		{"TraceN", (&StatsArgs{TraceN: 1 << 31}).Encode(), rpc.StatusOK},
		{"SpanTrace", (&StatsArgs{SpanTrace: trace}).Encode(), rpc.StatusOK},
		{"EventN", (&StatsArgs{EventN: 1 << 31}).Encode(), rpc.StatusOK},
		{"Truncated", (&StatsArgs{}).Encode()[:16], rpc.StatusBadRequest},
	} {
		rep := d.Handle(&rpc.Request{Proc: uint16(OpGetStats), Args: tc.args})
		if rep.Status != tc.want {
			t.Fatalf("%s: status %v, want %v", tc.name, rep.Status, tc.want)
		}
		if tc.want != rpc.StatusOK {
			continue
		}
		var sr StatsReply
		if err := json.Unmarshal(rep.Data, &sr); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// One section is filled to the cap (3000 were on offer), the
		// other is empty.
		if n := len(sr.Spans) + len(sr.Events); n != telemetry.MaxTraceResponse {
			t.Errorf("%s: reply carries %d spans + %d events, want exactly the cap %d",
				tc.name, len(sr.Spans), len(sr.Events), telemetry.MaxTraceResponse)
		}
	}
}

// TestTamperedWriteRefused takes one correctly signed write and, for
// every field the request digest covers, changes one byte and hands the
// result to the drive: each must fail the digest, the payload included,
// and the untampered request must pass. Each mutation keeps the request
// well-formed and within the capability's policy, so the digest is the
// only check that can catch it.
func TestTamperedWriteRefused(t *testing.T) {
	d, err := NewFormat(blockdev.NewMemDisk(4096, 2048), Config{ID: 1, Master: crypt.NewRandomKey(), Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store().CreatePartition(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Keys().AddPartition(1); err != nil {
		t.Fatal(err)
	}
	obj, err := d.Store().Create(1)
	if err != nil {
		t.Fatal(err)
	}
	kid, key, _ := d.Keys().CurrentWorkingKey(1)
	// GetAttr rights let the Proc mutation (write to getattr) pass the
	// rights check and reach the digest.
	cap := capability.Mint(capability.Public{
		DriveID: 1, Partition: 1, Object: obj, ObjVer: 1,
		Rights: capability.Write | capability.GetAttr,
		Expiry: time.Now().Add(time.Hour).UnixNano(), Key: kid,
	}, key)
	signer := crypt.NewSigner(cap.Private)
	counter := uint64(0)
	signed := func() *rpc.Request {
		counter++
		req := &rpc.Request{
			Proc:  uint16(OpWriteObject),
			Cap:   cap.Public.Encode(),
			Args:  (&WriteArgs{Partition: 1, Object: obj, Offset: 4096}).Encode(),
			Data:  bytes.Repeat([]byte{0xA5}, 64<<10),
			Nonce: crypt.Nonce{Client: 9, Counter: counter},
		}
		req.Sign(signer)
		return req
	}
	cases := []struct {
		name   string
		tamper func(*rpc.Request)
	}{
		{"data", func(r *rpc.Request) { r.Data[len(r.Data)/2] ^= 1 }},
		{"args", func(r *rpc.Request) { r.Args[10] ^= 1 }}, // the offset's low byte
		{"cap", func(r *rpc.Request) { r.Cap[46] ^= 1 }},   // the expiry's low byte
		{"proc", func(r *rpc.Request) { r.Proc ^= 1 }},     // write to getattr
		{"nonce client", func(r *rpc.Request) { r.Nonce.Client ^= 1 }},
		{"nonce counter", func(r *rpc.Request) { r.Nonce.Counter += 1 << 8 }},
	}
	for _, tc := range cases {
		req := signed()
		tc.tamper(req)
		rep := d.Handle(req)
		if rep.Status != rpc.StatusAuthFailure || !strings.Contains(rep.Msg, "digest") {
			t.Errorf("%s changed: %v %q, want a digest auth-failure", tc.name, rep.Status, rep.Msg)
		}
	}
	if rep := d.Handle(signed()); rep.Status != rpc.StatusOK {
		t.Fatalf("untampered write: %v %s", rep.Status, rep.Msg)
	}
}
