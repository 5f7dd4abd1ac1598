package rpc

import (
	"bytes"
	"testing"

	"nasd/internal/crypt"
)

// These tests pin the decoder's aliasing contract, which the pooled
// frame lifecycle depends on: Bytes32/Raw views alias the frame (no
// copies), stay exactly as decoded while the frame is untouched, are
// capped so appends cannot clobber neighbouring fields, and go invalid
// only when the frame's owner recycles it.

func aliasRequest() *Request {
	return &Request{
		MsgID:  7,
		Proc:   3,
		Cap:    []byte("capability-public-portion"),
		Args:   []byte("args-bytes"),
		Data:   bytes.Repeat([]byte{0xAB}, 1024),
		Nonce:  crypt.Nonce{Client: 42, Counter: 9},
		ReqDig: crypt.Digest{1, 2, 3},
	}
}

// TestDecodedViewsAliasFrame proves the zero-copy property: the decoded
// Args/Cap/Data are views into the wire frame, not copies — mutating
// the frame in place is visible through them.
func TestDecodedViewsAliasFrame(t *testing.T) {
	frame := EncodeRequest(aliasRequest())
	m, err := DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	req := m.(*Request)
	find := func(name string, view []byte) int {
		idx := bytes.Index(frame, view)
		if idx < 0 {
			t.Fatalf("%s view not found in frame", name)
		}
		return idx
	}
	for _, v := range []struct {
		name string
		view []byte
	}{{"cap", req.Cap}, {"args", req.Args}, {"data", req.Data}} {
		idx := find(v.name, v.view)
		old := frame[idx]
		frame[idx] ^= 0xFF
		if v.view[0] == old {
			t.Errorf("%s does not alias the frame (copy detected)", v.name)
		}
		frame[idx] = old
	}
}

// TestDecodedViewsStableWhileFrameAlive re-decodes and byte-compares
// after unrelated work touching other pooled buffers: as long as the
// frame itself is not recycled, views must not change.
func TestDecodedViewsStableWhileFrameAlive(t *testing.T) {
	orig := aliasRequest()
	frame := EncodeRequest(orig)
	m, err := DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	req := m.(*Request)
	capCopy := append([]byte(nil), req.Cap...)
	argsCopy := append([]byte(nil), req.Args...)
	dataCopy := append([]byte(nil), req.Data...)
	// Unrelated encode/decode traffic (its own frames, possibly pooled).
	for i := 0; i < 64; i++ {
		other := aliasRequest()
		other.Data = bytes.Repeat([]byte{byte(i)}, 2048)
		if _, err := DecodeMessage(EncodeRequest(other)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(req.Cap, capCopy) || !bytes.Equal(req.Args, argsCopy) || !bytes.Equal(req.Data, dataCopy) {
		t.Fatal("decoded views mutated while their frame was alive")
	}
}

// TestDecodedViewsCapped: appending through a decoded view must
// reallocate, never overwrite the next field in the frame. (Bytes32 and
// Raw return three-index slices.)
func TestDecodedViewsCapped(t *testing.T) {
	frame := EncodeRequest(aliasRequest())
	m, err := DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	req := m.(*Request)
	for _, v := range []struct {
		name string
		view []byte
	}{{"cap", req.Cap}, {"args", req.Args}, {"data", req.Data}} {
		if cap(v.view) != len(v.view) {
			t.Errorf("%s view has spare capacity %d past its length — append would clobber the frame",
				v.name, cap(v.view)-len(v.view))
		}
		before := append([]byte(nil), frame...)
		_ = append(v.view, 0xEE, 0xEE) //nolint:staticcheck // the append is the point
		if !bytes.Equal(frame, before) {
			t.Fatalf("append through %s view mutated the frame", v.name)
		}
	}
}

// TestBytes32FrameBoundaries covers the decoder edge cases at the end
// of a frame: a zero-length field flush against the boundary, a field
// consuming exactly the remaining bytes, and a length prefix promising
// one byte more than the frame holds.
func TestBytes32FrameBoundaries(t *testing.T) {
	var e Encoder
	e.Bytes32(nil) // zero length
	d := NewDecoder(e.Bytes())
	if v := d.Bytes32(); len(v) != 0 || d.Err() != nil {
		t.Fatalf("zero-length at boundary: v=%v err=%v", v, d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("zero-length decode left %d bytes", d.Remaining())
	}

	payload := bytes.Repeat([]byte{0x5A}, 4096)
	e.Reset(nil)
	e.Bytes32(payload) // max length: consumes the frame exactly
	d = NewDecoder(e.Bytes())
	v := d.Bytes32()
	if d.Err() != nil || !bytes.Equal(v, payload) {
		t.Fatalf("max-length at boundary: err=%v", d.Err())
	}
	if d.Remaining() != 0 || cap(v) != len(v) {
		t.Fatalf("max-length view: remaining=%d cap=%d len=%d", d.Remaining(), cap(v), len(v))
	}

	// Length prefix overrunning the frame by one byte must error, not
	// return a short view.
	frame := e.Bytes()
	truncated := frame[:len(frame)-1]
	d = NewDecoder(truncated)
	if v := d.Bytes32(); v != nil || d.Err() == nil {
		t.Fatalf("overrunning length: v=%v err=%v, want nil + ErrTruncated", v, d.Err())
	}
}

// FuzzDecodedViewsWithinFrame feeds arbitrary bytes through
// DecodeMessage; whenever a message decodes, every byte-slice view must
// be capped (no spare capacity into the frame) and appending through it
// must leave the frame intact.
func FuzzDecodedViewsWithinFrame(f *testing.F) {
	f.Add(EncodeRequest(aliasRequest()))
	f.Add(EncodeReply(&Reply{MsgID: 3, Status: StatusOK, Msg: "x", Args: []byte("a"), Data: []byte("dd")}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := DecodeMessage(frame)
		if err != nil {
			return
		}
		var views [][]byte
		switch v := m.(type) {
		case *Request:
			views = [][]byte{v.Cap, v.Args, v.Data}
		case *Reply:
			views = [][]byte{v.Args, v.Data}
		}
		before := append([]byte(nil), frame...)
		for i, view := range views {
			if cap(view) > len(view) {
				t.Fatalf("view %d has spare capacity into the frame", i)
			}
			if len(view) > 0 {
				_ = append(view, 0xEE)
			}
		}
		if !bytes.Equal(frame, before) {
			t.Fatal("appending through decoded views mutated the frame")
		}
	})
}
