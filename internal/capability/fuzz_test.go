package capability

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"nasd/internal/crypt"
)

// encodeAt is the public portion's canonical layout written field by
// field at fixed offsets: the reference the appending encoder must
// match byte for byte.
func encodeAt(p *Public) []byte {
	b := make([]byte, EncodedSize)
	le := binary.LittleEndian
	le.PutUint64(b[0:], p.DriveID)
	le.PutUint16(b[8:], p.Partition)
	le.PutUint64(b[10:], p.Object)
	le.PutUint64(b[18:], p.ObjVer)
	le.PutUint32(b[26:], uint32(p.Rights))
	le.PutUint64(b[30:], p.Offset)
	le.PutUint64(b[38:], p.Length)
	le.PutUint64(b[46:], uint64(p.Expiry))
	b[54] = byte(p.Key.Type)
	le.PutUint16(b[55:], p.Key.Partition)
	le.PutUint32(b[57:], p.Key.Version)
	return b
}

// FuzzCapabilityPublic: the public portion is the first thing a drive
// decodes from a request, before authorization (qos classifies by it).
// DecodePublic never panics on arbitrary bytes; whatever it accepts
// re-encodes, appended into a buffer that already holds bytes, to the
// same bytes; and the appending encoder, Encode and the fixed-offset
// layout agree.
func FuzzCapabilityPublic(f *testing.F) {
	seed := Public{
		DriveID: 7, Partition: 1, Object: 42, ObjVer: 3, Rights: Read | Write,
		Offset: 4096, Length: 1 << 20, Expiry: time.Unix(1e9, 0).UnixNano(),
		Key: crypt.KeyID{Type: crypt.WorkingKey, Partition: 1, Version: 2},
	}
	f.Add(seed.Encode())
	f.Add(make([]byte, EncodedSize))
	f.Add(bytes.Repeat([]byte{0xff}, EncodedSize))
	f.Add(seed.Encode()[:EncodedSize-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePublic(b)
		if err != nil {
			if len(b) == EncodedSize {
				t.Fatalf("refused a %d-byte encoding: %v", len(b), err)
			}
			return
		}
		prefix := []byte("held")
		out := p.Append(append(make([]byte, 0, 8), prefix...))
		if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], b) {
			t.Fatalf("Append re-encoded %x as %x", b, out[len(prefix):])
		}
		if enc := p.Encode(); !bytes.Equal(enc, b) || !bytes.Equal(encodeAt(&p), b) {
			t.Fatalf("Encode %x and the fixed layout %x disagree with %x", enc, encodeAt(&p), b)
		}
	})
}
