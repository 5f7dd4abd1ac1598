package cheops

import (
	"context"
	"fmt"

	"nasd/internal/capability"
	"nasd/internal/object"
	"nasd/internal/rpc"
)

// Layout mappings are the storage manager's only hard state. They are
// persisted in a directory object on drive 0 inside the Cheops
// partition, so a restarted manager recovers every logical object. The
// directory object is found at mount time by its magic header.

// dirMagic identifies the Cheops directory object.
const dirMagic uint32 = 0x43485044 // "CHPD"

func (m *Manager) encodeState() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	var e rpc.Encoder
	e.U32(dirMagic)
	e.U64(m.next)
	e.U32(uint32(len(m.objects)))
	for _, d := range m.objects {
		e.U64(d.Logical)
		e.U8(uint8(d.Pattern))
		e.I64(d.StripeUnit)
		e.U64(d.Size)
		e.U32(uint32(len(d.Components)))
		for _, c := range d.Components {
			e.U32(uint32(c.Drive))
			e.U64(c.DriveID)
			e.U64(c.Object)
		}
	}
	return e.Bytes()
}

// The smallest encodings of a directory record and of one of its
// components: a decode bounds every count it reads by the bytes left.
const (
	dirRecordMin    = 8 + 1 + 8 + 8 + 4
	dirComponentMin = 4 + 8 + 8
)

func (m *Manager) decodeState(b []byte) error {
	d := rpc.NewDecoder(b)
	if d.U32() != dirMagic {
		return fmt.Errorf("cheops: bad directory magic")
	}
	next := d.U64()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n > d.Remaining()/dirRecordMin {
		return fmt.Errorf("cheops: directory claims %d objects in %d bytes", n, d.Remaining())
	}
	objects := make(map[uint64]*Descriptor, n)
	for i := 0; i < n; i++ {
		desc := &Descriptor{
			Logical:    d.U64(),
			Pattern:    Pattern(d.U8()),
			StripeUnit: d.I64(),
			Size:       d.U64(),
		}
		nc := int(d.U32())
		if err := d.Err(); err != nil {
			return err
		}
		if desc.Pattern > RAID5 {
			return fmt.Errorf("cheops: directory object %d has unknown %v", desc.Logical, desc.Pattern)
		}
		if nc > d.Remaining()/dirComponentMin {
			return fmt.Errorf("cheops: directory object %d claims %d components in %d bytes", desc.Logical, nc, d.Remaining())
		}
		desc.Components = make([]Component, nc)
		for j := range desc.Components {
			c := Component{Drive: int(d.U32()), DriveID: d.U64(), Object: d.U64()}
			if c.Drive >= len(m.drives) {
				return fmt.Errorf("cheops: directory object %d names drive %d of %d", desc.Logical, c.Drive, len(m.drives))
			}
			desc.Components[j] = c
		}
		objects[desc.Logical] = desc
	}
	if err := d.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	m.next = next
	m.objects = objects
	m.mu.Unlock()
	return nil
}

// save persists the directory object (best effort ordering: callers
// hold no lock).
func (m *Manager) save(ctx context.Context) error {
	if m.dirObj == 0 {
		return nil // persistence disabled (not formatted/mounted)
	}
	data := m.encodeState()
	wc := m.mintWildcard(0, capability.Write|capability.SetAttr)
	cli := m.drives[0].Client
	if err := cli.Write(ctx, &wc, m.part, m.dirObj, 0, data); err != nil {
		return fmt.Errorf("cheops: persisting directory: %w", err)
	}
	// Shrink if the directory got smaller.
	return cli.SetAttr(ctx, &wc, m.part, m.dirObj,
		object.Attributes{Size: uint64(len(data))}, object.SetSize)
}

// initDirectory creates the directory object at format time.
func (m *Manager) initDirectory(ctx context.Context) error {
	cc := m.mintWildcard(0, capability.CreateObj)
	obj, err := m.drives[0].Client.Create(ctx, &cc, m.part)
	if err != nil {
		return fmt.Errorf("cheops: creating directory object: %w", err)
	}
	m.dirObj = obj
	return m.save(ctx)
}

// loadDirectory finds and reads the directory object at mount time.
func (m *Manager) loadDirectory(ctx context.Context) error {
	rc := m.mintWildcard(0, capability.Read|capability.GetAttr)
	cli := m.drives[0].Client
	ids, err := cli.List(ctx, &rc, m.part)
	if err != nil {
		return fmt.Errorf("cheops: listing drive 0: %w", err)
	}
	for _, id := range ids {
		attrs, err := cli.GetAttr(ctx, &rc, m.part, id)
		if err != nil {
			continue
		}
		if attrs.Size < 4 {
			continue
		}
		var head [4]byte
		if n, err := cli.ReadInto(ctx, &rc, m.part, id, 0, head[:]); err != nil || n < 4 {
			continue
		}
		if rpc.NewDecoder(head[:]).U32() != dirMagic {
			continue
		}
		data, err := cli.Read(ctx, &rc, m.part, id, 0, int(attrs.Size))
		if err != nil {
			return err
		}
		if err := m.decodeState(data); err != nil {
			return err
		}
		m.dirObj = id
		return nil
	}
	return fmt.Errorf("cheops: no directory object found on drive 0")
}
