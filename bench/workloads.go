package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"nasd/internal/capability"
	"nasd/internal/cheops"
	"nasd/internal/client"
	"nasd/internal/object"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// A workload builds its stack, then hands out one logical op at a time
// to the single closed-loop caller. Everything the program sees is
// derived from the seed: keys, data, offsets and the op mix.
type workload struct {
	name string
	why  string
	// procs is GOMAXPROCS for the run. The box has two processors and
	// the generator is one caller. A workload on the bare memdisk never
	// sleeps, keeps both processors busy and is steadiest with 2. On the
	// modelled medium the whole process sleeps in the pacer hundreds of
	// times a second, and with 2 every wake-up decides anew whether the
	// request chain stays on one OS thread or hops between two: the
	// median latency and the cpu time per op then move by tens of
	// percent from run to run (README.md, "How steady it is"). With 1
	// the chain stays put.
	procs int
	// build formats, populates and flushes the stack. scale divides the data
	// set and the caches alike; only the smoke test passes more than 1.
	build func(ctx context.Context, seed uint64, tr *tracer, scale int) (stepper, error)
}

type stepper interface {
	base() *rig
	// step issues logical op i and returns the payload bytes it moved.
	// Failures and mismatches are reported to m.
	step(ctx context.Context, m *meter, i int) int
	// readBack reads the whole live set and compares it with the
	// seeded pattern, one check per chunk.
	readBack(ctx context.Context, m *meter)
}

var workloads = []workload{
	{"small_read_8k", "8 KiB reads of one cached object through qos: the cpu-bound small-request row of Table 1, no media", 2, buildSmallRead},
	{"stream_read_512k", "sequential 512 KiB pipelined reads of a data set 8x the cache on the modelled medium: every block misses", 1, buildStreamRead},
	{"write_mix_64k", "70% 64 KiB appends, 30% reads, flush every 64th op: allocation, journal, write-behind; catches reads bought with writes", 1, buildWriteMix},
	{"cheops_raid5", "RAID5 over four drives, 70% full-stripe reads, 30% one-unit read-modify-writes: the slowest leg sets latency", 1, buildCheops},
	{"smallobj_needle", "40000 4 KiB objects on the needle engine, 80/10/10 get/put/delete, uniform keys so reads miss the cache", 1, buildNeedle},
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

// --- seeded pattern ---------------------------------------------------------

func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// fill writes the pattern of stream key at byte offset off (a multiple
// of 8) into dst (a multiple of 8 long).
func fill(dst []byte, key, off uint64) {
	w := off / 8
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], mix64(key+w))
		w++
	}
}

func matches(src []byte, key, off uint64) bool {
	w := off / 8
	for i := 0; i+8 <= len(src); i += 8 {
		if binary.LittleEndian.Uint64(src[i:]) != mix64(key+w) {
			return false
		}
		w++
	}
	return true
}

// streamKey separates the patterns of different objects and versions.
func streamKey(seed, id uint64) uint64 { return mix64(seed ^ mix64(id)) }

// verifyEvery is how often a read inside the window is compared with
// the pattern; every reply's length is always checked.
const verifyEvery = 16

// --- one drive ----------------------------------------------------------------

// single is the part shared by the four one-drive workloads.
type single struct {
	r    *rig
	cli  *client.Drive
	cap  *capability.Capability
	seed uint64
	rng  *rand.Rand
	buf  []byte
}

const part = 1

func (s *single) base() *rig { return s.r }

func newSingle(ctx context.Context, seed uint64, tr *tracer, spec driveSpec, backend object.BackendKind, bufSize int) (*single, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6e617364))
	d, err := newDriveRig(spec, rng, tr)
	if err != nil {
		return nil, err
	}
	s := &single{r: &rig{drives: []*driveRig{d}, creg: telemetry.NewRegistry()}, seed: seed, rng: rng, buf: make([]byte, bufSize)}
	s.cli, err = d.dial(100, s.r.creg, tr)
	if err != nil {
		d.close()
		return nil, err
	}
	s.r.conns = []*client.Drive{s.cli}
	s.cap, err = d.partitionCap(ctx, s.cli, part, backend)
	if err != nil {
		s.r.close()
		return nil, err
	}
	return s, nil
}

// writeObject creates an object of size bytes holding stream id's pattern.
func (s *single) writeObject(ctx context.Context, id uint64, size int) (uint64, error) {
	obj, err := s.cli.Create(ctx, s.cap, part)
	if err != nil {
		return 0, err
	}
	key := streamKey(s.seed, id)
	chunk := make([]byte, min(size, mib))
	for off := 0; off < size; off += len(chunk) {
		fill(chunk, key, uint64(off))
		if err := s.cli.WritePipelined(ctx, s.cap, part, obj, uint64(off), chunk); err != nil {
			return 0, err
		}
	}
	return obj, nil
}

// readInto reads len(dst) bytes, checks the length and, when verify is
// set, the pattern. It reports whether the read was good.
func (s *single) readInto(ctx context.Context, m *meter, obj, id, off uint64, dst []byte, verify bool) bool {
	t := m.begin()
	n, err := s.cli.ReadInto(ctx, s.cap, part, obj, off, dst)
	m.end(opRead, t)
	switch {
	case err != nil:
		m.fail(err)
	case n != len(dst):
		m.fail(fmt.Errorf("object %d: read %d bytes at %d, want %d", obj, n, off, len(dst)))
	case verify && !matches(dst, streamKey(s.seed, id), off):
		m.fail(fmt.Errorf("object %d: pattern mismatch at %d", obj, off))
	default:
		return true
	}
	return false
}

func (s *single) flush(ctx context.Context, m *meter) {
	t := m.begin()
	err := s.cli.Flush(ctx)
	m.end(opFlush, t)
	if err != nil {
		m.fail(err)
	}
}

// --- small_read_8k ------------------------------------------------------------

type smallRead struct {
	*single
	obj   uint64
	size  int
	reads int
}

const smallReadSize = 8 * kib

func buildSmallRead(ctx context.Context, seed uint64, tr *tracer, scale int) (stepper, error) {
	// 32 MiB object under a 64 MiB cache on a bare memdisk, default qos
	// in front: after the populate nothing reaches the device.
	s, err := newSingle(ctx, seed, tr, driveSpec{blocks: 32768, cacheBlocks: 16384 / scale, qos: true}, object.BackendClassic, 64*kib)
	if err != nil {
		return nil, err
	}
	w := &smallRead{single: s, size: 32 * mib / scale}
	if w.obj, err = s.writeObject(ctx, 0, w.size); err == nil {
		err = s.cli.Flush(ctx)
	}
	if err != nil {
		s.r.close()
		return nil, err
	}
	return w, nil
}

func (w *smallRead) step(ctx context.Context, m *meter, i int) int {
	off := w.rng.Uint64N(uint64(w.size/smallReadSize)) * smallReadSize
	w.reads++
	w.readInto(ctx, m, w.obj, 0, off, w.buf[:smallReadSize], w.reads%verifyEvery == 0)
	return smallReadSize
}

// overTCP points the workload at the same drive through a loopback TCP
// socket and returns the way back, so the socket path the in-process
// transport leaves out stays visible in the traced run.
func (w *smallRead) overTCP() (func(), error) {
	d := w.r.drives[0]
	addr, err := d.serveTCP()
	if err != nil {
		return nil, err
	}
	conn, err := rpc.DialTCP(addr)
	if err != nil {
		return nil, err
	}
	inproc := w.cli
	w.cli = client.New(conn, d.id, 101)
	return func() {
		w.cli.Close()
		w.cli = inproc
	}, nil
}

func (w *smallRead) readBack(ctx context.Context, m *meter) {
	for off := 0; off < w.size; off += len(w.buf) {
		m.checked(w.readInto(ctx, m, w.obj, 0, uint64(off), w.buf, true))
	}
}

// --- stream_read_512k ---------------------------------------------------------

type streamRead struct {
	*single
	objs      []uint64
	perObject int // chunks in one object
	pos       int // next chunk, counted across all objects
	reads     int
}

const (
	streamObjects  = 4
	streamReadSize = 512 * kib
)

func buildStreamRead(ctx context.Context, seed uint64, tr *tracer, scale int) (stepper, error) {
	// 128 MiB under a 16 MiB cache: by the time the walk wraps, every
	// block has been evicted.
	s, err := newSingle(ctx, seed, tr, driveSpec{blocks: 49152, cacheBlocks: 4096 / scale, modelled: true}, object.BackendClassic, 0)
	if err != nil {
		return nil, err
	}
	w := &streamRead{single: s, perObject: 32 * mib / scale / streamReadSize}
	w.pos = s.rng.IntN(streamObjects * w.perObject)
	for id := uint64(0); id < streamObjects && err == nil; id++ {
		var obj uint64
		obj, err = s.writeObject(ctx, id, w.perObject*streamReadSize)
		w.objs = append(w.objs, obj)
	}
	if err == nil {
		err = s.cli.Flush(ctx)
	}
	if err != nil {
		s.r.close()
		return nil, err
	}
	return w, nil
}

// readChunk reads chunk c of the walk with the client's pipelined path.
func (w *streamRead) readChunk(ctx context.Context, m *meter, c int, verify bool) bool {
	id := uint64(c / w.perObject)
	off := uint64(c%w.perObject) * streamReadSize
	t := m.begin()
	data, err := w.cli.ReadPipelined(ctx, w.cap, part, w.objs[id], off, streamReadSize)
	m.end(opRead, t)
	switch {
	case err != nil:
		m.fail(err)
	case len(data) != streamReadSize:
		m.fail(fmt.Errorf("object %d: read %d bytes at %d, want %d", w.objs[id], len(data), off, streamReadSize))
	case verify && !matches(data, streamKey(w.seed, id), off):
		m.fail(fmt.Errorf("object %d: pattern mismatch at %d", w.objs[id], off))
	default:
		return true
	}
	return false
}

func (w *streamRead) step(ctx context.Context, m *meter, i int) int {
	w.reads++
	w.readChunk(ctx, m, w.pos, w.reads%verifyEvery == 0)
	w.pos = (w.pos + 1) % (streamObjects * w.perObject)
	return streamReadSize
}

func (w *streamRead) readBack(ctx context.Context, m *meter) {
	for c := 0; c < streamObjects*w.perObject; c++ {
		m.checked(w.readChunk(ctx, m, c, true))
	}
}

// --- write_mix_64k ------------------------------------------------------------

type mixObject struct {
	obj    uint64 // the drive's object id
	id     uint64 // the generator's serial, which names its pattern
	chunks int
}

type writeMix struct {
	*single
	live    []mixObject
	maxLive int
	cur     mixObject
	nextID  uint64
	reads   int
}

const (
	mixChunk        = 64 * kib
	mixObjectChunks = 16 // 1 MiB objects
	mixFlushEvery   = 64
)

func buildWriteMix(ctx context.Context, seed uint64, tr *tracer, scale int) (stepper, error) {
	// 128 live 1 MiB objects under a 16 MiB cache, journal on. The
	// window starts in the steady state: every completed object evicts
	// a random live one.
	s, err := newSingle(ctx, seed, tr, driveSpec{blocks: 65536, cacheBlocks: 4096 / scale, modelled: true}, object.BackendClassic, mixChunk)
	if err != nil {
		return nil, err
	}
	w := &writeMix{single: s, maxLive: 128 / scale}
	for ; w.nextID < uint64(w.maxLive) && err == nil; w.nextID++ {
		var obj uint64
		obj, err = s.writeObject(ctx, w.nextID, mixObjectChunks*mixChunk)
		w.live = append(w.live, mixObject{obj, w.nextID, mixObjectChunks})
	}
	if err == nil {
		err = s.cli.Flush(ctx)
	}
	if err != nil {
		s.r.close()
		return nil, err
	}
	return w, nil
}

func (w *writeMix) step(ctx context.Context, m *meter, i int) int {
	if (i+1)%mixFlushEvery == 0 {
		w.flush(ctx, m)
		return 0
	}
	if w.rng.IntN(10) >= 7 {
		o := w.live[w.rng.IntN(len(w.live))]
		off := uint64(w.rng.IntN(o.chunks)) * mixChunk
		w.reads++
		w.readInto(ctx, m, o.obj, o.id, off, w.buf, w.reads%verifyEvery == 0)
		return mixChunk
	}
	w.appendChunk(ctx, m)
	return mixChunk
}

// appendChunk adds one chunk to the object under construction, creating
// it on its first chunk and retiring a random live object when it
// completes.
func (w *writeMix) appendChunk(ctx context.Context, m *meter) {
	if w.cur.chunks == 0 {
		t := m.begin()
		obj, err := w.cli.Create(ctx, w.cap, part)
		m.end(opCreate, t)
		if err != nil {
			m.fail(err)
			return
		}
		w.cur = mixObject{obj: obj, id: w.nextID}
		w.nextID++
	}
	off := uint64(w.cur.chunks) * mixChunk
	fill(w.buf, streamKey(w.seed, w.cur.id), off)
	t := m.begin()
	err := w.cli.Write(ctx, w.cap, part, w.cur.obj, off, w.buf)
	m.end(opWrite, t)
	if err != nil {
		m.fail(err)
		return
	}
	if w.cur.chunks++; w.cur.chunks < mixObjectChunks {
		return
	}
	w.live = append(w.live, w.cur)
	w.cur = mixObject{}
	if len(w.live) > w.maxLive {
		v := w.rng.IntN(len(w.live))
		t := m.begin()
		err := w.cli.Remove(ctx, w.cap, part, w.live[v].obj)
		m.end(opRemove, t)
		if err != nil {
			m.fail(err)
			return
		}
		w.live[v] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
	}
}

func (w *writeMix) readBack(ctx context.Context, m *meter) {
	for _, o := range append(w.live[:len(w.live):len(w.live)], w.cur) {
		for c := 0; c < o.chunks; c++ {
			m.checked(w.readInto(ctx, m, o.obj, o.id, uint64(c)*mixChunk, w.buf, true))
		}
	}
}

// --- smallobj_needle ----------------------------------------------------------

type needleObject struct {
	obj uint64
	id  uint64
}

type needleMix struct {
	*single
	live   []needleObject
	nextID uint64
	reads  int
}

const (
	needleObjects    = 40000
	needleSize       = 4 * kib
	needleFlushEvery = 1024
)

func buildNeedle(ctx context.Context, seed uint64, tr *tracer, scale int) (stepper, error) {
	// 156 MiB of 4 KiB objects under an 8 MiB cache. Keys are uniform,
	// the long-tail traffic that reaches a photo store behind its CDN.
	s, err := newSingle(ctx, seed, tr, driveSpec{blocks: 131072, cacheBlocks: 2048 / scale, modelled: true}, object.BackendNeedle, needleSize)
	if err != nil {
		return nil, err
	}
	w := &needleMix{single: s, live: make([]needleObject, 0, needleObjects+needleObjects/4)}
	for len(w.live) < needleObjects/scale && err == nil {
		err = w.put(ctx, &meter{})
	}
	if err == nil {
		err = s.cli.Flush(ctx)
	}
	if err != nil {
		s.r.close()
		return nil, err
	}
	return w, nil
}

// put creates one object and writes its pattern.
func (w *needleMix) put(ctx context.Context, m *meter) error {
	t := m.begin()
	obj, err := w.cli.Create(ctx, w.cap, part)
	m.end(opCreate, t)
	if err != nil {
		return err
	}
	fill(w.buf, streamKey(w.seed, w.nextID), 0)
	t = m.begin()
	err = w.cli.Write(ctx, w.cap, part, obj, 0, w.buf)
	m.end(opWrite, t)
	if err != nil {
		return err
	}
	w.live = append(w.live, needleObject{obj, w.nextID})
	w.nextID++
	return nil
}

// get is the photo-store GET: an attribute check, then the payload.
func (w *needleMix) get(ctx context.Context, m *meter, o needleObject, verify bool) bool {
	t := m.begin()
	at, err := w.cli.GetAttr(ctx, w.cap, part, o.obj)
	m.end(opGetAttr, t)
	if err != nil {
		m.fail(err)
		return false
	}
	if at.Size != needleSize {
		m.fail(fmt.Errorf("object %d: size %d, want %d", o.obj, at.Size, needleSize))
		return false
	}
	return w.readInto(ctx, m, o.obj, o.id, 0, w.buf, verify)
}

func (w *needleMix) step(ctx context.Context, m *meter, i int) int {
	if (i+1)%needleFlushEvery == 0 {
		w.flush(ctx, m)
		return 0
	}
	switch r := w.rng.IntN(10); {
	case r < 8:
		w.reads++
		w.get(ctx, m, w.live[w.rng.IntN(len(w.live))], w.reads%verifyEvery == 0)
		return needleSize
	case r == 8:
		if err := w.put(ctx, m); err != nil {
			m.fail(err)
		}
		return needleSize
	default:
		v := w.rng.IntN(len(w.live))
		t := m.begin()
		err := w.cli.Remove(ctx, w.cap, part, w.live[v].obj)
		m.end(opRemove, t)
		if err != nil {
			m.fail(err)
			return 0
		}
		w.live[v] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
		return 0
	}
}

func (w *needleMix) readBack(ctx context.Context, m *meter) {
	for _, o := range w.live {
		m.checked(w.get(ctx, m, o, true))
	}
}

// --- cheops_raid5 -------------------------------------------------------------

type cheopsMix struct {
	r       *rig
	obj     *cheops.Object
	seed    uint64
	rng     *rand.Rand
	stripes int
	ver     []uint64 // per stripe unit: how often it has been rewritten
	buf     []byte
	reads   int
}

const (
	cheopsDrives = 4
	cheopsUnit   = 64 * kib
	cheopsStripe = (cheopsDrives - 1) * cheopsUnit
)

func (w *cheopsMix) base() *rig { return w.r }

func buildCheops(ctx context.Context, seed uint64, tr *tracer, scale int) (stepper, error) {
	// Four drives with 8 MiB of cache each hold 32 MiB of data and
	// parity apiece. The manager has its own connections; the object's
	// four connections are the system's fan-out, not extra callers.
	rng := rand.New(rand.NewPCG(seed, 0x6368656f))
	stripes := 96 * mib / cheopsStripe / scale
	w := &cheopsMix{r: &rig{creg: telemetry.NewRegistry()}, seed: seed, rng: rng, stripes: stripes,
		ver: make([]uint64, stripes*(cheopsDrives-1)), buf: make([]byte, cheopsUnit)}
	fail := func(err error) (stepper, error) {
		w.r.close()
		return nil, err
	}
	var refs []cheops.DriveRef
	var mine []*client.Drive
	for i := 0; i < cheopsDrives; i++ {
		d, err := newDriveRig(driveSpec{index: i, blocks: 24576, cacheBlocks: 2048 / scale, modelled: true}, rng, tr)
		if err != nil {
			return fail(err)
		}
		w.r.drives = append(w.r.drives, d)
		for _, id := range []uint64{100, 200} {
			c, err := d.dial(id+uint64(i), w.r.creg, tr)
			if err != nil {
				return fail(err)
			}
			w.r.conns = append(w.r.conns, c)
			if id == 100 {
				refs = append(refs, cheops.DriveRef{Client: c, DriveID: d.id, Master: d.master})
			} else {
				mine = append(mine, c)
			}
		}
	}
	mgr, err := cheops.NewManager(ctx, cheops.ManagerConfig{Drives: refs, Metrics: w.r.creg}, true)
	if err != nil {
		return fail(err)
	}
	logical, err := mgr.Create(ctx, cheops.RAID5, cheopsUnit, cheopsDrives, 0)
	if err != nil {
		return fail(err)
	}
	w.obj, err = cheops.OpenObject(mgr, mine, logical, capability.Read|capability.Write)
	if err != nil {
		return fail(err)
	}
	stripe := make([]byte, cheopsStripe)
	for s := 0; s < stripes; s++ {
		for u := 0; u < cheopsDrives-1; u++ {
			fill(stripe[u*cheopsUnit:(u+1)*cheopsUnit], w.unitKey(s*(cheopsDrives-1)+u), 0)
		}
		if err := w.obj.WriteAt(ctx, uint64(s)*cheopsStripe, stripe); err != nil {
			return fail(err)
		}
	}
	for _, c := range mine {
		if err := c.Flush(ctx); err != nil {
			return fail(err)
		}
	}
	return w, nil
}

func (w *cheopsMix) unitKey(u int) uint64 {
	return streamKey(w.seed, uint64(u)<<24|w.ver[u])
}

func (w *cheopsMix) readStripe(ctx context.Context, m *meter, s int, verify bool) bool {
	t := m.begin()
	data, err := w.obj.ReadAt(ctx, uint64(s)*cheopsStripe, cheopsStripe)
	m.end(opRead, t)
	if err != nil {
		m.fail(err)
		return false
	}
	if len(data) != cheopsStripe {
		m.fail(fmt.Errorf("stripe %d: read %d bytes, want %d", s, len(data), cheopsStripe))
		return false
	}
	for u := 0; verify && u < cheopsDrives-1; u++ {
		if !matches(data[u*cheopsUnit:(u+1)*cheopsUnit], w.unitKey(s*(cheopsDrives-1)+u), 0) {
			m.fail(fmt.Errorf("stripe %d unit %d: pattern mismatch", s, u))
			return false
		}
	}
	return true
}

func (w *cheopsMix) step(ctx context.Context, m *meter, i int) int {
	if w.rng.IntN(10) < 7 {
		w.reads++
		w.readStripe(ctx, m, w.rng.IntN(w.stripes), w.reads%verifyEvery == 0)
		return cheopsStripe
	}
	u := w.rng.IntN(len(w.ver))
	w.ver[u]++
	fill(w.buf, w.unitKey(u), 0)
	t := m.begin()
	err := w.obj.WriteAt(ctx, uint64(u)*cheopsUnit, w.buf)
	m.end(opWrite, t)
	if err != nil {
		m.fail(err)
	}
	return cheopsUnit
}

func (w *cheopsMix) readBack(ctx context.Context, m *meter) {
	for s := 0; s < w.stripes; s++ {
		m.checked(w.readStripe(ctx, m, s, true))
	}
}
