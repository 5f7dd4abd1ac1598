package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/rpc"
)

// The traced pass looks at the program from outside: the benchmark owns
// three interposers around public interfaces (rpc.Conn on the client
// side, rpc.Handler outside and inside the qos controller, and
// blockdev.Device under blockdev.Instrument) and records one span at
// each. Nothing inside the program is touched; spans inside the layers
// are a later change.

type spanKind uint8

const (
	spanOp    spanKind = iota // one logical op, recorded by the generator
	spanWire                  // client Conn: Send until the matching Recv
	spanOuter                 // rpc.Handler outside the qos controller
	spanInner                 // rpc.Handler inside it: the drive itself
	spanDev                   // one blockdev.Device call
)

var spanNames = [...]string{"op", "wire", "handler.outer", "handler.inner", "device"}

// span is one timed interval. op is the trace id the client copies into
// rpc.Request.Trace (0 on device spans, which no request owns); msg is
// the rpc message id on wire and handler spans and the op kind on op
// spans.
type span struct {
	start, end int64 // ns since the tracer's epoch
	op         uint64
	msg        uint32
	drive      int8
	kind       spanKind
}

func (s span) dur() int64 { return s.end - s.start }

// tracer is a fixed span buffer, allocated before the window. The
// interposers stay in the stack for the whole traced run and record
// only while on is set, so one process yields an untraced and a traced
// rate over the same stack.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	n     atomic.Int64
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) emit(s span) {
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = s
	}
}

// full reports that the buffer has no room for another op's spans.
func (t *tracer) full() bool { return t.n.Load() > int64(len(t.spans))-4096 }

func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// --- rpc.Conn -------------------------------------------------------------

// Offsets into an encoded request or reply (rpc.AppendRequestHeader):
// magic u32, kind u8, message id u64, trace id u64.
const (
	offMsgID   = 5
	offTraceID = 13
)

type pendingSend struct {
	start int64
	op    uint64
}

// tracedConn times each request from Send to the Recv of the reply with
// the same message id. It forwards vectored sends, so the transport
// sees the frames the untraced client would give it.
type tracedConn struct {
	rpc.Conn
	tr    *tracer
	drive int8

	mu      sync.Mutex
	pending map[uint64]pendingSend
}

func (t *tracer) wrapConn(c rpc.Conn, drive int) rpc.Conn {
	return &tracedConn{Conn: c, tr: t, drive: int8(drive), pending: make(map[uint64]pendingSend)}
}

func (c *tracedConn) note(hdr []byte) {
	if !c.tr.on.Load() || len(hdr) < offTraceID+8 {
		return
	}
	id := binary.LittleEndian.Uint64(hdr[offMsgID:])
	op := binary.LittleEndian.Uint64(hdr[offTraceID:])
	c.mu.Lock()
	c.pending[id] = pendingSend{start: c.tr.now(), op: op}
	c.mu.Unlock()
}

func (c *tracedConn) Send(msg []byte) error {
	c.note(msg)
	return c.Conn.Send(msg)
}

func (c *tracedConn) SendVec(bufs net.Buffers) error {
	if len(bufs) > 0 {
		c.note(bufs[0])
	}
	return rpc.SendVectored(c.Conn, bufs)
}

func (c *tracedConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err != nil || len(msg) < offMsgID+8 {
		return msg, err
	}
	id := binary.LittleEndian.Uint64(msg[offMsgID:])
	c.mu.Lock()
	p, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if ok {
		c.tr.emit(span{start: p.start, end: c.tr.now(), op: p.op, msg: uint32(id), drive: c.drive, kind: spanWire})
	}
	return msg, nil
}

// --- rpc.Handler ----------------------------------------------------------

type tracedHandler struct {
	inner rpc.Handler
	tr    *tracer
	drive int8
	kind  spanKind
}

func (t *tracer) wrapHandler(h rpc.Handler, drive int, kind spanKind) rpc.Handler {
	return &tracedHandler{inner: h, tr: t, drive: int8(drive), kind: kind}
}

func (h *tracedHandler) Handle(req *rpc.Request) *rpc.Reply {
	if !h.tr.on.Load() {
		return h.inner.Handle(req)
	}
	// The message id is read first: the handler owns req afterwards.
	op, id, start := req.Trace.TraceID, req.MsgID, h.tr.now()
	rep := h.inner.Handle(req)
	h.tr.emit(span{start: start, end: h.tr.now(), op: op, msg: uint32(id), drive: h.drive, kind: h.kind})
	return rep
}

// --- blockdev.Device ------------------------------------------------------

// tracedDev times every device call. It implements BlockRanger as the
// devices it wraps do, so blockdev.Instrument above it still hands
// ranged reads down as ranges. Flushes are counted even while the
// tracer is off: the program's registry has no flush counter.
type tracedDev struct {
	blockdev.Device
	tr      *tracer
	drive   int8
	flushes atomic.Int64
}

func (t *tracer) wrapDevice(d blockdev.Device, drive int) *tracedDev {
	return &tracedDev{Device: d, tr: t, drive: int8(drive)}
}

// begin returns the start time of a device span, or -1 with the tracer off.
func (d *tracedDev) begin() int64 {
	if !d.tr.on.Load() {
		return -1
	}
	return d.tr.now()
}

func (d *tracedDev) end(start int64) {
	if start >= 0 {
		d.tr.emit(span{start: start, end: d.tr.now(), drive: d.drive, kind: spanDev})
	}
}

func (d *tracedDev) ReadBlock(i int64, buf []byte) error {
	defer d.end(d.begin())
	return d.Device.ReadBlock(i, buf)
}

func (d *tracedDev) WriteBlock(i int64, data []byte) error {
	defer d.end(d.begin())
	return d.Device.WriteBlock(i, data)
}

func (d *tracedDev) Flush() error {
	d.flushes.Add(1)
	defer d.end(d.begin())
	return d.Device.Flush()
}

func (d *tracedDev) ReadBlocks(start int64, buf []byte) error {
	defer d.end(d.begin())
	return blockdev.ReadBlocks(d.Device, start, buf)
}

func (d *tracedDev) WriteBlocks(start int64, data []byte) error {
	defer d.end(d.begin())
	return blockdev.WriteBlocks(d.Device, start, data)
}

var _ blockdev.BlockRanger = (*tracedDev)(nil)

// --- analysis -------------------------------------------------------------

type interval struct{ lo, hi int64 }

// union merges intervals into a sorted, disjoint list. It reorders iv.
func union(iv []interval) []interval {
	sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
	out := iv[:0]
	for _, x := range iv {
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			if x.hi > out[n-1].hi {
				out[n-1].hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func total(iv []interval) int64 {
	var t int64
	for _, x := range iv {
		t += x.hi - x.lo
	}
	return t
}

// overlap is the length of the intersection of two disjoint sorted lists.
func overlap(a, b []interval) int64 {
	var t int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			t += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return t
}

// rpcKey names one rpc across its wire and handler spans: message ids
// are per connection, and each drive has one connection per op source.
type rpcKey struct {
	drive int8
	op    uint64
	msg   uint32
}

// spanStats is what the traced pass yields from spans alone. Times are
// in microseconds.
type spanStats struct {
	ops              int
	clientSelfPerOp  float64 // op span minus the union of its wire spans
	rpcSelfPerRPC    float64 // wire span minus outer handler span
	qosSelfPerRPC    float64 // outer minus inner handler span
	handlePerRPC     float64 // inner handler span
	driveSelfPerRPC  float64 // handler-open time not covered by a device call
	drivesPerOp      float64 // distinct drives an op's wire spans reach
	legSkewP50       float64 // busiest drive's wire time minus the idlest's, per op
	devBusyPerOp     float64 // time a drive had a device call open, summed over drives
	devBusy          int64   // the same, in ns over the whole pass
	parents          []int32 // per span: index of its parent span, -1 for none
	unmatchedHandler int
}

// analyse resolves parents and computes self times. A layer's self time
// is its span minus the part its children cover. Device spans have no
// request of their own: where one handler span is open on the drive the
// device span is its child, and where several are (pipelined fragments)
// it is charged to the drive, which is why drive self time is taken per
// drive as handler-open time minus device-busy time within it.
func analyse(spans []span) spanStats {
	st := spanStats{parents: make([]int32, len(spans))}
	roots := make(map[uint64]int32)
	wires := make(map[rpcKey]int32)
	outers := make(map[rpcKey]int32)
	for i, s := range spans {
		st.parents[i] = -1
		switch s.kind {
		case spanOp:
			roots[s.op] = int32(i)
		case spanWire:
			wires[rpcKey{s.drive, s.op, s.msg}] = int32(i)
		case spanOuter:
			outers[rpcKey{s.drive, s.op, s.msg}] = int32(i)
		}
	}
	st.ops = len(roots)

	type opAgg struct {
		wire    []interval
		byDrive map[int8]int64
	}
	perOp := make(map[uint64]*opAgg, len(roots))
	perDriveHandler := make(map[int8][]interval)
	perDriveDev := make(map[int8][]interval)
	var rpcSelf, qosSelf, handle int64
	var nWire, nInner int
	for i, s := range spans {
		k := rpcKey{s.drive, s.op, s.msg}
		switch s.kind {
		case spanWire:
			r, ok := roots[s.op]
			if !ok {
				continue // set-up or manager traffic outside any traced op
			}
			st.parents[i] = r
			a := perOp[s.op]
			if a == nil {
				a = &opAgg{byDrive: make(map[int8]int64)}
				perOp[s.op] = a
			}
			a.wire = append(a.wire, interval{s.start, s.end})
			a.byDrive[s.drive] += s.dur()
		case spanOuter:
			if w, ok := wires[k]; ok {
				st.parents[i] = w
				rpcSelf += spans[w].dur() - s.dur()
				nWire++
			} else {
				st.unmatchedHandler++
			}
		case spanInner:
			// Without a qos controller the one handler wrapper is both
			// outer and inner: its parent is the wire span.
			if o, ok := outers[k]; ok {
				st.parents[i] = o
				qosSelf += spans[o].dur() - s.dur()
			} else if w, ok := wires[k]; ok {
				st.parents[i] = w
				rpcSelf += spans[w].dur() - s.dur()
				nWire++
			} else {
				st.unmatchedHandler++
			}
			handle += s.dur()
			nInner++
			perDriveHandler[s.drive] = append(perDriveHandler[s.drive], interval{s.start, s.end})
		case spanDev:
			perDriveDev[s.drive] = append(perDriveDev[s.drive], interval{s.start, s.end})
		}
	}

	var clientSelf int64
	var drives int
	skews := make([]int64, 0, len(perOp))
	for op, r := range roots {
		a := perOp[op]
		if a == nil {
			clientSelf += spans[r].dur()
			continue
		}
		clientSelf += spans[r].dur() - total(union(a.wire))
		drives += len(a.byDrive)
		lo, hi := int64(1<<62), int64(0)
		for _, d := range a.byDrive {
			lo, hi = min(lo, d), max(hi, d)
		}
		skews = append(skews, hi-lo)
	}

	// Calls of concurrent requests queue inside the device, so its busy
	// time is the union of its spans, not their sum.
	var driveSelf int64
	for d, calls := range perDriveDev {
		busy := union(calls)
		perDriveDev[d] = busy
		st.devBusy += total(busy)
	}
	for d, h := range perDriveHandler {
		open := union(h)
		driveSelf += total(open) - overlap(open, perDriveDev[d])
	}
	resolveDeviceParents(spans, st.parents)

	us := func(sum int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(sum) / float64(n) / 1e3
	}
	st.clientSelfPerOp = us(clientSelf, st.ops)
	st.rpcSelfPerRPC = us(rpcSelf, nWire)
	st.qosSelfPerRPC = us(qosSelf, nInner)
	st.handlePerRPC = us(handle, nInner)
	st.driveSelfPerRPC = us(driveSelf, nInner)
	st.devBusyPerOp = us(st.devBusy, st.ops)
	if st.ops > 0 {
		st.drivesPerOp = float64(drives) / float64(st.ops)
	}
	if len(skews) > 0 {
		sort.Slice(skews, func(a, b int) bool { return skews[a] < skews[b] })
		st.legSkewP50 = float64(skews[len(skews)/2]) / 1e3
	}
	return st
}

// resolveDeviceParents gives each device span the inner handler span it
// ran under, when exactly one was open on its drive at its start.
func resolveDeviceParents(spans []span, parents []int32) {
	type event struct {
		at   int64
		idx  int32
		kind uint8 // 0 handler opens, 1 device starts, 2 handler closes
	}
	perDrive := make(map[int8][]event)
	for i, s := range spans {
		switch s.kind {
		case spanInner:
			perDrive[s.drive] = append(perDrive[s.drive], event{s.start, int32(i), 0}, event{s.end, int32(i), 2})
		case spanDev:
			perDrive[s.drive] = append(perDrive[s.drive], event{s.start, int32(i), 1})
		}
	}
	for _, ev := range perDrive {
		sort.Slice(ev, func(a, b int) bool {
			if ev[a].at != ev[b].at {
				return ev[a].at < ev[b].at
			}
			return ev[a].kind < ev[b].kind
		})
		open := make(map[int32]struct{})
		for _, e := range ev {
			switch e.kind {
			case 0:
				open[e.idx] = struct{}{}
			case 2:
				delete(open, e.idx)
			case 1:
				if len(open) == 1 {
					for h := range open {
						parents[e.idx] = h
					}
				}
			}
		}
	}
}

// writeSpans dumps the buffer as JSON lines: id, parent, name, the op's
// id, drive, start and end.
func writeSpans(path string, spans []span, parents []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		ID      int    `json:"id"`
		Parent  int    `json:"parent"`
		Name    string `json:"name"`
		Op      uint64 `json:"op"`
		Drive   int    `json:"drive"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	for i, s := range spans {
		if err := enc.Encode(rec{i + 1, int(parents[i]) + 1, spanNames[s.kind], s.op, int(s.drive), s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
