package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"nasd/internal/bufpool"
)

// Conn is a reliable, message-oriented connection (the "SAN" of the
// paper: the same interface runs over in-process channels for tests and
// simulations, or TCP for real deployments).
//
// Buffer ownership: Send must not retain msg after it returns — the
// caller may immediately reuse or pool the slice. Recv transfers
// ownership of the returned frame to the caller; built-in transports
// draw frames from bufpool, so callers that fully consume a frame may
// return it with bufpool.Put (and callers that keep references must
// not).
//
// Send and Recv may each be called from several goroutines at once: a
// server's workers all send on, and all receive from, their connection.
// Each message goes to exactly one Recv caller.
type Conn interface {
	// Send transmits one message.
	Send(msg []byte) error
	// Recv blocks for the next message.
	Recv() ([]byte, error)
	// Close tears down the connection; pending Recv calls fail.
	Close() error
}

// VectorSender is implemented by transports that can transmit one
// message from several non-contiguous buffers without joining them
// (writev on TCP). Like Send, SendVec must not retain the buffers
// after it returns. Use SendVectored to target any Conn.
type VectorSender interface {
	SendVec(bufs net.Buffers) error
}

// SendVectored transmits the concatenation of bufs as one message,
// using vectored I/O when conn supports it and a single pooled join
// otherwise. The caller keeps ownership of every buffer in bufs.
func SendVectored(conn Conn, bufs net.Buffers) error {
	if vs, ok := conn.(VectorSender); ok {
		return vs.SendVec(bufs)
	}
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	joined := bufpool.Get(n)
	off := 0
	for _, b := range bufs {
		off += copy(joined[off:], b)
	}
	err := conn.Send(joined)
	bufpool.Put(joined)
	return err
}

// Listener accepts connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// SendDeadliner is implemented by transports whose Send can be bounded
// in time. Client.Call maps context deadlines onto it so a stalled peer
// cannot hold a sender forever. The zero time clears the deadline.
type SendDeadliner interface {
	SetSendDeadline(t time.Time) error
}

// ErrClosed is returned by operations on closed connections/listeners.
var ErrClosed = errors.New("rpc: connection closed")

// ErrNotSent wraps a call failure that happened before the request left
// the client: the remote demonstrably never saw the request, so
// reissuing it is safe even for non-idempotent operations.
var ErrNotSent = errors.New("rpc: request never sent")

// --- In-process transport ------------------------------------------------

type inprocConn struct {
	out  chan []byte
	in   chan []byte
	once sync.Once
	done chan struct{}
	peer *inprocConn
}

// Pipe returns a connected pair of in-process connections.
func Pipe() (Conn, Conn) {
	a2b := make(chan []byte, 64)
	b2a := make(chan []byte, 64)
	a := &inprocConn{out: a2b, in: b2a, done: make(chan struct{})}
	b := &inprocConn{out: b2a, in: a2b, done: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

func (c *inprocConn) Send(msg []byte) error {
	// Deterministically fail when either side already closed; without
	// this pre-check, a buffered-channel send could race the closure.
	select {
	case <-c.done:
		return ErrClosed
	case <-c.peer.done:
		return ErrClosed
	default:
	}
	// Copy into a pooled frame: the receiver takes ownership, so the
	// loopback path has the same frame lifecycle as TCP.
	cp := bufpool.Get(len(msg))
	copy(cp, msg)
	select {
	case <-c.done:
		return ErrClosed
	case <-c.peer.done:
		return ErrClosed
	case c.out <- cp:
		return nil
	}
}

// SendVec implements VectorSender: the loopback "writev" joins directly
// into the receiver's pooled frame, skipping the intermediate copy a
// flatten-then-Send would make.
func (c *inprocConn) SendVec(bufs net.Buffers) error {
	select {
	case <-c.done:
		return ErrClosed
	case <-c.peer.done:
		return ErrClosed
	default:
	}
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	cp := bufpool.Get(n)
	off := 0
	for _, b := range bufs {
		off += copy(cp[off:], b)
	}
	select {
	case <-c.done:
		bufpool.Put(cp)
		return ErrClosed
	case <-c.peer.done:
		bufpool.Put(cp)
		return ErrClosed
	case c.out <- cp:
		return nil
	}
}

func (c *inprocConn) Recv() ([]byte, error) {
	select {
	case <-c.done:
		return nil, ErrClosed
	case msg, ok := <-c.in:
		if !ok {
			return nil, ErrClosed
		}
		return msg, nil
	case <-c.peer.done:
		// Drain anything already queued before reporting closure.
		select {
		case msg := <-c.in:
			return msg, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (c *inprocConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// InProcListener is an in-process listener: servers Accept from it and
// clients Dial it directly, with no global registry.
type InProcListener struct {
	mu     sync.Mutex
	queue  chan Conn
	closed bool
	name   string
}

// NewInProcListener returns a listener with the given display name.
func NewInProcListener(name string) *InProcListener {
	return &InProcListener{queue: make(chan Conn, 16), name: name}
}

// Dial connects to the listener, returning the client side.
func (l *InProcListener) Dial() (Conn, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	l.mu.Unlock()
	client, server := Pipe()
	select {
	case l.queue <- server:
		return client, nil
	default:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("rpc: listener %s backlog full", l.name)
	}
}

// Accept implements Listener.
func (l *InProcListener) Accept() (Conn, error) {
	c, ok := <-l.queue
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

// Close implements Listener.
func (l *InProcListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.queue)
	}
	return nil
}

// Addr implements Listener.
func (l *InProcListener) Addr() string { return "inproc://" + l.name }

// --- TCP transport ---------------------------------------------------------

// maxFrame bounds a single message (16 MB covers the largest experiment
// transfers with room to spare and prevents hostile length prefixes from
// allocating unbounded memory).
const maxFrame = 16 << 20

type tcpConn struct {
	c       net.Conn
	sendMu  sync.Mutex
	recvMu  sync.Mutex
	lenBuf  [4]byte
	recvLen [4]byte
	// vecs is reused across SendVec calls (guarded by sendMu) so the
	// gather list itself does not allocate per message.
	vecs net.Buffers
}

// NewTCPConn wraps a net.Conn with 4-byte length framing.
func NewTCPConn(c net.Conn) Conn { return &tcpConn{c: c} }

// DialTCP connects to a NASD TCP endpoint.
func DialTCP(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewTCPConn(c), nil
}

func (t *tcpConn) Send(msg []byte) error {
	if len(msg) > maxFrame {
		return fmt.Errorf("rpc: frame too large (%d bytes)", len(msg))
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	binary.BigEndian.PutUint32(t.lenBuf[:], uint32(len(msg)))
	// One writev for prefix + body: a split Write pair costs an extra
	// syscall and can emit the 4-byte prefix as its own TCP segment.
	t.vecs = append(t.vecs[:0], t.lenBuf[:], msg)
	v := t.vecs // WriteTo consumes the header it is called on
	_, err := v.WriteTo(t.c)
	clearVecs(t.vecs)
	return err
}

// SendVec implements VectorSender: length prefix plus every buffer in
// one writev, so a reply header and its bulk payload leave without ever
// being joined.
func (t *tcpConn) SendVec(bufs net.Buffers) error {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	if n > maxFrame {
		return fmt.Errorf("rpc: frame too large (%d bytes)", n)
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	binary.BigEndian.PutUint32(t.lenBuf[:], uint32(n))
	t.vecs = append(t.vecs[:0], t.lenBuf[:])
	t.vecs = append(t.vecs, bufs...)
	v := t.vecs
	_, err := v.WriteTo(t.c)
	clearVecs(t.vecs)
	return err
}

// clearVecs drops buffer references from the reusable gather list so
// pooled buffers handed to a send are not pinned by the conn between
// calls.
func clearVecs(v net.Buffers) {
	for i := range v {
		v[i] = nil
	}
}

func (t *tcpConn) Recv() ([]byte, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	if _, err := io.ReadFull(t.c, t.recvLen[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(t.recvLen[:])
	if n > maxFrame {
		return nil, fmt.Errorf("rpc: oversized frame (%d bytes)", n)
	}
	msg := bufpool.Get(int(n))
	if _, err := io.ReadFull(t.c, msg); err != nil {
		bufpool.Put(msg)
		return nil, err
	}
	return msg, nil
}

func (t *tcpConn) Close() error { return t.c.Close() }

// SetSendDeadline implements SendDeadliner over the socket's write
// deadline.
func (t *tcpConn) SetSendDeadline(dl time.Time) error { return t.c.SetWriteDeadline(dl) }

type tcpListener struct {
	l net.Listener
}

// ListenTCP starts a TCP listener on addr (e.g. "127.0.0.1:0").
func ListenTCP(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewTCPConn(c), nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }
