package rpc

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"nasd/internal/bufpool"
	"nasd/internal/telemetry"
)

// Handler processes one request and returns a reply. Implementations
// must set the reply's MsgID from the request. A Handler must be safe
// for concurrent use: each of a connection's workers reads, runs and
// answers its own requests, so two requests from the same client can
// execute simultaneously.
//
// Buffer contract: req.Cap, req.Args, and req.Data alias a pooled
// receive frame that the server recycles after the reply is sent.
// They are valid for the duration of Handle plus reply serialization;
// a handler that wants any of those bytes longer must copy them. The
// reply may reference request memory (it is serialized before the
// frame is recycled), and a handler lending a bufpool buffer as reply
// Data sets Reply.PooledData to give it back.
type Handler interface {
	Handle(req *Request) *Reply
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req *Request) *Reply

// Handle calls f(req).
func (f HandlerFunc) Handle(req *Request) *Reply { return f(req) }

// DefaultWorkers is the per-connection worker pool size: enough that a
// large read in flight does not head-of-line-block small control
// operations on the same connection, small enough that one connection
// cannot monopolize the drive. Requests on one connection execute
// concurrently, with replies matched by message ID.
const DefaultWorkers = 4

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithMetrics makes the server publish its counters into reg instead of
// a private registry, so a daemon can expose one merged registry for
// the RPC plane and the drive behind it.
func WithMetrics(reg *telemetry.Registry) ServerOption {
	return func(s *Server) { s.reg = reg }
}

// WithProcNames does nothing. It stays only because bench/ passes it:
// the server keeps no per-opcode books, the handler (the drive) books
// each request once under its own op names.
func WithProcNames(func(proc uint16) string) ServerOption {
	return func(*Server) {}
}

// Server serves NASD RPC requests from any number of connections. Each
// connection gets a bounded worker pool so a slow bulk transfer does
// not stall small requests multiplexed on the same connection.
type Server struct {
	handler Handler
	workers int
	reg     *telemetry.Registry
	wg      sync.WaitGroup
	mu      sync.Mutex
	lns     []Listener
	conns   map[Conn]bool
	closed  bool

	statConns    *telemetry.Gauge
	statInFlight *telemetry.Gauge
	statRequests *telemetry.Counter
	statBytesIn  *telemetry.Counter
	statBytesOut *telemetry.Counter
}

// NewServer returns a server dispatching to handler.
func NewServer(handler Handler, opts ...ServerOption) *Server {
	s := &Server{handler: handler, workers: DefaultWorkers, conns: make(map[Conn]bool)}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	s.statConns = s.reg.Gauge("rpc.server.conns")
	s.statInFlight = s.reg.Gauge("rpc.server.inflight")
	s.statRequests = s.reg.Counter("rpc.server.requests")
	s.statBytesIn = s.reg.Counter("rpc.server.bytes_in")
	s.statBytesOut = s.reg.Counter("rpc.server.bytes_out")
	return s
}

// Metrics returns the server's telemetry registry.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Serve accepts connections from l until the listener is closed. It
// blocks; run it on its own goroutine.
func (s *Server) Serve(l Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return
	}
	s.lns = append(s.lns, l)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		// Add under the lock that guards closed: Close sets closed and
		// then waits, so it can never observe the group mid-Add.
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// serveConn serves one connection with a pool of s.workers goroutines,
// the calling goroutine among them. Each worker reads its own frame,
// decodes it, runs the handler and sends the reply, so a request never
// changes goroutine, and a connection holds at most s.workers decoded
// requests: a flooding client is backpressured by the transport rather
// than buffered. The server never turns a request away: admission,
// shedding and retry-after hints belong to the handler (the drive's
// qos plane).
//
// Frame lifecycle: the request's Cap/Args/Data alias the pooled
// receive frame, which stays valid until the handler returns and its
// reply is sent; then the frame goes back to the pool. Handlers (and
// anything they call) must therefore copy whatever request bytes they
// want to keep past Handle's return — see the Handler contract.
func (s *Server) serveConn(conn Conn) {
	s.statConns.Add(1)
	var workers sync.WaitGroup
	for i := 1; i < s.workers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			s.work(conn)
		}()
	}
	s.work(conn)
	workers.Wait()
	s.statConns.Add(-1)
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// work is one connection worker: it serves requests until the
// connection fails, then closes it so that every other worker's Recv
// fails too.
func (s *Server) work(conn Conn) {
	defer conn.Close()
	// The gather list of a reply with a payload, reused for every reply
	// this worker sends.
	vec := make(net.Buffers, 2)
	for {
		raw, err := conn.Recv()
		if err != nil {
			return
		}
		s.statBytesIn.Add(uint64(len(raw)))
		msg, err := DecodeMessage(raw)
		req, ok := msg.(*Request)
		if err != nil || !ok {
			// Malformed traffic: drop the connection.
			bufpool.Put(raw)
			return
		}
		s.statRequests.Inc()
		s.statInFlight.Add(1)
		reply := s.handler.Handle(req)
		s.statInFlight.Add(-1)
		if reply == nil {
			reply = Errorf(req.MsgID, StatusError, "handler returned no reply")
		}
		reply.MsgID = req.MsgID
		// Encode the header into a pooled buffer and writev
		// {header, payload}: the bulk Data — cache block, needle
		// extent, or pooled read buffer — is never copied into the
		// message.
		hdr := AppendReplyHeader(bufpool.Get(64+len(reply.Msg)+len(reply.Args)), reply)
		if len(reply.Data) > 0 {
			vec[0], vec[1] = hdr, reply.Data
			err = SendVectored(conn, vec)
			vec[0], vec[1] = nil, nil
		} else {
			err = conn.Send(hdr)
		}
		wireLen := uint64(len(hdr) + len(reply.Data))
		bufpool.Put(hdr)
		if reply.PooledData {
			bufpool.Put(reply.Data)
		}
		bufpool.Put(raw)
		if err != nil {
			return
		}
		s.statBytesOut.Add(wireLen)
	}
}

// Close closes all listeners and open connections, then waits for
// connection goroutines to drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	lns := s.lns
	s.lns = nil
	conns := make([]Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range lns {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClientMetrics makes the client publish its counters into reg
// instead of a private registry.
func WithClientMetrics(reg *telemetry.Registry) ClientOption {
	return func(c *Client) { c.reg = reg }
}

// Client multiplexes concurrent calls over one connection.
type Client struct {
	conn    Conn
	reg     *telemetry.Registry
	nextID  uint64
	mu      sync.Mutex
	pending map[uint64]chan *Reply
	closed  bool
	readErr error

	statInFlight  *telemetry.Gauge
	statCalls     *telemetry.Counter
	statCanceled  *telemetry.Counter
	statFailures  *telemetry.Counter
	statBytesSent *telemetry.Counter
	statBytesRecv *telemetry.Counter
	statLatency   *telemetry.Histogram
}

// NewClient wraps conn and starts the demultiplexing loop.
func NewClient(conn Conn, opts ...ClientOption) *Client {
	c := &Client{conn: conn, pending: make(map[uint64]chan *Reply)}
	for _, o := range opts {
		o(c)
	}
	if c.reg == nil {
		c.reg = telemetry.NewRegistry()
	}
	c.statInFlight = c.reg.Gauge("rpc.client.inflight")
	c.statCalls = c.reg.Counter("rpc.client.calls")
	c.statCanceled = c.reg.Counter("rpc.client.canceled")
	c.statFailures = c.reg.Counter("rpc.client.failures")
	c.statBytesSent = c.reg.Counter("rpc.client.bytes_sent")
	c.statBytesRecv = c.reg.Counter("rpc.client.bytes_recv")
	c.statLatency = c.reg.Histogram("rpc.client.call_ns")
	go c.recvLoop()
	return c
}

// Metrics returns the client's telemetry registry.
func (c *Client) Metrics() *telemetry.Registry { return c.reg }

func (c *Client) recvLoop() {
	for {
		raw, err := c.conn.Recv()
		if err != nil {
			c.failAll(err)
			return
		}
		c.statBytesRecv.Add(uint64(len(raw)))
		msg, err := DecodeMessage(raw)
		if err != nil {
			bufpool.Put(raw)
			c.failAll(err)
			return
		}
		reply, ok := msg.(*Reply)
		if !ok {
			bufpool.Put(raw)
			c.failAll(fmt.Errorf("rpc: server sent a request"))
			return
		}
		// The reply's Args/Data alias the pooled frame; ownership moves
		// to whoever collects the reply (Reply.Release recycles it).
		reply.frame = raw
		c.mu.Lock()
		ch, ok := c.pending[reply.MsgID]
		if ok {
			delete(c.pending, reply.MsgID)
		}
		c.mu.Unlock()
		if ok {
			ch <- reply
		} else {
			// Late reply for a canceled call: nobody will read it.
			reply.Release()
		}
	}
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.readErr = err
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
}

// Call sends req and blocks for its reply or ctx's end, whichever comes
// first. Concurrent calls are multiplexed by message ID. When ctx is
// canceled or its deadline passes, the pending call fails with ctx's
// error and a late reply is discarded by the receive loop; on
// transports that support it (TCP) the deadline also bounds the send.
// req.Trace rides in the request header (outside the signed body), so
// the server-side span becomes a child of the caller's.
func (c *Client) Call(ctx context.Context, req *Request) (*Reply, error) {
	if err := ctx.Err(); err != nil {
		c.statCanceled.Inc()
		return nil, err
	}
	if req.DeadlineNS == 0 {
		// Stamp the caller's remaining budget so the drive's load
		// shedder can drop the request — with a typed retry-later, not
		// a silent timeout — once the deadline is unmeetable.
		if dl, ok := ctx.Deadline(); ok {
			if remain := time.Until(dl); remain > 0 {
				req.DeadlineNS = uint64(remain)
			}
		}
	}
	ch := make(chan *Reply, 1)
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		c.statFailures.Inc()
		return nil, fmt.Errorf("%w: %w", ErrNotSent, err)
	}
	c.nextID++
	req.MsgID = c.nextID
	c.pending[req.MsgID] = ch
	c.mu.Unlock()

	c.statCalls.Inc()
	c.statInFlight.Add(1)
	defer c.statInFlight.Add(-1)
	start := time.Now()

	if sd, ok := c.conn.(SendDeadliner); ok {
		// Map the context deadline onto the transport; zero clears any
		// deadline a previous call left behind. Concurrent calls with
		// different deadlines share the socket, so the strictest recent
		// deadline may bound another call's send — a cheap and safe
		// approximation, since sends normally complete immediately.
		var dl time.Time
		if d, ok := ctx.Deadline(); ok {
			dl = d
		}
		sd.SetSendDeadline(dl)
	}

	// Vectored send: header from the pool, bulk payload straight from
	// the caller's buffer — a write's data crosses the client with zero
	// copies in user space.
	hdr := AppendRequestHeader(bufpool.Get(160+len(req.Cap)+len(req.Args)), req)
	var err error
	if len(req.Data) > 0 {
		err = SendVectored(c.conn, net.Buffers{hdr, req.Data})
	} else {
		err = c.conn.Send(hdr)
	}
	wireLen := uint64(len(hdr) + len(req.Data))
	bufpool.Put(hdr)
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.MsgID)
		c.mu.Unlock()
		c.statFailures.Inc()
		return nil, fmt.Errorf("%w: %w", ErrNotSent, err)
	}
	c.statBytesSent.Add(wireLen)

	// A deadline that passed while the request was being sent came
	// before any reply could. Give up now, whether or not ctx's timer
	// has fired yet, rather than let the select pick at random between
	// the deadline and a reply that has since arrived.
	err = ctx.Err()
	if dl, ok := ctx.Deadline(); ok && err == nil && !time.Now().Before(dl) {
		err = context.DeadlineExceeded
	}
	if err == nil {
		select {
		case reply, ok := <-ch:
			if !ok {
				c.mu.Lock()
				err := c.readErr
				c.mu.Unlock()
				if err == nil {
					err = ErrClosed
				}
				c.statFailures.Inc()
				return nil, err
			}
			c.statLatency.ObserveSince(start)
			return reply, nil
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	c.mu.Lock()
	delete(c.pending, req.MsgID)
	c.mu.Unlock()
	c.statCanceled.Inc()
	return nil, err
}

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() error { return c.conn.Close() }
