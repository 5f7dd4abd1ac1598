package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"nasd/internal/crypt"
)

func TestEncoderDecoderRoundTrip(t *testing.T) {
	var e Encoder
	e.U8(7)
	e.U16(1000)
	e.U32(70000)
	e.U64(1 << 40)
	e.I64(-5)
	e.Bytes32([]byte("payload"))
	e.String("hello")
	e.Raw([]byte{1, 2, 3})

	d := NewDecoder(e.Bytes())
	if d.U8() != 7 || d.U16() != 1000 || d.U32() != 70000 || d.U64() != 1<<40 || d.I64() != -5 {
		t.Fatal("scalar round trip failed")
	}
	if string(d.Bytes32()) != "payload" || d.String() != "hello" {
		t.Fatal("bytes round trip failed")
	}
	if !bytes.Equal(d.Raw(3), []byte{1, 2, 3}) {
		t.Fatal("raw round trip failed")
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1})
	_ = d.U64() // fails
	if d.Err() == nil {
		t.Fatal("no error for truncated read")
	}
	if d.U8() != 0 || d.U32() != 0 || d.Bytes32() != nil {
		t.Fatal("reads after error returned data")
	}
}

func TestDecoderHostileLength(t *testing.T) {
	var e Encoder
	e.U32(1 << 30) // claims a 1 GB payload
	d := NewDecoder(e.Bytes())
	if d.Bytes32() != nil || d.Err() == nil {
		t.Fatal("hostile length prefix accepted")
	}
}

func TestRequestEncodeDecodeRoundTrip(t *testing.T) {
	req := &Request{
		MsgID:   42,
		Proc:    3,
		SecOpts: SecIntegrity,
		Cap:     []byte("capbytes"),
		Args:    []byte("argbytes"),
		Data:    bytes.Repeat([]byte{9}, 1000),
		Nonce:   crypt.Nonce{Client: 7, Counter: 99},
	}
	req.ReqDig[0] = 1
	req.ReqDig[31] = 2
	msg, err := DecodeMessage(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.(*Request)
	if !ok {
		t.Fatalf("decoded %T", msg)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, req)
	}
}

func TestReplyEncodeDecodeRoundTrip(t *testing.T) {
	rep := &Reply{MsgID: 9, Status: StatusQuota, Msg: "over quota", Args: []byte("a"), Data: []byte("d")}
	msg, err := DecodeMessage(EncodeReply(rep))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.(*Reply)
	if !ok || !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip mismatch: %+v", msg)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeMessage([]byte("not a message")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeMessage(nil); err == nil {
		t.Fatal("empty message accepted")
	}
	var e Encoder
	e.U32(Magic)
	e.U8(99) // bad kind
	if _, err := DecodeMessage(e.Bytes()); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(proc uint16, capb, args, data []byte, client, counter uint64) bool {
		req := &Request{Proc: proc, Cap: capb, Args: args, Data: data,
			Nonce: crypt.Nonce{Client: client, Counter: counter}}
		msg, err := DecodeMessage(EncodeRequest(req))
		if err != nil {
			return false
		}
		got := msg.(*Request)
		// Encoder normalizes nil to empty slices; compare contents.
		return got.Proc == req.Proc &&
			bytes.Equal(got.Cap, req.Cap) &&
			bytes.Equal(got.Args, req.Args) &&
			bytes.Equal(got.Data, req.Data) &&
			got.Nonce == req.Nonce
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRequestDigestKnownAnswer pins the request digest of one fixed
// request under one fixed key. The drive-level tamper tests show each
// field is covered; this vector shows the construction itself did not
// change: HMAC-SHA256 over the procedure, capability, args, nonce,
// payload length and the payload's GMAC tag under the derived payload
// key. A change that drops the payload from the digest, or alters how
// it is bound, changes this value and so breaks every deployed peer.
func TestRequestDigestKnownAnswer(t *testing.T) {
	var key crypt.Key
	for i := range key {
		key[i] = byte(i)
	}
	req := &Request{
		Proc:  2,
		Cap:   []byte("capability public portion"),
		Args:  []byte{1, 0, 42, 0, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0},
		Data:  bytes.Repeat([]byte("payload "), 1000),
		Nonce: crypt.Nonce{Client: 0x0102030405060708, Counter: 42},
	}
	req.Sign(crypt.NewSigner(key))
	const want = "e0ee628efa25c198802322eda41f2f9ac3a3f356f9f67047ef3c5b419df5de7c"
	if got := fmt.Sprintf("%x", req.ReqDig); got != want {
		t.Fatalf("request digest = %s, want %s", got, want)
	}
	if !req.Verify(crypt.NewSigner(key)) {
		t.Fatal("a fresh signer under the same key rejects the digest")
	}
}

func TestPipeSendRecv(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil || string(got) != "ping" {
		t.Fatalf("recv = %q, %v", got, err)
	}
	// Messages don't alias sender buffers.
	msg := []byte("mutate")
	if err := b.Send(msg); err != nil {
		t.Fatal(err)
	}
	msg[0] = 'X'
	got, _ = a.Recv()
	if string(got) != "mutate" {
		t.Fatalf("aliased message: %q", got)
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	a.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("recv after close: %v", err)
	}
	if err := b.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("send after peer close: %v", err)
	}
}

func TestInProcListener(t *testing.T) {
	l := NewInProcListener("drive0")
	if l.Addr() != "inproc://drive0" {
		t.Fatalf("addr = %s", l.Addr())
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		msg, _ := conn.Recv()
		conn.Send(append([]byte("echo:"), msg...))
	}()
	c, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil || string(got) != "echo:hi" {
		t.Fatalf("got %q, %v", got, err)
	}
	l.Close()
	if _, err := l.Dial(); err == nil {
		t.Fatal("dial after close succeeded")
	}
}

func echoServer(t *testing.T) Handler {
	t.Helper()
	return HandlerFunc(func(req *Request) *Reply {
		return &Reply{Status: StatusOK, Args: req.Args, Data: req.Data}
	})
}

func TestClientServerInProc(t *testing.T) {
	l := NewInProcListener("s")
	srv := NewServer(echoServer(t))
	go srv.Serve(l)
	defer srv.Close()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(conn)
	defer cli.Close()

	rep, err := cli.Call(context.Background(), &Request{Proc: 1, Args: []byte("abc"), Data: []byte("xyz")})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusOK || string(rep.Args) != "abc" || string(rep.Data) != "xyz" {
		t.Fatalf("reply = %+v", rep)
	}
}

func TestClientServerTCP(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(echoServer(t))
	go srv.Serve(l)
	defer srv.Close()

	conn, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(conn)
	defer cli.Close()

	big := bytes.Repeat([]byte{0x42}, 2<<20) // 2 MB payload
	rep, err := cli.Call(context.Background(), &Request{Proc: 2, Data: big})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusOK || !bytes.Equal(rep.Data, big) {
		t.Fatal("large TCP round trip failed")
	}
}

func TestConcurrentCallsMultiplexed(t *testing.T) {
	l := NewInProcListener("s")
	srv := NewServer(HandlerFunc(func(req *Request) *Reply {
		return &Reply{Status: StatusOK, Args: req.Args}
	}))
	go srv.Serve(l)
	defer srv.Close()

	conn, _ := l.Dial()
	cli := NewClient(conn)
	defer cli.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("call-%d", i)
			rep, err := cli.Call(context.Background(), &Request{Proc: 1, Args: []byte(want)})
			if err != nil {
				errs <- err
				return
			}
			if string(rep.Args) != want {
				errs <- fmt.Errorf("cross-wired reply: got %q want %q", rep.Args, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCallAfterServerGone(t *testing.T) {
	l := NewInProcListener("s")
	srv := NewServer(echoServer(t))
	go srv.Serve(l)

	conn, _ := l.Dial()
	cli := NewClient(conn)
	if _, err := cli.Call(context.Background(), &Request{Proc: 1}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	conn.Close()
	if _, err := cli.Call(context.Background(), &Request{Proc: 1}); err == nil {
		t.Fatal("call after close succeeded")
	}
}

// stallConn sends each request at once and then holds the sender until
// the reply has been received and stall has passed, so by the time Call
// waits its reply is in and a shorter deadline has already passed.
type stallConn struct {
	Conn
	replied chan struct{}
	stall   time.Duration
}

func (c *stallConn) Send(msg []byte) error {
	if err := c.Conn.Send(msg); err != nil {
		return err
	}
	<-c.replied
	time.Sleep(c.stall)
	return nil
}

func (c *stallConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err == nil {
		c.replied <- struct{}{}
	}
	return msg, err
}

// TestCallDeadlinePassedDuringSendFails: a call whose deadline passed
// while its request was being sent fails with the deadline every time,
// even though the reply is waiting by then. The deadline came first;
// a select between the two would pick either at random.
func TestCallDeadlinePassedDuringSendFails(t *testing.T) {
	l := NewInProcListener("s")
	srv := NewServer(echoServer(t))
	go srv.Serve(l)
	defer srv.Close()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(&stallConn{Conn: conn, replied: make(chan struct{}, 1), stall: 10 * time.Millisecond})
	defer cli.Close()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := cli.Call(ctx, &Request{Proc: 1})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: err = %v, want the deadline", i, err)
		}
	}
}

func TestStatusString(t *testing.T) {
	if StatusOK.String() != "ok" || StatusAuthFailure.String() != "auth-failure" {
		t.Fatal("status names wrong")
	}
	if Status(999).String() == "" {
		t.Fatal("unknown status empty")
	}
}

func TestServerRejectsMalformedTraffic(t *testing.T) {
	l := NewInProcListener("s")
	srv := NewServer(echoServer(t))
	go srv.Serve(l)
	defer srv.Close()
	base := settledGoroutines()

	conn, _ := l.Dial()
	if err := conn.Send([]byte("garbage")); err != nil {
		t.Fatal(err)
	}
	// The server drops the connection.
	if _, err := conn.Recv(); err == nil {
		t.Fatal("server replied to garbage")
	}
	// Every worker of the dropped connection exits, not only the one
	// that read the garbage.
	if d := settledGoroutines() - base; d != 0 {
		t.Fatalf("%d server goroutines outlive the dropped connection", d)
	}
	if n := srv.Metrics().Gauge("rpc.server.conns").Load(); n != 0 {
		t.Fatalf("rpc.server.conns = %d after the drop, want 0", n)
	}
}
