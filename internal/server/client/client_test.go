package client

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"kexclusion/internal/wire"
)

// fakeEndpoint accepts one connection and runs serve against it.
func fakeEndpoint(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		serve(conn)
	}()
	return ln.Addr().String()
}

// opStream lets a scripted endpoint consume the client's operations one
// at a time, whatever frames they arrived in.
type opStream struct {
	conn  net.Conn
	frame wire.ReqFrame
	next  int
}

// admit sends the admission hello of a 1-process, 1-shard server.
func admit(conn net.Conn) *opStream {
	wire.WriteHello(conn, wire.Hello{Status: wire.StatusOK, Identity: 0, N: 1, K: 1, Shards: 1})
	return &opStream{conn: conn}
}

// read returns the client's next operation, reading a frame when the
// previous one is used up.
func (s *opStream) read() (wire.Request, error) {
	if s.next == len(s.frame.Reqs) {
		f, err := wire.ReadRequestFrame(s.conn)
		if err != nil {
			return wire.Request{}, err
		}
		s.frame, s.next = f, 0
	}
	s.next++
	return s.frame.Reqs[s.next-1], nil
}

// answer replies to the operation read last in the shape its frame is
// owed. A pipeline's responses go out one BatchResponse frame each —
// legal, since the client consumes them by count — so a script that
// hangs up mid-burst leaves the earlier answers delivered.
func (s *opStream) answer(resp wire.Response) {
	if s.frame.Batched {
		wire.WriteBatchResponses(s.conn, []wire.Response{resp})
	} else {
		wire.WriteResponse(s.conn, resp)
	}
}

func TestDialRejectsNonProtocolEndpoint(t *testing.T) {
	addr := fakeEndpoint(t, func(conn net.Conn) {
		// A frame whose payload is not a Hello (wrong magic).
		wire.WriteFrame(conn, []byte("HTTP/1.1 200 OK\r\n\r\nhello world junk..."))
	})
	_, err := DialTimeout(addr, 2*time.Second)
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want protocol-magic error, got %v", err)
	}
}

func TestDialSurfacesBusy(t *testing.T) {
	addr := fakeEndpoint(t, func(conn net.Conn) {
		wire.WriteHello(conn, wire.Hello{Status: wire.StatusBusy, RetryAfterMillis: 250, Msg: "all leased"})
	})
	_, err := DialTimeout(addr, 2*time.Second)
	var be *BusyError
	if !errors.As(err, &be) || be.RetryAfter != 250*time.Millisecond {
		t.Fatalf("want *BusyError with hint, got %v", err)
	}
	// The wire-level error stays reachable through the wrapper.
	var we *wire.Error
	if !errors.As(err, &we) || we.Status != wire.StatusBusy || !strings.Contains(we.Msg, "all leased") {
		t.Fatalf("want busy *wire.Error via Unwrap, got %v", err)
	}
}

// TestDialRejectsImpossibleShape: an OK hello is outside input. A shard
// count of zero would make ShardFor divide by zero, and k-exclusion
// needs 1 <= K <= N; such a hello fails the dial instead.
func TestDialRejectsImpossibleShape(t *testing.T) {
	for _, h := range []wire.Hello{
		{Status: wire.StatusOK, N: 4, K: 2, Shards: 0},
		{Status: wire.StatusOK, N: 4, K: 0, Shards: 1},
		{Status: wire.StatusOK, N: 2, K: 3, Shards: 1},
		{Status: wire.StatusOK},
	} {
		addr := fakeEndpoint(t, func(conn net.Conn) { wire.WriteHello(conn, h) })
		c, err := DialTimeout(addr, 2*time.Second)
		if err == nil {
			c.Close()
			t.Fatalf("hello %+v admitted; ShardFor would divide by %d", h, h.Shards)
		}
		if !strings.Contains(err.Error(), "impossible shape") {
			t.Fatalf("hello %+v: want shape error, got %v", h, err)
		}
	}
}

func TestDialHandshakeTimeout(t *testing.T) {
	// Endpoint accepts but never sends a Hello.
	addr := fakeEndpoint(t, func(conn net.Conn) {
		time.Sleep(5 * time.Second)
	})
	start := time.Now()
	_, err := DialTimeout(addr, 200*time.Millisecond)
	if err == nil {
		t.Fatal("handshake against a silent endpoint succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("handshake timeout not honoured: %v", time.Since(start))
	}
}

func TestResponseIDMismatch(t *testing.T) {
	addr := fakeEndpoint(t, func(conn net.Conn) {
		ops := admit(conn)
		req, err := ops.read()
		if err != nil {
			return
		}
		ops.answer(wire.Response{ID: req.ID + 99, Status: wire.StatusOK})
	})
	c, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err == nil || !strings.Contains(err.Error(), "response id") {
		t.Fatalf("want id-mismatch error, got %v", err)
	}
}
