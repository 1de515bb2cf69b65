// Package client is the Go client for kexserved. A Client is one
// network process: Dial performs the admission handshake, receiving the
// leased process identity p in [0, N) (or a wire.StatusBusy rejection —
// backpressure, not failure), and every operation then runs under that
// identity on the server. Methods are safe for concurrent use; requests
// on one client are serialized, matching the paper's model of a process
// as a sequential thread of operations.
//
// Operations may be pipelined: Go and GoObj issue an operation and
// return a Pending promise, Flush writes the queued burst (one op as a
// single-op frame, several as pipeline frames — see wire/frame.go), and
// Pending.Wait resolves responses in issue order. A pipeline is still
// one sequential thread of operations — the server applies them in
// issue order under the session's single identity — it just keeps the
// network and the WAL's group commit full while doing so.
package client

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"kexclusion/internal/wire"
)

// ErrBroken marks a client whose connection state is unknowable: an
// operation's deadline expired (or its transport failed) mid-exchange,
// so a response may be stranded half-read in the stream. Every further
// operation fails with this error immediately — the only recovery is a
// fresh Dial, which is exactly what Reconnecting automates.
var ErrBroken = errors.New("client: connection poisoned by a failed exchange; redial")

// BusyError is an admission rejection: the server's identity pool is
// exhausted (or it is draining). RetryAfter carries the server's
// backoff hint — how long it suggests waiting before redialing, zero
// when it offered none. It unwraps to the underlying *wire.Error.
type BusyError struct {
	RetryAfter time.Duration
	Err        *wire.Error
}

func (e *BusyError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("%v (retry after %v)", e.Err, e.RetryAfter)
	}
	return e.Err.Error()
}

// Unwrap exposes the wire-level error to errors.As/Is.
func (e *BusyError) Unwrap() error { return e.Err }

// Client is one admitted kexserved session.
type Client struct {
	mu        sync.Mutex
	conn      net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	nextID    uint64
	session   uint64
	opSeq     uint64
	hello     wire.Hello
	opTimeout time.Duration
	broken    bool
	brokenBy  error

	// Pipelining state. queued holds operations issued with Go but not
	// yet written; frames is the FIFO of response framings still owed by
	// the server (one entry per request frame written); pending is the
	// FIFO of unresolved operations, oldest first.
	queued  []wire.Request
	frames  []outFrame
	pending []*Pending
}

// outFrame records the framing of one written request frame, which is
// the framing the server's answer will arrive in: a single-op frame is
// answered by one Response frame, a pipeline or atomic-group frame by
// BatchResponse frames carrying its n responses in order.
type outFrame struct {
	batched bool
	n       int
}

// Pending is one in-flight pipelined operation: a promise for its
// response. Obtain from Go, resolve with Wait.
type Pending struct {
	c    *Client
	id   uint64
	resp wire.Response
	err  error
	done bool
}

// OpResult is a mutation's outcome.
type OpResult struct {
	// Value is the acknowledged result (the shard value the mutation
	// produced — originally, if it was a duplicate).
	Value int64
	// WasDuplicate reports that the server recognized the op ID as
	// already applied and answered from its dedup window without
	// touching the object again. A retried op seeing this is the
	// exactly-once machinery working, not an error.
	WasDuplicate bool
}

// randomSession draws a nonzero session identity.
func randomSession() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if s := binary.BigEndian.Uint64(b[:]); s != 0 {
			return s
		}
	}
	return uint64(time.Now().UnixNano()) | 1
}

// Dial connects and performs the admission handshake. A server-side
// rejection (pool exhausted, draining) returns a *wire.Error with
// wire.StatusBusy and no Client.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout is Dial with a connect-and-handshake deadline.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	br := bufio.NewReader(conn)
	hello, err := wire.ReadHello(br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	if hello.Status != wire.StatusOK {
		conn.Close()
		we := &wire.Error{Status: hello.Status, Msg: hello.Msg}
		if hello.Status == wire.StatusBusy {
			return nil, &BusyError{
				RetryAfter: time.Duration(hello.RetryAfterMillis) * time.Millisecond,
				Err:        we,
			}
		}
		return nil, we
	}
	// The hello comes from outside the program: ShardFor divides by
	// Shards, and every identity argument assumes 1 <= K <= N.
	if hello.Shards < 1 || hello.K < 1 || hello.K > hello.N {
		conn.Close()
		return nil, fmt.Errorf("client: handshake: server announced an impossible shape (N=%d, K=%d, shards=%d)",
			hello.N, hello.K, hello.Shards)
	}
	conn.SetDeadline(time.Time{})
	if tcp, ok := conn.(*net.TCPConn); ok {
		tcp.SetNoDelay(true)
	}
	return &Client{
		conn:    conn,
		br:      br,
		bw:      bufio.NewWriter(conn),
		hello:   hello,
		session: randomSession(),
	}, nil
}

// Session reports the client's op-ID session identity.
func (c *Client) Session() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// SetSession overrides the op-ID session identity (Dial assigns a
// random one). A wrapper that redials uses a stable session so a
// retried mutation is recognized across connections; zero disables
// deduplication entirely. Set before issuing operations.
func (c *Client) SetSession(s uint64) {
	c.mu.Lock()
	c.session = s
	c.mu.Unlock()
}

// Identity reports the process identity p the server leased to this
// session.
func (c *Client) Identity() int { return int(c.hello.Identity) }

// Hello reports the full admission handshake (server shape included).
func (c *Client) Hello() wire.Hello { return c.hello }

// SetOpTimeout bounds every subsequent operation: the whole exchange —
// write, server work, response read — must finish within d or the
// operation fails and the connection is poisoned (see ErrBroken; a
// missed deadline leaves the stream in an unknowable state). Zero
// removes the bound. Dial's handshake deadline used to be the only one
// ever armed; without this, a stalled or partitioned server hangs the
// caller for as long as the TCP stack is willing to wait.
func (c *Client) SetOpTimeout(d time.Duration) {
	c.mu.Lock()
	c.opTimeout = d
	c.mu.Unlock()
}

// Go issues one root-register or control operation without waiting for
// its response: the request is queued (written on the next Flush —
// Wait flushes implicitly) and a Pending promise is returned. Issuing
// several operations before waiting is how a caller pipelines: the
// server reads the whole burst, applies it under ONE durability wait,
// and answers in one flush. seq is the op-ID sequence number for
// mutations (zero for idempotent kinds, which are never deduplicated
// or logged). Responses resolve strictly in issue order.
func (c *Client) Go(kind wire.Kind, shard uint32, arg int64, seq uint64) (*Pending, error) {
	return c.GoObj(kind, "", "", shard, arg, 0, seq)
}

// GoObj is Go for a named-object operation: obj names the object, key
// a map entry, arg2 the second operand (see wire.Request).
func (c *Client) GoObj(kind wire.Kind, obj, key string, shard uint32, arg, arg2 int64, seq uint64) (*Pending, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.goObjLocked(kind, obj, key, shard, arg, arg2, seq)
}

func (c *Client) goObjLocked(kind wire.Kind, obj, key string, shard uint32, arg, arg2 int64, seq uint64) (*Pending, error) {
	if c.broken {
		return nil, c.brokenErrLocked()
	}
	c.nextID++
	req := wire.Request{ID: c.nextID, Kind: kind, Shard: shard, Arg: arg,
		Session: c.session, Seq: seq, Obj: obj, Key: key, Arg2: arg2}
	c.queued = append(c.queued, req)
	p := &Pending{c: c, id: req.ID}
	c.pending = append(c.pending, p)
	return p, nil
}

// doObj is one serialized exchange: issue, flush, wait.
func (c *Client) doObj(kind wire.Kind, obj, key string, shard uint32, arg, arg2 int64, seq uint64) (wire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.goObjLocked(kind, obj, key, shard, arg, arg2, seq)
	if err != nil {
		return wire.Response{}, err
	}
	return c.waitLocked(p)
}

// Flush writes every queued operation to the connection: a single op
// as a 0xC0 frame (answered by one Response), several as 0xC1 pipeline
// frames (answered by BatchResponse frames).
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

func (c *Client) flushLocked() error {
	if c.broken {
		return c.brokenErrLocked()
	}
	if len(c.queued) == 0 {
		return nil
	}
	c.armDeadlineLocked()
	for off := 0; off < len(c.queued); off += wire.MaxBatchOps {
		reqs := c.queued[off:min(off+wire.MaxBatchOps, len(c.queued))]
		var payload []byte
		var err error
		if len(reqs) == 1 {
			payload, err = wire.EncodeObjRequest(reqs[0])
		} else {
			payload, err = wire.ObjBatch{Reqs: reqs}.Encode()
		}
		if err != nil {
			// The ops are already queued as pendings; those must fail
			// rather than hang.
			c.poisonLocked(err)
			return err
		}
		if err := c.writeFrameLocked(payload, outFrame{batched: len(reqs) > 1, n: len(reqs)}); err != nil {
			return err
		}
	}
	c.queued = c.queued[:0]
	if err := c.bw.Flush(); err != nil {
		c.poisonLocked(err)
		return err
	}
	return nil
}

// armDeadlineLocked bounds the next write or read by the op timeout.
func (c *Client) armDeadlineLocked() {
	if c.opTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opTimeout))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
}

// writeFrameLocked buffers one encoded request frame and records the
// answer shape the server now owes.
func (c *Client) writeFrameLocked(payload []byte, f outFrame) error {
	if err := wire.WriteFrame(c.bw, payload); err != nil {
		c.poisonLocked(err)
		return err
	}
	c.frames = append(c.frames, f)
	return nil
}

// Wait flushes any queued operations and blocks until this operation's
// response arrives, reading (and resolving) every earlier pipelined
// response on the way — responses arrive in issue order, so waiting on
// the newest operation drains the whole pipeline. The returned error
// is the operation's own wire-level error (e.g. wire.StatusBusy) or
// the transport failure that poisoned the connection.
func (p *Pending) Wait() (wire.Response, error) {
	p.c.mu.Lock()
	defer p.c.mu.Unlock()
	return p.c.waitLocked(p)
}

// Result is Wait shaped as a mutation outcome.
func (p *Pending) Result() (OpResult, error) {
	resp, err := p.Wait()
	return OpResult{Value: resp.Value, WasDuplicate: resp.Flags&wire.FlagDuplicate != 0}, err
}

func (c *Client) waitLocked(p *Pending) (wire.Response, error) {
	if p.done {
		return p.resp, p.err
	}
	if err := c.flushLocked(); err != nil {
		if p.done { // a failed flush poisons, which resolves p
			return p.resp, p.err
		}
		return wire.Response{}, err
	}
	for !p.done {
		if err := c.readFrameLocked(); err != nil {
			if p.done {
				// p resolved inside the failing frame, before the stream
				// died: its answer is real even though the pipeline broke.
				return p.resp, p.err
			}
			return wire.Response{}, err
		}
	}
	return p.resp, p.err
}

// readFrameLocked consumes the server's answer to the oldest
// outstanding request frame and resolves the pendings it carries.
func (c *Client) readFrameLocked() error {
	if c.broken {
		return c.brokenErrLocked()
	}
	if len(c.frames) == 0 {
		err := errors.New("client: waiting for a response with no request frame outstanding")
		c.poisonLocked(err)
		return err
	}
	c.armDeadlineLocked()
	f := c.frames[0]
	if !f.batched {
		resp, err := wire.ReadResponse(c.br)
		if err != nil {
			c.poisonLocked(err)
			return err
		}
		c.frames = c.frames[1:]
		return c.resolveLocked(resp)
	}
	// A pipeline or group frame is answered by one or more BatchResponse
	// frames totalling f.n responses (the server splits frames that
	// would exceed wire.MaxFrame).
	got := 0
	for got < f.n {
		batch, err := wire.ReadBatchResponse(c.br)
		if err != nil {
			c.poisonLocked(err)
			return err
		}
		if len(batch.Resps) > f.n-got {
			err := fmt.Errorf("client: server answered %d responses to a batch of %d", got+len(batch.Resps), f.n)
			c.poisonLocked(err)
			return err
		}
		for _, resp := range batch.Resps {
			if err := c.resolveLocked(resp); err != nil {
				return err
			}
		}
		got += len(batch.Resps)
	}
	c.frames = c.frames[1:]
	return nil
}

// resolveLocked matches one response to the oldest unresolved
// operation — the wire guarantees issue order, so anything else is a
// protocol violation that poisons the connection.
func (c *Client) resolveLocked(resp wire.Response) error {
	if len(c.pending) == 0 {
		err := fmt.Errorf("client: response id %d with no operation outstanding", resp.ID)
		c.poisonLocked(err)
		return err
	}
	p := c.pending[0]
	if resp.ID != p.id {
		err := fmt.Errorf("client: response id %d for request %d", resp.ID, p.id)
		c.poisonLocked(err)
		return err
	}
	c.pending = c.pending[1:]
	p.resp = resp
	p.err = resp.Err()
	p.done = true
	return nil
}

// poisonLocked marks the connection unknowable and fails every
// unresolved operation: once a write, read, or deadline fails
// mid-pipeline there is no telling which of the outstanding ops the
// server applied, so all of them answer ErrBroken (wrapping the
// cause) and the caller's exactly-once retry machinery — stable
// session, reused seq — decides what is safe to re-issue.
func (c *Client) poisonLocked(cause error) {
	if c.broken {
		return
	}
	c.broken = true
	c.brokenBy = cause
	for _, p := range c.pending {
		if !p.done {
			p.resp = wire.Response{}
			p.err = fmt.Errorf("%w (cause: %v)", ErrBroken, cause)
			p.done = true
		}
	}
	c.pending = nil
	c.queued = nil
	c.frames = nil
}

func (c *Client) brokenErrLocked() error {
	if c.brokenBy != nil {
		return fmt.Errorf("%w (cause: %v)", ErrBroken, c.brokenBy)
	}
	return ErrBroken
}

// Ping round-trips a no-op.
func (c *Client) Ping() error {
	_, err := c.doObj(wire.KindPing, "", "", 0, 0, 0, 0)
	return err
}

// Get reads shard's value, linearized with all updates.
func (c *Client) Get(shard uint32) (int64, error) {
	resp, err := c.doObj(wire.KindGet, "", "", shard, 0, 0, 0)
	return resp.Value, err
}

// NextSeq allocates the next op-ID sequence number. Use with AddOp/
// SetOp to assign a mutation its ID once and reuse it verbatim on
// every retry — the contract that makes retried mutations exactly-once.
func (c *Client) NextSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opSeq++
	return c.opSeq
}

// Add adds delta to shard and returns the new value.
func (c *Client) Add(shard uint32, delta int64) (int64, error) {
	res, err := c.AddOp(shard, delta, c.NextSeq())
	return res.Value, err
}

// AddOp is Add with a caller-managed op sequence number: re-issuing
// with the same seq (after a lost response) returns the original
// result with WasDuplicate set instead of adding again.
func (c *Client) AddOp(shard uint32, delta int64, seq uint64) (OpResult, error) {
	resp, err := c.doObj(wire.KindAdd, "", "", shard, delta, 0, seq)
	return OpResult{Value: resp.Value, WasDuplicate: resp.Flags&wire.FlagDuplicate != 0}, err
}

// Set overwrites shard with v.
func (c *Client) Set(shard uint32, v int64) error {
	_, err := c.SetOp(shard, v, c.NextSeq())
	return err
}

// SetOp is Set with a caller-managed op sequence number (see AddOp).
func (c *Client) SetOp(shard uint32, v int64, seq uint64) (OpResult, error) {
	resp, err := c.doObj(wire.KindSet, "", "", shard, v, 0, seq)
	return OpResult{Value: resp.Value, WasDuplicate: resp.Flags&wire.FlagDuplicate != 0}, err
}

// Stats fetches the server's metrics snapshot.
func (c *Client) Stats() (wire.Stats, error) {
	resp, err := c.doObj(wire.KindStats, "", "", 0, 0, 0, 0)
	if err != nil {
		return wire.Stats{}, err
	}
	return wire.ParseStats(resp.Data)
}

// Close ends the session cleanly; the server reclaims the identity.
func (c *Client) Close() error { return c.conn.Close() }

// HardClose kills the connection abruptly (SO_LINGER=0, so close sends
// RST and discards anything buffered) — the network form of the paper's
// crash fault, for tests that kill a session mid-operation.
func (c *Client) HardClose() error {
	if tcp, ok := c.conn.(*net.TCPConn); ok {
		tcp.SetLinger(0)
	}
	return c.conn.Close()
}
