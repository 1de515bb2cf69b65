// Package client is the Go client for kexserved. A Client is one
// network process: the dial performs the admission handshake, receiving
// the leased process identity p in [0, N) (or a wire.StatusBusy
// rejection — backpressure, not failure), and every operation then runs
// under that identity on the server. Methods are safe for concurrent
// use; requests on one client are serialized, matching the paper's
// model of a process as a sequential thread of operations.
//
// Operations may be pipelined: Go and GoObj issue an operation and
// return a Pending promise, Flush writes the queued burst (one op as a
// single-op frame, several as pipeline frames — see wire/frame.go), and
// Pending.Wait resolves responses in issue order. A pipeline is still
// one sequential thread of operations — the server applies them in
// issue order under the session's single identity — it just keeps the
// network and the WAL's group commit full while doing so.
//
// A Client is also the paper's recoverable process: it carries one
// op-ID session for its whole life and a RetryPolicy, and every
// operation — legacy register, typed object or atomic group, serialized
// or pipelined — settles through one loop (waitLocked) that re-issues
// an unresolved request verbatim, under the same session × seq, until
// it has an answer or its budget is spent. Dial and DialTimeout give a
// budget of one attempt: nothing is ever re-issued, a failed exchange
// poisons the connection (ErrBroken) and the caller owns recovery.
// DialRetry gives a real budget: the client redials through connection
// loss, follows cluster redirects and backs off on refusals. What may
// be re-issued, and where, is the outcome table in retry.go.
package client

import (
	"bufio"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kexclusion/internal/wire"
)

// ErrBroken marks an exchange that died mid-flight: an operation's
// deadline expired or its transport failed, so a response may be
// stranded half-read in the stream and the operation may or may not
// have been applied. On a client with a budget of one attempt the
// connection is poisoned: every unresolved and every further operation
// fails with this error immediately, and the only recovery is a fresh
// dial. A client with a retry budget redials and re-issues instead, and
// surfaces ErrBroken only for an operation it may not re-issue (a
// mutation without an op ID) or whose budget ran out.
var ErrBroken = errors.New("client: connection poisoned by a failed exchange; redial")

// ErrClosed is the terminal error of an operation that was parked in a
// backoff or a redial when Close was called, and of every later one.
var ErrClosed = errors.New("client: closed")

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

// Client is one kexserved session: one op-ID identity, one sequential
// thread of operations, over however many connections its retry budget
// lets it dial.
type Client struct {
	mu          sync.Mutex // serializes operations; held through backoffs and redials
	addr        string     // current dial target (rotated by cluster redirects)
	home        string     // the configured address, the fallback when addr dies
	policy      RetryPolicy
	dialTimeout time.Duration
	opTimeout   time.Duration
	rng         *rand.Rand
	session     uint64
	opSeq       uint64
	nextID      uint64
	broken      error // budget of one: the failure that poisoned the connection

	// connMu guards conn and hello for the readers that must not wait
	// for mu — Close above all, which has to reach the connection of an
	// operation parked under mu. Both are written under mu AND connMu,
	// so the operation path reads them under mu alone. cancel wakes a
	// parked backoff or dial.
	connMu sync.Mutex
	conn   net.Conn // nil between a drop and the next successful redial
	hello  wire.Hello
	ctx    context.Context
	cancel context.CancelFunc
	br     *bufio.Reader
	bw     *bufio.Writer

	// Pipelining state. pending is the FIFO of unresolved operations,
	// oldest first: its first sent entries are on the wire, in the order
	// the server will answer them, and the rest are queued for the next
	// flush. reqs and resps are the flush's and the read's scratch;
	// verdict is what the outcomes since the last issue ask for, owed
	// before the next one (payLocked).
	pending []*Pending
	sent    int
	reqs    []wire.Request
	resps   []wire.Response
	verdict verdict

	reconnects atomic.Int64
	retries    atomic.Int64
	dupeAcks   atomic.Int64
	redirects  atomic.Int64
}

// Pending is one in-flight operation: its request, kept verbatim for
// re-issue, and a promise for its response. Obtain from Go, resolve
// with Wait.
type Pending struct {
	c   *Client
	req wire.Request
	// group, when non-nil, lists the members of the atomic group this
	// request belongs to, itself included, in frame order. A group is ONE
	// operation: it enters and leaves the pending queue whole, travels
	// as one 0xC2 frame on every issue, spends its first member's budget
	// and settles — resolved, requeued or failed — all members at once.
	group []*Pending
	frame int // on the first request of a written frame: how many it carries
	tries int // attempts that ended in a refusal or a lost exchange
	hops  int // cluster redirects followed
	resp  wire.Response
	err   error
	done  bool
}

// fail resolves every request of u with err.
func fail(u []*Pending, err error) {
	for _, p := range u {
		p.resp, p.err, p.done = wire.Response{}, err, true
	}
}

// unitAt returns the operation that starts at q[i] as the requests it
// is made of: q[i] alone, or its whole atomic group. The first request
// carries the operation's budget.
func unitAt(q []*Pending, i int) []*Pending {
	n := max(1, len(q[i].group))
	return q[i : i+n : i+n]
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

// Dial connects and performs the admission handshake with a budget of
// one attempt. A server-side rejection (pool exhausted, draining)
// returns a *BusyError and no Client.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout is Dial with a connect-and-handshake deadline.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	return dial(addr, RetryPolicy{MaxAttempts: 1}, timeout)
}

// DialRetry dials addr under policy's budget (so a busy server parks
// the caller through backoff instead of failing the first admission).
// The returned client spends the same budget on every operation: see
// RetryPolicy.
func DialRetry(addr string, policy RetryPolicy) (*Client, error) {
	return dial(addr, policy.withDefaults(), 10*time.Second)
}

func dial(addr string, policy RetryPolicy, timeout time.Duration) (*Client, error) {
	c := &Client{
		addr:        addr,
		home:        addr,
		policy:      policy,
		dialTimeout: timeout,
		rng:         rand.New(rand.NewSource(policy.Seed)),
		// One session identity for the client's whole life, so a mutation
		// re-issued after a redial carries the op ID the lost copy did.
		// Random — identity must be unique per client, so it is never
		// derived from the (defaultable, shareable) jitter seed; a caller
		// that needs it deterministic uses SetSession and owns uniqueness.
		session: randomSession(),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.mu.Lock()
	defer c.mu.Unlock()
	tries := 0
	if err := c.connectLocked(&tries); err != nil {
		c.cancel()
		return nil, err
	}
	return c, nil
}

// dialLocked makes one connection attempt at c.addr: connect, then the
// admission handshake.
func (c *Client) dialLocked() error {
	d := net.Dialer{Timeout: c.dialTimeout}
	conn, err := d.DialContext(c.ctx, "tcp", c.addr)
	if err != nil {
		return err
	}
	// Published before the handshake so that Close can interrupt it.
	c.connMu.Lock()
	if c.ctx.Err() != nil {
		c.connMu.Unlock()
		conn.Close()
		return ErrClosed
	}
	c.conn = conn
	c.connMu.Unlock()
	br := bufio.NewReader(conn)
	hello, err := handshake(conn, br, c.dialTimeout)
	if err != nil {
		c.dropLocked()
		return err
	}
	c.connMu.Lock()
	c.hello = hello
	c.connMu.Unlock()
	c.br, c.bw = br, bufio.NewWriter(conn)
	c.reconnects.Add(1)
	return nil
}

// handshake reads and checks the server's Hello within timeout.
func handshake(conn net.Conn, br *bufio.Reader, timeout time.Duration) (wire.Hello, error) {
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	hello, err := wire.ReadHello(br)
	if err != nil {
		return hello, fmt.Errorf("client: handshake: %w", err)
	}
	if hello.Status != wire.StatusOK {
		we := &wire.Error{Status: hello.Status, Msg: hello.Msg}
		if hello.Status == wire.StatusBusy {
			return hello, &BusyError{
				RetryAfter: time.Duration(hello.RetryAfterMillis) * time.Millisecond,
				Err:        we,
			}
		}
		return hello, we
	}
	// The hello comes from outside the program: ShardFor divides by
	// Shards, and every identity argument assumes 1 <= K <= N.
	if hello.Shards < 1 || hello.K < 1 || hello.K > hello.N {
		return hello, fmt.Errorf("client: handshake: server announced an impossible shape (N=%d, K=%d, shards=%d)",
			hello.N, hello.K, hello.Shards)
	}
	conn.SetDeadline(time.Time{})
	if tcp, ok := conn.(*net.TCPConn); ok {
		tcp.SetNoDelay(true)
	}
	return hello, nil
}

// dropLocked discards the connection. Nothing may be on the wire: the
// caller has either read every owed answer or requeued the operations
// that lost theirs (failConnLocked).
func (c *Client) dropLocked() {
	c.connMu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.connMu.Unlock()
}

// Session reports the client's op-ID session identity.
func (c *Client) Session() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// SetSession overrides the op-ID session identity (the dial assigns a
// random one), for harnesses that need it deterministic; the caller
// then owns uniqueness across concurrently live clients. Zero disables
// deduplication entirely. An operation carries the session in force
// when it was issued (Go), on every re-issue.
func (c *Client) SetSession(s uint64) {
	c.mu.Lock()
	c.session = s
	c.mu.Unlock()
}

// Identity reports the process identity p the server leased to this
// session's current connection.
func (c *Client) Identity() int { return int(c.Hello().Identity) }

// Hello reports the latest admission handshake (server shape included).
func (c *Client) Hello() wire.Hello {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.hello
}

// SetOpTimeout bounds every subsequent exchange: write, server work,
// response read must finish within d or the exchange counts as lost
// (see ErrBroken; a missed deadline leaves the stream in an unknowable
// state). Zero removes the bound. Without it a stalled or partitioned
// server hangs the caller for as long as the TCP stack is willing to
// wait.
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
	if c.broken != nil {
		return nil, c.broken
	}
	c.nextID++
	p := &Pending{c: c, req: wire.Request{ID: c.nextID, Kind: kind, Shard: shard, Arg: arg,
		Session: c.session, Seq: seq, Obj: obj, Key: key, Arg2: arg2}}
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
// frames (answered by BatchResponse frames). It reports what no Wait
// will heal: a poisoned or closed client, a connection that could not
// be had, a request the codec refused. On a client with a retry budget a
// failed write is not among them — the operations it cost are queued
// again and their Wait re-issues them.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	tries := 0
	if err := c.connectLocked(&tries); err != nil {
		return err
	}
	return c.flushLocked()
}

// flushLocked frames and writes pending[sent:]: an atomic group whole
// as its own 0xC2 frame, every other run of operations as pipeline
// frames of at most wire.MaxBatchOps. It returns the codec's refusal of
// a request or the failure that poisoned the connection; any other
// write failure has requeued or failed its operations (failConnLocked).
func (c *Client) flushLocked() error {
	if c.sent == len(c.pending) {
		return nil
	}
	c.armDeadlineLocked()
	var refused, lost error
	for lost == nil && c.sent < len(c.pending) {
		i := c.sent
		group := c.pending[i].group != nil
		j := i + len(unitAt(c.pending, i))
		for !group && j < len(c.pending) && c.pending[j].group == nil && j-i < wire.MaxBatchOps {
			j++
		}
		var payload []byte
		var err error
		if j-i == 1 && !group {
			payload, err = wire.EncodeObjRequest(c.pending[i].req)
		} else {
			c.reqs = c.reqs[:0]
			for _, p := range c.pending[i:j] {
				c.reqs = append(c.reqs, p.req)
			}
			payload, err = wire.ObjBatch{Reqs: c.reqs, Atomic: group}.Encode()
		}
		if err != nil {
			// The codec refused the frame (an over-long name, say): its
			// operations fail rather than hang, and nothing of them was
			// written, so the stream is intact.
			fail(c.pending[i:j], err)
			c.pending = append(c.pending[:i], c.pending[j:]...)
			if refused == nil {
				refused = err
			}
			continue
		}
		// Counted as sent before the write: a frame that failed halfway
		// through is as lost as one whose answer never came.
		c.sent = j
		c.pending[i].frame = j - i
		lost = wire.WriteFrame(c.bw, payload)
	}
	if lost == nil {
		lost = c.bw.Flush()
	}
	if lost != nil {
		c.failConnLocked(lost)
		if c.broken != nil {
			return lost
		}
	}
	return refused
}

// armDeadlineLocked bounds the next write or read by the op timeout.
func (c *Client) armDeadlineLocked() {
	if c.opTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opTimeout))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
}

// Wait flushes any queued operations and blocks until this operation
// has an outcome, reading (and resolving) every earlier pipelined
// response on the way — responses arrive in issue order, so waiting on
// the newest operation drains the whole pipeline. The outcome is the
// response, the operation's own terminal wire-level error (e.g.
// wire.StatusBadShard), or, once the retry budget is spent, the last
// refusal or transport failure (see the outcome table in retry.go).
func (p *Pending) Wait() (wire.Response, error) {
	p.c.mu.Lock()
	defer p.c.mu.Unlock()
	return p.c.waitLocked(p)
}

// waitLocked is the client's one retry loop. Each turn pays what the
// last one's outcomes asked for — rotate to a redirect's target, back
// off — and redials a lost or refused connection (connectLocked), issues
// every unresolved request, and reads answers until p has its own or
// the wire is empty; settleLocked classifies each outcome once,
// resolving the operation or queueing it for another attempt. A
// serialized operation is a burst of one; an atomic group is one
// operation of several requests, waited on by its first. With a budget
// of one attempt every refusal and every loss is terminal, so the loop
// runs once.
func (c *Client) waitLocked(p *Pending) (wire.Response, error) {
	for !p.done {
		if err := c.connectLocked(&p.tries); err != nil {
			c.abandonLocked(p, err)
			break
		}
		c.flushLocked() // a failure has resolved or requeued its operations
		for !p.done && c.sent > 0 {
			c.readFrameLocked()
		}
	}
	return p.resp, p.err
}

// readFrameLocked consumes the server's answer to the oldest
// outstanding request frame — the oldest operation on the wire heads it
// — and settles the operations it carries; a failure costs the
// connection (failConnLocked).
func (c *Client) readFrameLocked() {
	c.armDeadlineLocked()
	n, group := c.pending[0].frame, c.pending[0].group != nil
	if n == 1 && !group {
		// A single-op frame is answered by one Response frame.
		resp, err := wire.ReadResponse(c.br)
		if err != nil {
			c.failConnLocked(err)
			return
		}
		c.resps = append(c.resps[:0], resp)
		c.settleLocked(c.resps)
		return
	}
	// A pipeline or group frame is answered by one or more BatchResponse
	// frames totalling n responses (the server splits frames that would
	// exceed wire.MaxFrame). A pipeline's operations settle one by one
	// as their answers arrive; a group settles once, with all of its
	// answers in hand — a stream that dies between two of them must not
	// leave the group half resolved.
	c.resps = c.resps[:0]
	for got := 0; got < n; {
		batch, err := wire.ReadBatchResponse(c.br)
		if err == nil && len(batch.Resps) > n-got {
			err = fmt.Errorf("client: server answered %d responses to a batch of %d", got+len(batch.Resps), n)
		}
		if err != nil {
			c.failConnLocked(err)
			return
		}
		got += len(batch.Resps)
		if group {
			c.resps = append(c.resps, batch.Resps...)
			continue
		}
		for i := range batch.Resps {
			if !c.settleLocked(batch.Resps[i : i+1]) {
				return
			}
		}
	}
	if group {
		c.settleLocked(c.resps)
	}
}

// settleLocked matches resps to the requests of the oldest operation on
// the wire — the wire guarantees issue order, so anything else is a
// protocol violation that costs the connection (and reports false) —
// and settles it whole: all OK resolves it, anything else goes through
// the outcome table under the one refusal that speaks for it (the
// member that caused an atomic abort carries the reason; any other
// refusal the server gives a group is the same for every member).
func (c *Client) settleLocked(resps []wire.Response) bool {
	u := c.pending[:len(resps):len(resps)]
	var refusal *wire.Error
	for i, p := range u {
		if resps[i].ID != p.req.ID {
			c.failConnLocked(fmt.Errorf("client: response id %d for request %d", resps[i].ID, p.req.ID))
			return false
		}
		if resps[i].Status != wire.StatusOK && (refusal == nil || refusal.Msg == "") {
			refusal = resps[i].Err().(*wire.Error)
		}
	}
	c.pending = c.pending[len(u):]
	c.sent -= len(u)
	if refusal != nil {
		c.refusedLocked(u, refusal)
		return true
	}
	for i, p := range u {
		if resps[i].Flags&wire.FlagDuplicate != 0 {
			c.dupeAcks.Add(1)
		}
		p.resp, p.done = resps[i], true
	}
	return true
}

// abandonLocked fails what err leaves no way to issue: everything
// unresolved on a closed or poisoned client; otherwise p alone, which
// could not get a connection within its own budget — the operations
// queued around it have theirs to spend, on their own Wait.
func (c *Client) abandonLocked(p *Pending, err error) {
	i, n := 0, len(c.pending)
	if c.broken == nil && !errors.Is(err, ErrClosed) {
		i = slices.Index(c.pending, p)
		n = len(unitAt(c.pending, i))
	} else {
		c.dropLocked() // and with it whatever was on the wire
		c.sent = 0
	}
	fail(c.pending[i:i+n], err)
	c.pending = slices.Delete(c.pending, i, i+n)
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

// NextSeq allocates the next op-ID sequence number. Every mutating
// method without an explicit seq draws one; use it with the *Op methods
// and Go to assign a mutation its ID once and reuse it verbatim on a
// re-issue of your own — the contract that makes a mutation
// exactly-once.
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
// result with WasDuplicate set instead of adding again. A zero seq
// opts out of deduplication, and so out of every retry that is not
// known to be safe (see the outcome table).
func (c *Client) AddOp(shard uint32, delta int64, seq uint64) (ObjResult, error) {
	resp, err := c.doObj(wire.KindAdd, "", "", shard, delta, 0, seq)
	return objResult(resp), err
}

// Set overwrites shard with v.
func (c *Client) Set(shard uint32, v int64) error {
	_, err := c.doObj(wire.KindSet, "", "", shard, v, 0, c.NextSeq())
	return err
}

// Stats fetches the server's metrics snapshot.
func (c *Client) Stats() (wire.Stats, error) {
	resp, err := c.doObj(wire.KindStats, "", "", 0, 0, 0, 0)
	if err != nil {
		return wire.Stats{}, err
	}
	return wire.ParseStats(resp.Data)
}

// Close ends the session; the server reclaims the identity. It does not
// wait for an operation in progress: one blocked on the connection sees
// it fail, one parked in a backoff or a redial is woken, and either
// returns ErrClosed without a further dial. Closing twice is harmless.
func (c *Client) Close() error { return c.close(false) }

// HardClose kills the connection abruptly (SO_LINGER=0, so close sends
// RST and discards anything buffered) — the network form of the paper's
// crash fault, for tests that kill a session mid-operation.
func (c *Client) HardClose() error { return c.close(true) }

func (c *Client) close(hard bool) error {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	closed := c.ctx.Err() != nil
	c.cancel()
	if closed || c.conn == nil {
		return nil
	}
	if tcp, ok := c.conn.(*net.TCPConn); ok && hard {
		tcp.SetLinger(0)
	}
	return c.conn.Close()
}
