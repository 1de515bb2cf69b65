package client

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"kexclusion/internal/wire"
)

// Retryable reports whether err is safe to retry for ANY operation —
// even one whose request carried no op ID — because the server
// guarantees the operation was never applied:
//
//   - BusyError: admission was refused — the session never existed.
//   - wire.StatusBusy: the server shed the operation under load (the
//     in-flight ceiling); it was refused before touching the table.
//   - wire.StatusTimeout: the per-op deadline expired while the
//     operation was still waiting for a k-assignment slot; it withdrew
//     from the entry section without touching the object.
//   - wire.StatusDraining: the server refused the operation up front.
//   - wire.StatusNotPrimary: a cluster member refused an op for a shard
//     it does not serve, before touching the object; the hinted owner
//     (Error.Msg) will apply it.
//
// Transport failures (ErrBroken, resets, EOF) are deliberately NOT
// here: the request may have been applied with its response lost, so
// blind re-issue of an ID-less mutation can double-apply. Reconnecting
// escapes that bind by giving every mutation an op ID (session × seq)
// and re-issuing it verbatim — the server's dedup window turns the
// ambiguous retry into the original result.
func Retryable(err error) bool {
	var be *BusyError
	if errors.As(err, &be) {
		return true
	}
	var we *wire.Error
	if errors.As(err, &we) {
		switch we.Status {
		case wire.StatusBusy, wire.StatusTimeout, wire.StatusDraining, wire.StatusNotPrimary:
			return true
		}
	}
	return false
}

// maxRedirects caps how many NotPrimary hops one operation will chase
// for free: enough for any real failover chain, small enough that two
// nodes disputing ownership mid-failover cannot bounce a client
// between them without cost forever. Past the cap a redirect still
// rotates — the hint is the freshest routing available — but pays the
// ordinary backoff budget, so the dispute terminates with the budget.
const maxRedirects = 8

// RetryPolicy shapes Reconnecting's backoff: exponential from BaseDelay
// to MaxDelay with full jitter, at most MaxAttempts tries per
// operation. The zero value gets sensible defaults; Seed makes the
// jitter sequence reproducible for tests and chaos harnesses.
type RetryPolicy struct {
	// MaxAttempts is the retry budget: total tries per operation
	// (first attempt included). Default 4.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff. Default 10ms.
	BaseDelay time.Duration
	// MaxDelay caps it. Default 2s.
	MaxDelay time.Duration
	// Seed fixes the jitter stream; 0 picks a fixed default seed (the
	// backoff is deterministic either way — pass different seeds to
	// decorrelate clients). The seed shapes ONLY the jitter, never the
	// wrapper's session identity: two clients sharing a seed must not
	// share an op-ID namespace, or the server's dedup window would
	// cross their operations.
	Seed int64
	// Session pins the wrapper's op-ID session identity, for harnesses
	// that need it deterministic. 0 (the default) draws a random
	// nonzero identity, which is what almost every caller wants: the
	// identity must be unique per wrapper, and anything derived from a
	// shared default would collide. Callers setting this are
	// responsible for uniqueness across concurrently live wrappers.
	Session uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// backoff computes the sleep before retry number attempt (1-based),
// honoring the server's Retry-After hint as a floor: exponential
// growth, then full jitter in [delay/2, delay].
func (p RetryPolicy) backoff(rng *rand.Rand, attempt int, hint time.Duration) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
	if hint > d {
		d = hint
	}
	return d
}

// Reconnecting is a self-healing kexserved client: one logical session
// that redials through connection loss, honors the server's busy
// Retry-After hints, and retries EVERY operation within the policy's
// budget — reads and pings because they are idempotent, mutations
// because each carries a stable op ID (one session identity for the
// lifetime of the wrapper, one sequence number per logical mutation,
// reused verbatim on every re-issue), which the server deduplicates.
// A mutation whose ack was lost to a broken connection is simply sent
// again; if the first copy was applied, the answer comes back with
// WasDuplicate set and the original value. A reconnect admits under a
// fresh process identity; the watchdog on the server side is what
// guarantees the old one comes back to the pool.
//
// Methods are safe for concurrent use but serialize, like Client's.
type Reconnecting struct {
	addr        string // current dial target (rotated by cluster redirects)
	home        string // the configured address, the fallback when addr dies
	policy      RetryPolicy
	opTimeout   time.Duration
	dialTimeout time.Duration
	session     uint64

	mu    sync.Mutex
	c     *Client // nil between a drop and the next successful redial
	rng   *rand.Rand
	opSeq uint64

	reconnects atomic.Int64
	retries    atomic.Int64
	dupeAcks   atomic.Int64
	redirects  atomic.Int64
}

// DialReconnecting dials addr with the policy's budget (so a busy
// server parks the caller through backoff instead of failing the first
// admission), arming every operation with opTimeout (zero = unbounded).
func DialReconnecting(addr string, policy RetryPolicy, opTimeout time.Duration) (*Reconnecting, error) {
	policy = policy.withDefaults()
	seed := policy.Seed
	if seed == 0 {
		seed = 1
	}
	r := &Reconnecting{
		addr:        addr,
		home:        addr,
		policy:      policy,
		opTimeout:   opTimeout,
		dialTimeout: 10 * time.Second,
		rng:         rand.New(rand.NewSource(seed)),
	}
	// One session identity for the wrapper's whole life. Random by
	// default — identity must be unique per wrapper, so it is never
	// derived from the (defaultable, shareable) jitter seed; a policy
	// with an explicit Session opts into determinism and owns
	// uniqueness.
	r.session = policy.Session
	if r.session == 0 {
		r.session = randomSession()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.connectLocked(1); err != nil {
		return nil, err
	}
	return r, nil
}

// connectLocked ensures a live connection, redialing with backoff from
// the given attempt number. Caller holds r.mu.
func (r *Reconnecting) connectLocked(attempt int) error {
	if r.c != nil {
		return nil
	}
	var lastErr error
	for ; attempt <= r.policy.MaxAttempts; attempt++ {
		c, err := DialTimeout(r.addr, r.dialTimeout)
		if err == nil {
			c.SetOpTimeout(r.opTimeout)
			// Every physical connection speaks for the same logical
			// session, so a mutation re-issued after a redial carries the
			// same op ID the lost copy did.
			c.SetSession(r.session)
			r.c = c
			r.reconnects.Add(1)
			return nil
		}
		lastErr = err
		var be *BusyError
		hint := time.Duration(0)
		if errors.As(err, &be) {
			hint = be.RetryAfter
		} else {
			// A connection-level failure (refused, reset, unreachable)
			// gets the budget — riding out partitions is the point — but
			// a typed non-busy rejection is a verdict, not weather.
			var we *wire.Error
			if errors.As(err, &we) {
				return err
			}
		}
		if r.addr != r.home {
			// The address a redirect rotated to has stopped answering —
			// a killed primary, typically. The hint is stale routing, not
			// weather: fall back to the configured address, whose answer
			// (apply, or a fresh redirect to the failover successor) is
			// current.
			r.addr = r.home
		}
		if attempt == r.policy.MaxAttempts {
			break
		}
		r.retries.Add(1)
		time.Sleep(r.policy.backoff(r.rng, attempt, hint))
	}
	return fmt.Errorf("client: budget of %d attempts exhausted: %w", r.policy.MaxAttempts, lastErr)
}

// isNotPrimary extracts a cluster redirect from err (nil otherwise);
// the returned error's Msg carries the owning primary's client address.
func isNotPrimary(err error) *wire.Error {
	var we *wire.Error
	if errors.As(err, &we) && we.Status == wire.StatusNotPrimary {
		return we
	}
	return nil
}

// isInternal reports a StatusInternal answer. Deliberately NOT part of
// the public Retryable: internal does not promise the op was never
// applied (an under-replicated write IS applied locally), so blind
// retry of an ID-less mutation could double-apply. Reconnecting alone
// may retry it, because its mutations carry op IDs the server's dedup
// window resolves to the original result and its reads are idempotent.
// The payoff is the deposed-primary storm: a partitioned primary
// answers internal (quorum wait failed) for up to a lease interval
// before it self-demotes to NotPrimary redirects — clients that ride
// it out with the budget land on the successor instead of failing.
func isInternal(err error) bool {
	var we *wire.Error
	return errors.As(err, &we) && we.Status == wire.StatusInternal
}

// dropLocked discards a connection whose stream is no longer
// trustworthy. Caller holds r.mu.
func (r *Reconnecting) dropLocked() {
	if r.c != nil {
		r.c.Close()
		r.c = nil
	}
}

// op runs one operation under the retry budget. Every operation —
// reads, pings, and ID-carrying mutations alike — survives transport
// failure: the closure is re-run against the healed connection, and
// the server's dedup window makes a re-issued mutation return its
// original result rather than double-apply. Typed terminal refusals
// (bad shard) are surfaced immediately; internal answers retry within
// the budget (see isInternal).
func (r *Reconnecting) op(do func(*Client) (int64, error)) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lastErr error
	hops := 0
	for attempt := 1; attempt <= r.policy.MaxAttempts; attempt++ {
		if err := r.connectLocked(attempt); err != nil {
			return 0, err
		}
		v, err := do(r.c)
		if err == nil {
			return v, nil
		}
		lastErr = err
		hint := time.Duration(0)
		switch {
		case isNotPrimary(err) != nil:
			// A cluster redirect: the shard lives on the hinted primary.
			// The op was refused before touching the object, so rotating
			// there and re-issuing is routing, not failure — within the
			// hop cap it burns no retry budget and sleeps no backoff.
			// Past the cap the rotation still happens (the hint is the
			// freshest routing there is) but pays the ordinary backoff
			// budget. A hint pointing back at the refusing node (its ring
			// collapsed to itself mid-partition) is no hint at all; a
			// hintless refusal while rotated off the configured address
			// falls back home, where routing may be fresher. Either way
			// the server's Retry-After (one lease interval — the earliest
			// a successor can exist) floors the backoff, so the rotation
			// cannot spin faster than ownership can actually move.
			we := isNotPrimary(err)
			r.redirects.Add(1)
			hint = time.Duration(we.RetryAfterMillis) * time.Millisecond
			target := we.Msg
			if target == r.addr {
				target = ""
			}
			if target == "" && r.addr != r.home {
				target = r.home
			}
			if target != "" {
				r.addr = target
				r.dropLocked()
				hops++
				if hops <= maxRedirects && hint == 0 {
					attempt--
					continue
				}
			}
		case Retryable(err):
			var be *BusyError
			if errors.As(err, &be) {
				hint = be.RetryAfter
				r.dropLocked() // busy arrives at admission; the conn is gone
			}
			var we *wire.Error
			if errors.As(err, &we) {
				switch we.Status {
				case wire.StatusDraining:
					r.dropLocked() // the server hangs up after a draining answer
				case wire.StatusBusy:
					// An op-level shed: the session survives — the server
					// answered and keeps serving — so keep the connection
					// and honor the hint as a backoff floor.
					hint = time.Duration(we.RetryAfterMillis) * time.Millisecond
				}
			}
		case isInternal(err):
			// Retryable only HERE (see isInternal): this wrapper's op IDs
			// make the ambiguous re-issue exactly-once. The session
			// survives — the server answered — so keep the connection and
			// pay the ordinary backoff budget.
		default:
			var we *wire.Error
			if errors.As(err, &we) {
				return 0, err // typed refusal (bad shard, internal): not transient
			}
			// Transport failure: the exchange died mid-flight. The next
			// attempt re-issues the same request — same session, same seq
			// for mutations — over a fresh connection.
			r.dropLocked()
		}
		if attempt == r.policy.MaxAttempts {
			break
		}
		r.retries.Add(1)
		time.Sleep(r.policy.backoff(r.rng, attempt, hint))
	}
	return 0, fmt.Errorf("client: budget of %d attempts exhausted: %w", r.policy.MaxAttempts, lastErr)
}

// opResult runs one mutation under the retry budget, assigning its op
// sequence number once — before the first attempt — and reusing it
// verbatim on every re-issue, across retries and redials alike.
func (r *Reconnecting) opResult(do func(c *Client, seq uint64) (OpResult, error)) (OpResult, error) {
	r.mu.Lock()
	r.opSeq++
	seq := r.opSeq
	r.mu.Unlock()
	var res OpResult
	_, err := r.op(func(c *Client) (int64, error) {
		var ierr error
		res, ierr = do(c, seq)
		return res.Value, ierr
	})
	if err != nil {
		return OpResult{}, err
	}
	if res.WasDuplicate {
		r.dupeAcks.Add(1)
	}
	return res, nil
}

// Ping round-trips a no-op, retrying through transport loss.
func (r *Reconnecting) Ping() error {
	_, err := r.op(func(c *Client) (int64, error) { return 0, c.Ping() })
	return err
}

// Get reads shard's value, retrying through transport loss (reads are
// idempotent).
func (r *Reconnecting) Get(shard uint32) (int64, error) {
	return r.op(func(c *Client) (int64, error) { return c.Get(shard) })
}

// Add adds delta to shard and returns the resulting value. Safe to
// retry across transport failure: the op ID assigned up front makes a
// re-issued copy a recognized duplicate, not a second application.
func (r *Reconnecting) Add(shard uint32, delta int64) (int64, error) {
	res, err := r.AddOp(shard, delta)
	return res.Value, err
}

// AddOp is Add surfacing the full OpResult — WasDuplicate reports that
// the ack came from the server's dedup window (i.e. a retry landed
// after the original had been applied).
func (r *Reconnecting) AddOp(shard uint32, delta int64) (OpResult, error) {
	return r.opResult(func(c *Client, seq uint64) (OpResult, error) {
		return c.AddOp(shard, delta, seq)
	})
}

// Set overwrites shard with v, with Add's retry discipline.
func (r *Reconnecting) Set(shard uint32, v int64) error {
	_, err := r.SetOp(shard, v)
	return err
}

// SetOp is Set surfacing the full OpResult (see AddOp).
func (r *Reconnecting) SetOp(shard uint32, v int64) (OpResult, error) {
	return r.opResult(func(c *Client, seq uint64) (OpResult, error) {
		return c.SetOp(shard, v, seq)
	})
}

// Stats fetches the server's metrics snapshot (idempotent).
func (r *Reconnecting) Stats() (wire.Stats, error) {
	var st wire.Stats
	_, err := r.op(func(c *Client) (int64, error) {
		var err error
		st, err = c.Stats()
		return 0, err
	})
	return st, err
}

// Pipeline returns a pipelined view of the session: enqueued
// operations accumulate and go to the server as one burst (pipeline
// frames), each with the same per-op retry state a
// serialized operation gets — a mutation's op ID is assigned at
// enqueue and re-issued verbatim across retries and redials, so a
// burst that dies mid-flight heals exactly-once. depth is the
// auto-flush threshold: enqueueing the depth'th unflushed operation
// flushes the burst (≤ 0 means flush only on explicit Flush/Wait).
//
// A Pipeline is NOT safe for concurrent use — it models the paper's
// sequential process issuing operations ahead of their responses.
// Concurrent goroutines should each own a Pipeline; the underlying
// Reconnecting wrapper stays safe to share.
func (r *Reconnecting) Pipeline(depth int) *Pipeline {
	return &Pipeline{r: r, depth: depth}
}

// Pipeline batches operations over a Reconnecting session. See
// Reconnecting.Pipeline.
type Pipeline struct {
	r      *Reconnecting
	depth  int
	queued []*PipelineOp
}

// PipelineOp is one logical operation enqueued on a Pipeline: its wire
// shape (op ID included, fixed at enqueue) and, once its burst has
// been flushed, its outcome.
type PipelineOp struct {
	p     *Pipeline
	kind  wire.Kind
	shard uint32
	arg   int64
	seq   uint64

	done bool
	res  OpResult
	err  error
}

// Wait resolves the operation, flushing its pipeline first if needed.
func (op *PipelineOp) Wait() (OpResult, error) {
	if !op.done {
		op.p.Flush()
	}
	return op.res, op.err
}

func (p *Pipeline) enqueue(kind wire.Kind, shard uint32, arg int64, mutation bool) *PipelineOp {
	op := &PipelineOp{p: p, kind: kind, shard: shard, arg: arg}
	if mutation {
		p.r.mu.Lock()
		p.r.opSeq++
		op.seq = p.r.opSeq
		p.r.mu.Unlock()
	}
	p.queued = append(p.queued, op)
	if p.depth > 0 && len(p.queued) >= p.depth {
		// Auto-flush errors are not lost: they resolve onto the flushed
		// ops themselves, surfaced by each op's Wait.
		p.Flush()
	}
	return op
}

// Get enqueues a linearized read of shard.
func (p *Pipeline) Get(shard uint32) *PipelineOp {
	return p.enqueue(wire.KindGet, shard, 0, false)
}

// Add enqueues an exactly-once add of delta to shard.
func (p *Pipeline) Add(shard uint32, delta int64) *PipelineOp {
	return p.enqueue(wire.KindAdd, shard, delta, true)
}

// Set enqueues an exactly-once overwrite of shard with v.
func (p *Pipeline) Set(shard uint32, v int64) *PipelineOp {
	return p.enqueue(wire.KindSet, shard, v, true)
}

// Flush sends every enqueued operation and blocks until each has an
// outcome — a result, a typed terminal refusal, or a retry budget
// exhausted. The returned error is the first failed operation's (nil
// when all succeeded); per-op outcomes are on the ops themselves.
func (p *Pipeline) Flush() error {
	ops := p.queued
	p.queued = nil
	if len(ops) == 0 {
		return nil
	}
	p.r.flushOps(ops)
	for _, op := range ops {
		if op.err != nil {
			return op.err
		}
	}
	return nil
}

// flushOps runs one burst of operations under the retry budget. Each
// attempt re-issues only the still-unresolved ops (same op IDs, so the
// server's dedup window absorbs ambiguity), classifies each outcome
// with the same rules as the serialized path, and every op is
// guaranteed resolved — res or err — on return.
func (r *Reconnecting) flushOps(ops []*PipelineOp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lastErr error
	hops := 0
	for attempt := 1; attempt <= r.policy.MaxAttempts; attempt++ {
		if err := r.connectLocked(attempt); err != nil {
			failUnresolved(ops, err)
			return
		}
		// Issue every unresolved op, then flush the burst as one write.
		pend := make([]*Pending, len(ops))
		for i, op := range ops {
			if op.done {
				continue
			}
			pnd, err := r.c.Go(op.kind, op.shard, op.arg, op.seq)
			if err != nil {
				break // poisoned mid-issue; unissued ops retry next attempt
			}
			pend[i] = pnd
		}
		r.c.Flush() // a failure poisons the pendings; Wait surfaces it
		var hint time.Duration
		var rotate string
		drop, unresolved := false, 0
		for i, op := range ops {
			if op.done {
				continue
			}
			if pend[i] == nil {
				unresolved++
				drop = true
				continue
			}
			res, err := pend[i].Result()
			if err == nil {
				op.res, op.done = res, true
				if res.WasDuplicate {
					r.dupeAcks.Add(1)
				}
				continue
			}
			lastErr = err
			var we *wire.Error
			switch {
			case errors.As(err, &we):
				switch we.Status {
				case wire.StatusBusy:
					// Op-level shed: the session survives; honor the hint
					// as a backoff floor and keep the connection.
					if h := time.Duration(we.RetryAfterMillis) * time.Millisecond; h > hint {
						hint = h
					}
					unresolved++
				case wire.StatusTimeout:
					unresolved++ // withdrew before applying; safe to re-issue
				case wire.StatusDraining:
					unresolved++
					drop = true // the server hangs up after a draining answer
				case wire.StatusNotPrimary:
					// Cluster redirect: refused before touching the object;
					// re-issue the burst at the hinted primary. A self-hint
					// (the refuser's ring collapsed to itself) counts as
					// hintless; hintless while off-home rotates home. The
					// Retry-After floor keeps a mid-partition burst from
					// spinning against nodes that cannot serve it yet.
					unresolved++
					r.redirects.Add(1)
					if h := time.Duration(we.RetryAfterMillis) * time.Millisecond; h > hint {
						hint = h
					}
					target := we.Msg
					if target == r.addr {
						target = ""
					}
					if target == "" && r.addr != r.home {
						target = r.home
					}
					if target != "" {
						rotate = target
					}
				case wire.StatusInternal:
					// Retryable only inside this wrapper (see isInternal):
					// every op in the burst carries its op ID, so re-issue
					// is exactly-once. Typically a quorum wait that failed
					// on a deposed primary; the budget rides it out.
					unresolved++
				default:
					op.err, op.done = err, true // typed refusal: terminal
				}
			default:
				// Transport failure mid-burst: which ops landed is
				// unknowable, but every one carries its op ID — re-issue
				// and let the dedup window sort it out.
				unresolved++
				drop = true
			}
		}
		if drop {
			r.dropLocked()
		}
		if unresolved == 0 {
			return
		}
		if rotate != "" {
			// Rotating to the redirect hint is routing, not failure:
			// within the hop cap, and with no Retry-After floor pending,
			// no budget is burned and no backoff slept; past the cap (or
			// under a floor) the rotation still happens but pays the
			// budget (the cap prices mid-failover ownership disputes
			// without pinning the burst to a stale address).
			r.addr = rotate
			r.dropLocked()
			hops++
			if hops <= maxRedirects && hint == 0 {
				attempt--
				continue
			}
		}
		if attempt == r.policy.MaxAttempts {
			break
		}
		r.retries.Add(1)
		time.Sleep(r.policy.backoff(r.rng, attempt, hint))
	}
	failUnresolved(ops, fmt.Errorf("client: budget of %d attempts exhausted: %w", r.policy.MaxAttempts, lastErr))
}

// failUnresolved resolves every still-open op with err.
func failUnresolved(ops []*PipelineOp, err error) {
	for _, op := range ops {
		if !op.done {
			op.err, op.done = err, true
		}
	}
}

// Session reports the stable op-ID session identity every connection
// of this wrapper speaks under.
func (r *Reconnecting) Session() uint64 { return r.session }

// Reconnects reports how many dials have succeeded (1 = the original
// admission, each later one a healed drop).
func (r *Reconnecting) Reconnects() int64 { return r.reconnects.Load() }

// Retries reports how many backoff sleeps the budget has paid for.
func (r *Reconnecting) Retries() int64 { return r.retries.Load() }

// DupeAcks reports how many mutations were acknowledged from the
// server's dedup window — each one a retry whose first copy had been
// applied with its response lost.
func (r *Reconnecting) DupeAcks() int64 { return r.dupeAcks.Load() }

// Redirects reports how many NotPrimary answers this wrapper has
// followed (or, hint-less, backed off on).
func (r *Reconnecting) Redirects() int64 { return r.redirects.Load() }

// Addr reports the address the wrapper currently dials — the original
// one until a cluster redirect rotates it to a shard's primary.
func (r *Reconnecting) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addr
}

// Close ends the session.
func (r *Reconnecting) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.c == nil {
		return nil
	}
	err := r.c.Close()
	r.c = nil
	return err
}
