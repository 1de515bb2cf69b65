package client

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"kexclusion/internal/wire"
)

// The outcome table. Every attempt of every operation ends in exactly
// one of these rows; refusedLocked, failConnLocked and connectLocked
// between them are the table's only implementation.
//
//	outcome                      applied?         action                          who may re-issue
//	---------------------------  ---------------  ------------------------------  ----------------
//	StatusOK                     yes, once        resolve (FlagDuplicate: it was  —
//	                                              an earlier attempt that landed)
//	BusyError (admission)        never            back off ≥ Retry-After, redial  any operation
//	StatusBusy (op shed)         never            back off ≥ Retry-After, same    any operation
//	                                              connection
//	StatusTimeout (withdrew      never            back off, same connection       any operation
//	from the entry section)
//	StatusDraining               never            back off, redial (the server    any operation
//	                                              hangs up after answering)
//	StatusNotPrimary + hint      never            rotate to the hint and redial;  any operation
//	                                              free within maxRedirects hops
//	StatusNotPrimary, hintless   never            off home: rotate home; at       any operation
//	or hinting the refuser                        home: back off ≥ Retry-After,
//	                                              same connection
//	StatusInternal               may have been    back off, same connection       reads, pings, and
//	                                                                              mutations with an
//	                                                                              op ID
//	transport failure, missed    may have been    redial (fall back home if the   reads, pings, and
//	deadline, protocol                            rotated-to address is dead),    mutations with an
//	violation                                     back off                        op ID
//	any other status (bad        no — a verdict   terminal for that operation     nobody
//	shard, bad request,                           alone; StatusAtomicAbort
//	atomic abort...)                              leaves the op IDs unspent
//
// "Re-issue" always means the request verbatim: same session × seq, so
// the server's dedup window turns an attempt that did land into the
// original result. A mutation whose session or seq is zero has opted
// out of that window, which is why the two "may have been applied"
// rows are terminal for it (ErrBroken, or the StatusInternal answer).
// Every re-issue costs one attempt of the operation's budget, a free
// redirect hop excepted; an operation whose budget is spent fails with
// the last outcome. An atomic group is ONE operation in every row: one
// budget, re-issued whole or failed whole. With a budget of one attempt
// nothing is re-issued: each row's error reaches the caller as is.

// maxRedirects caps how many NotPrimary hops one operation will chase
// for free: enough for any real failover chain, small enough that two
// nodes disputing ownership mid-failover cannot bounce a client
// between them without cost forever. Past the cap a redirect still
// rotates — the hint is the freshest routing available — but pays the
// ordinary backoff budget, so the dispute terminates with the budget.
const maxRedirects = 8

// RetryPolicy shapes a client's retry budget and backoff: at most
// MaxAttempts tries per operation, sleeping between them exponentially
// from BaseDelay to MaxDelay with full jitter. The zero value gets
// sensible defaults; Seed makes the jitter sequence reproducible for
// tests and chaos harnesses.
type RetryPolicy struct {
	// MaxAttempts is the retry budget: total tries per operation
	// (first attempt included), failed dials counting as tries of the
	// operation that needed the connection. Default 4. One means no
	// retry at all — what Dial and DialTimeout give.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff. Default 10ms.
	BaseDelay time.Duration
	// MaxDelay caps it. Default 2s.
	MaxDelay time.Duration
	// Seed fixes the jitter stream; 0 picks a fixed default seed (the
	// backoff is deterministic either way — pass different seeds to
	// decorrelate clients). The seed shapes ONLY the jitter, never the
	// client's session identity: two clients sharing a seed must not
	// share an op-ID namespace, or the server's dedup window would
	// cross their operations.
	Seed int64
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
	d := p.BaseDelay << (max(attempt, 1) - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
	if hint > d {
		d = hint
	}
	return d
}

// verdict is what the refusals and losses since the last issue ask for
// before the next: the backoff owed (tries: zero for none — a free
// redirect hop — else the attempt count of the most-tried operation
// queued again), the largest Retry-After as its floor, the address to
// rotate to, whether the server is about to hang up. The operations
// queued for re-issue owe it, not whichever Wait read the refusal, so it
// stands until payLocked settles it ahead of the next issue.
type verdict struct {
	tries  int
	hint   time.Duration
	rotate string
	drop   bool
}

// payLocked settles the verdict before anything is re-issued: drop the
// connection a draining server is about to hang up or a redirect
// rotated away from — reading first the answers still owed on it — and
// sleep the backoff owed. It reports ErrClosed if Close woke it.
func (c *Client) payLocked() error {
	if c.verdict == (verdict{}) {
		return nil
	}
	if c.verdict.rotate != "" || c.verdict.drop {
		for c.sent > 0 {
			c.readFrameLocked()
		}
		c.dropLocked()
	}
	v := c.verdict
	c.verdict = verdict{}
	if v.rotate != "" {
		c.addr = v.rotate
	}
	if v.tries == 0 {
		return nil
	}
	c.retries.Add(1)
	if !c.sleepLocked(c.policy.backoff(c.rng, v.tries, v.hint)) {
		return ErrClosed
	}
	return nil
}

// reissuable reports whether the operation u may be sent again after an
// attempt that may have been applied: idempotent kinds always, a
// mutation only under an op ID the server's dedup window can recognize
// — and an atomic group only if that holds for every member.
func reissuable(u []*Pending) bool {
	for _, p := range u {
		r := &p.req
		if !(r.Kind.IsRead() || r.Kind == wire.KindPing || r.Kind == wire.KindStats ||
			(r.Session != 0 && r.Seq != 0)) {
			return false
		}
	}
	return true
}

// spent wraps the outcome that exhausted a budget. A budget of one was
// never a retry: the outcome speaks for itself.
func (c *Client) spent(err error) error {
	if c.policy.MaxAttempts == 1 {
		return err
	}
	return fmt.Errorf("client: budget of %d attempts exhausted: %w", c.policy.MaxAttempts, err)
}

// retryLocked queues the operation u for another attempt after one that
// ended in err, adding what that outcome asks for (v) to the verdict —
// or fails it whole when its budget is spent. free marks a redirect
// hop, which costs nothing as long as there is a budget to retry under.
func (c *Client) retryLocked(u []*Pending, err error, v verdict, free bool) {
	head := u[0]
	if !free || c.policy.MaxAttempts == 1 {
		head.tries++
	}
	if head.tries >= c.policy.MaxAttempts {
		fail(u, c.spent(err))
		return
	}
	c.pending = append(c.pending, u...)
	if !free {
		v.tries = head.tries
	}
	w := c.verdict
	c.verdict = verdict{max(w.tries, v.tries), max(w.hint, v.hint), cmp.Or(v.rotate, w.rotate), w.drop || v.drop}
}

// refusedLocked classifies the non-OK answer we to the operation u,
// which has just left the wire: the one place the retry statuses are
// switched on.
func (c *Client) refusedLocked(u []*Pending, we *wire.Error) {
	v := verdict{hint: time.Duration(we.RetryAfterMillis) * time.Millisecond}
	free, terminal := false, false
	switch we.Status {
	case wire.StatusBusy:
		// Op-level shed: the session survives — the server answered and
		// keeps serving — so keep the connection and honor the hint as a
		// backoff floor.
	case wire.StatusTimeout:
		// Withdrew before applying; safe to re-issue.
	case wire.StatusDraining:
		v.drop = true // the server hangs up after a draining answer
	case wire.StatusNotPrimary:
		// A cluster redirect: the shard lives on the hinted primary. The
		// op was refused before touching the object, so rotating there
		// and re-issuing is routing, not failure. A hint pointing back at
		// the refusing node (its ring collapsed to itself mid-partition)
		// is no hint at all; a hintless refusal while rotated off the
		// configured address falls back home, where routing may be
		// fresher. Either way the server's Retry-After (one lease
		// interval — the earliest a successor can exist) floors the
		// backoff, so the rotation cannot spin faster than ownership can
		// actually move, and past the hop cap it pays the budget.
		c.redirects.Add(1)
		v.rotate = we.Msg
		if v.rotate == c.addr {
			v.rotate = ""
		}
		if v.rotate == "" && c.addr != c.home {
			v.rotate = c.home
		}
		if v.rotate != "" {
			u[0].hops++
			free = u[0].hops <= maxRedirects && v.hint == 0
		}
	case wire.StatusInternal:
		// Internal does not promise the op was never applied (an
		// under-replicated write IS applied locally), so only an op the
		// dedup window can recognize is re-issued. The session survives —
		// the server answered — so keep the connection and pay the
		// ordinary budget. The payoff is the deposed-primary storm: a
		// partitioned primary answers internal (quorum wait failed) for
		// up to a lease interval before it self-demotes to NotPrimary
		// redirects — clients that ride it out land on the successor.
		terminal = !reissuable(u)
	default:
		terminal = true // a typed refusal is a verdict, not weather
	}
	if terminal {
		fail(u, we)
		return
	}
	c.retryLocked(u, we, v, free)
}

// failConnLocked handles a stream that is no longer trustworthy: a
// write, read or deadline failed mid-exchange, or the server broke the
// protocol. There is no telling which of the operations on the wire the
// server applied, so each either goes back in the queue — its op ID
// makes the ambiguous re-issue exactly-once — or, when it may not be
// re-issued, fails with ErrBroken (wrapping the cause). A client with a
// budget of one attempt may not redial either: the connection is
// poisoned and every unresolved operation fails.
func (c *Client) failConnLocked(cause error) {
	err := fmt.Errorf("%w (cause: %v)", ErrBroken, cause)
	c.dropLocked()
	unresolved, sent := c.pending, c.sent
	c.pending, c.sent = make([]*Pending, 0, len(unresolved)), 0
	if c.policy.MaxAttempts == 1 {
		c.broken = err
	}
	for i := 0; i < len(unresolved); {
		u := unitAt(unresolved, i)
		switch {
		case c.broken != nil, i < sent && !reissuable(u):
			fail(u, err)
		case i < sent:
			c.retryLocked(u, err, verdict{}, false)
		default:
			c.pending = append(c.pending, u...) // never written: still queued
		}
		i += len(u)
	}
}

// connectLocked ensures a live connection to issue on, the verdict paid
// first: the dial loop. A failed dial costs *tries one attempt, like any
// other lost attempt of the operation that needs the connection.
func (c *Client) connectLocked(tries *int) error {
	if err := c.payLocked(); err != nil {
		return err
	}
	for c.conn == nil {
		if c.broken != nil {
			return c.broken
		}
		if c.ctx.Err() != nil {
			return ErrClosed
		}
		err := c.dialLocked()
		if err == nil {
			break
		}
		var be *BusyError
		var we *wire.Error
		hint := time.Duration(0)
		if errors.As(err, &be) {
			hint = be.RetryAfter
		} else if errors.As(err, &we) {
			// A connection-level failure (refused, reset, unreachable)
			// gets the budget — riding out partitions is the point — but
			// a typed non-busy rejection is a verdict, not weather.
			return err
		}
		if c.addr != c.home {
			// The address a redirect rotated to has stopped answering —
			// a killed primary, typically. The hint is stale routing, not
			// weather: fall back to the configured address, whose answer
			// (apply, or a fresh redirect to the failover successor) is
			// current.
			c.addr = c.home
		}
		*tries++
		if *tries >= c.policy.MaxAttempts {
			return c.spent(err)
		}
		c.retries.Add(1)
		if !c.sleepLocked(c.policy.backoff(c.rng, *tries, hint)) {
			return ErrClosed
		}
	}
	return nil
}

// sleepLocked parks the operation for d, holding mu (a client is one
// sequential thread of operations; nothing else may run meanwhile). It
// reports false if Close woke it.
func (c *Client) sleepLocked(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.ctx.Done():
		return false
	}
}

// Reconnects reports how many dials have succeeded (1 = the original
// admission, each later one a healed drop or a followed redirect).
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// Retries reports how many backoff sleeps the budget has paid for.
func (c *Client) Retries() int64 { return c.retries.Load() }

// DupeAcks reports how many mutations were acknowledged from the
// server's dedup window — each one a re-issue whose first copy had been
// applied with its response lost.
func (c *Client) DupeAcks() int64 { return c.dupeAcks.Load() }

// Redirects reports how many NotPrimary answers this client has
// followed (or, hint-less, backed off on).
func (c *Client) Redirects() int64 { return c.redirects.Load() }

// Addr reports the address the client currently dials — the configured
// one until a cluster redirect rotates it to a shard's primary.
func (c *Client) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}
