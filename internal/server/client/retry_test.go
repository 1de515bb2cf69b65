package client

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kexclusion/internal/wire"
)

// dialRetry is DialRetry with the op timeout every scripted test wants
// as its net against a hung exchange.
func dialRetry(addr string, policy RetryPolicy, opTimeout time.Duration) (*Client, error) {
	c, err := DialRetry(addr, policy)
	if err == nil {
		c.SetOpTimeout(opTimeout)
	}
	return c, err
}

// scriptedEndpoint accepts one connection per script entry, running the
// entries in accept order. It returns the address and a counter of
// requests seen across all connections.
func scriptedEndpoint(t *testing.T, scripts ...func(net.Conn, *atomic.Int64)) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	reqs := &atomic.Int64{}
	go func() {
		for _, script := range scripts {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			script(conn, reqs)
			conn.Close()
		}
	}()
	return ln.Addr().String(), reqs
}

// serveOK admits the peer and answers n requests with echo semantics
// (Value = Arg), then returns (closing the conn).
func serveOK(n int) func(net.Conn, *atomic.Int64) {
	return func(conn net.Conn, reqs *atomic.Int64) {
		ops := admit(conn)
		for i := 0; i < n; i++ {
			req, err := ops.read()
			if err != nil {
				return
			}
			reqs.Add(1)
			ops.answer(wire.Response{ID: req.ID, Status: wire.StatusOK, Value: req.Arg})
		}
	}
}

// serveBusy rejects admission with a Retry-After hint.
func serveBusy(hintMillis uint32) func(net.Conn, *atomic.Int64) {
	return func(conn net.Conn, _ *atomic.Int64) {
		wire.WriteHello(conn, wire.Hello{Status: wire.StatusBusy, RetryAfterMillis: hintMillis, Msg: "all leased"})
	}
}

// serveDropAfterRequest admits, reads one request, and closes without
// answering — the ambiguous transport failure.
func serveDropAfterRequest(conn net.Conn, reqs *atomic.Int64) {
	ops := admit(conn)
	if _, err := ops.read(); err == nil {
		reqs.Add(1)
	}
}

func TestSetOpTimeoutPoisonsConnection(t *testing.T) {
	addr := fakeEndpoint(t, func(conn net.Conn) {
		admit(conn)
		time.Sleep(5 * time.Second) // never answer
	})
	c, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetOpTimeout(100 * time.Millisecond)

	start := time.Now()
	if err := c.Ping(); err == nil {
		t.Fatal("ping against a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("op deadline not honored: took %v", elapsed)
	}
	// The stream may hold a late response now: the client must refuse
	// further use rather than desynchronize.
	if err := c.Ping(); !errors.Is(err, ErrBroken) {
		t.Fatalf("second op after missed deadline: got %v, want ErrBroken", err)
	}
}

// serveStatusThenOK admits, answers the first request with status, and
// every later one with echo semantics.
func serveStatusThenOK(status wire.Status) func(net.Conn, *atomic.Int64) {
	return func(conn net.Conn, reqs *atomic.Int64) {
		ops := admit(conn)
		for i := 0; ; i++ {
			req, err := ops.read()
			if err != nil {
				return
			}
			reqs.Add(1)
			if i == 0 {
				ops.answer(wire.Response{ID: req.ID, Status: status})
				continue
			}
			ops.answer(wire.Response{ID: req.ID, Status: wire.StatusOK, Value: req.Arg})
		}
	}
}

// TestOutcomeTable walks the status rows of the outcome table in
// retry.go with the three kinds of operation it distinguishes: a
// never-applied refusal is re-issued for anyone, a may-have-been-applied
// answer only for an operation the dedup window can recognize (or an
// idempotent one), and a typed refusal for nobody.
func TestOutcomeTable(t *testing.T) {
	const (
		withID   = 1 << iota // a mutation under an op ID
		idLess               // a mutation with Seq == 0
		read                 // an idempotent read
		nobody   = 0
		everyone = withID | idLess | read
	)
	ops := []struct {
		who int
		do  func(c *Client) error
	}{
		{withID, func(c *Client) error { _, err := c.Add(0, 3); return err }},
		{idLess, func(c *Client) error { _, err := c.AddOp(0, 3, 0); return err }},
		{read, func(c *Client) error { _, err := c.Get(0); return err }},
	}
	for _, row := range []struct {
		status  wire.Status
		reissue int
	}{
		{wire.StatusBusy, everyone},
		{wire.StatusTimeout, everyone},
		{wire.StatusDraining, everyone},
		{wire.StatusNotPrimary, everyone},
		{wire.StatusInternal, withID | read},
		{wire.StatusBadShard, nobody},
		{wire.StatusBadRequest, nobody},
		{wire.StatusAtomicAbort, nobody},
	} {
		for _, op := range ops {
			// A second script entry serves the redial a draining answer costs.
			addr, reqs := scriptedEndpoint(t, serveStatusThenOK(row.status), serveOK(1))
			c, err := dialRetry(addr, RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			err = op.do(c)
			c.Close()
			if row.reissue&op.who != 0 {
				if err != nil || reqs.Load() != 2 {
					t.Errorf("%v: op %d: err %v after %d requests, want a re-issue that succeeds", row.status, op.who, err, reqs.Load())
				}
				continue
			}
			var we *wire.Error
			if !errors.As(err, &we) || we.Status != row.status || reqs.Load() != 1 {
				t.Errorf("%v: op %d: err %v after %d requests, want the refusal itself after one", row.status, op.who, err, reqs.Load())
			}
		}
	}
}

func TestBackoffGrowsAndHonorsHint(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}.withDefaults()
	rng := rand.New(rand.NewSource(7))
	prevMax := time.Duration(0)
	for attempt := 1; attempt <= 5; attempt++ {
		d := p.backoff(rng, attempt, 0)
		ceil := p.BaseDelay << (attempt - 1)
		if ceil > p.MaxDelay {
			ceil = p.MaxDelay
		}
		if d < ceil/2 || d > ceil {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d, ceil/2, ceil)
		}
		if ceil > prevMax {
			prevMax = ceil
		}
	}
	// A server hint floors the delay.
	if d := p.backoff(rng, 1, 500*time.Millisecond); d != 500*time.Millisecond {
		t.Errorf("hint not honored: %v", d)
	}
	// A hint BELOW the computed backoff is a floor, not a replacement:
	// an eager server hint must never shrink the client's own backoff,
	// or a shedding server would teach its clients to hammer it faster.
	for attempt := 1; attempt <= 5; attempt++ {
		ceil := p.BaseDelay << (attempt - 1)
		if ceil > p.MaxDelay {
			ceil = p.MaxDelay
		}
		if d := p.backoff(rng, attempt, time.Microsecond); d < ceil/2 {
			t.Errorf("attempt %d: a %v hint shrank the backoff to %v (floor is %v)", attempt, time.Microsecond, d, ceil/2)
		}
	}
	// Same seed, same sequence: the jitter is deterministic.
	a := p.backoff(rand.New(rand.NewSource(42)), 3, 0)
	b := p.backoff(rand.New(rand.NewSource(42)), 3, 0)
	if a != b {
		t.Errorf("seeded backoff not deterministic: %v vs %v", a, b)
	}
}

func TestRetryHealsDroppedConnection(t *testing.T) {
	addr, reqs := scriptedEndpoint(t,
		serveOK(1),   // first conn: one ping, then the server drops it
		serveOK(100), // second conn: healthy
	)
	r, err := dialRetry(addr, RetryPolicy{Seed: 3, BaseDelay: time.Millisecond}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Ping(); err != nil {
		t.Fatal(err)
	}
	// The endpoint has closed conn 1; the next idempotent op must ride
	// through the failure onto conn 2.
	if v, err := r.Get(0); err != nil || v != 0 {
		t.Fatalf("Get across a drop = %d, %v", v, err)
	}
	if r.Reconnects() != 2 {
		t.Fatalf("Reconnects = %d, want 2", r.Reconnects())
	}
	if reqs.Load() < 2 {
		t.Fatalf("server saw %d requests, want >= 2", reqs.Load())
	}
}

func TestRetryRidesOutBusyWithHint(t *testing.T) {
	const hintMillis = 60
	addr, _ := scriptedEndpoint(t,
		serveBusy(hintMillis),
		serveOK(10),
	)
	start := time.Now()
	r, err := dialRetry(addr, RetryPolicy{Seed: 5, BaseDelay: time.Millisecond}, 2*time.Second)
	if err != nil {
		t.Fatalf("busy endpoint never admitted: %v", err)
	}
	defer r.Close()
	if elapsed := time.Since(start); elapsed < hintMillis*time.Millisecond {
		t.Fatalf("redialed after %v, before the server's %dms hint", elapsed, hintMillis)
	}
	if err := r.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryRetriesShedOpOnSameConnection: an op-level StatusBusy
// (the server's in-flight ceiling shed the operation) is retried over
// the SAME connection — the session survived; only the operation was
// refused — and the Retry-After hint carried in the response floors the
// backoff before the re-issue.
func TestRetryRetriesShedOpOnSameConnection(t *testing.T) {
	const hintMillis = 60
	addr, reqs := scriptedEndpoint(t,
		func(conn net.Conn, reqs *atomic.Int64) {
			ops := admit(conn)
			// First op: shed with a hint in Value. Second op: applied.
			for i := 0; ; i++ {
				req, err := ops.read()
				if err != nil {
					return
				}
				reqs.Add(1)
				if i == 0 {
					ops.answer(wire.Response{
						ID: req.ID, Status: wire.StatusBusy, Value: hintMillis,
						Data: []byte("server shedding load"),
					})
					continue
				}
				ops.answer(wire.Response{ID: req.ID, Status: wire.StatusOK, Value: req.Arg})
			}
		},
	)
	r, err := dialRetry(addr, RetryPolicy{Seed: 13, BaseDelay: time.Millisecond}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	start := time.Now()
	if v, err := r.Add(0, 5); err != nil || v != 5 {
		t.Fatalf("Add through a shed = %d, %v", v, err)
	}
	if elapsed := time.Since(start); elapsed < hintMillis*time.Millisecond {
		t.Fatalf("re-issued after %v, before the server's %dms hint", elapsed, hintMillis)
	}
	if r.Reconnects() != 1 {
		t.Fatalf("Reconnects = %d, want 1 (a shed op must not cost the connection)", r.Reconnects())
	}
	if got := reqs.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (shed + re-issue)", got)
	}
}

func TestRetryRetriesWritesWithStableOpID(t *testing.T) {
	// Conn 1 swallows the Add (admits, reads the request, hangs up
	// without answering); conn 2 must then see the SAME mutation —
	// same nonzero session, same nonzero seq — re-issued, which is what
	// lets the server deduplicate instead of double-applying.
	seen := make(chan wire.Request, 2)
	capture := func(req wire.Request) {
		select {
		case seen <- req:
		default:
		}
	}
	addr, reqs := scriptedEndpoint(t,
		func(conn net.Conn, reqs *atomic.Int64) {
			ops := admit(conn)
			if req, err := ops.read(); err == nil {
				reqs.Add(1)
				capture(req)
			}
		},
		func(conn net.Conn, reqs *atomic.Int64) {
			ops := admit(conn)
			for {
				req, err := ops.read()
				if err != nil {
					return
				}
				reqs.Add(1)
				capture(req)
				ops.answer(wire.Response{
					ID: req.ID, Status: wire.StatusOK, Flags: wire.FlagDuplicate, Value: 7,
				})
			}
		},
	)
	r, err := dialRetry(addr, RetryPolicy{Seed: 9, BaseDelay: time.Millisecond}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.AddOp(0, 7, r.NextSeq())
	if err != nil {
		t.Fatalf("Add across a dropped exchange failed: %v", err)
	}
	if res.Value != 7 || !res.WasDuplicate {
		t.Fatalf("OpResult = %+v, want Value 7 with WasDuplicate", res)
	}
	if r.DupeAcks() != 1 {
		t.Fatalf("DupeAcks = %d, want 1", r.DupeAcks())
	}
	if got := reqs.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (original + re-issue)", got)
	}
	first, second := <-seen, <-seen
	if first.Session == 0 || first.Seq == 0 {
		t.Fatalf("mutation carried no op ID: session %#x seq %d", first.Session, first.Seq)
	}
	if first.Session != r.Session() {
		t.Fatalf("request session %#x != client session %#x", first.Session, r.Session())
	}
	if second.Session != first.Session || second.Seq != first.Seq {
		t.Fatalf("re-issue changed the op ID: %#x/%d then %#x/%d",
			first.Session, first.Seq, second.Session, second.Seq)
	}
	if second.Kind != wire.KindAdd || second.Arg != 7 {
		t.Fatalf("re-issue mutated the request: %+v", second)
	}
}

// TestRetrySessionsUniquePerClient guards against the lost-
// update trap: session identity must never be derived from the jitter
// seed, because the seed is defaultable and shareable — two clients
// with the same (or default) seed sharing a session would collide in
// the server's dedup window, each answering the other's mutations.
func TestRetrySessionsUniquePerClient(t *testing.T) {
	addr, _ := scriptedEndpoint(t, serveOK(1), serveOK(1), serveOK(1))
	a, err := dialRetry(addr, RetryPolicy{Seed: 21}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	b, err := dialRetry(addr, RetryPolicy{Seed: 21}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	c, err := dialRetry(addr, RetryPolicy{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	for _, r := range []*Client{a, b, c} {
		if r.Session() == 0 {
			t.Fatal("session is zero (zero opts out of deduplication)")
		}
	}
	if a.Session() == b.Session() {
		t.Fatalf("two clients with the same seed share session %#x: their op IDs would collide", a.Session())
	}
	if a.Session() == c.Session() || b.Session() == c.Session() {
		t.Fatalf("sessions collided: %#x %#x %#x", a.Session(), b.Session(), c.Session())
	}
}

// TestRetryExplicitSessionHonored covers the deterministic opt-in:
// SetSession pins the identity, and requests carry it.
func TestRetryExplicitSessionHonored(t *testing.T) {
	seen := make(chan wire.Request, 1)
	addr, _ := scriptedEndpoint(t, func(conn net.Conn, _ *atomic.Int64) {
		ops := admit(conn)
		if req, err := ops.read(); err == nil {
			seen <- req
			ops.answer(wire.Response{ID: req.ID, Status: wire.StatusOK})
		}
	})
	r, err := dialRetry(addr, RetryPolicy{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetSession(0xBEEF)
	if r.Session() != 0xBEEF {
		t.Fatalf("Session() = %#x, want explicit %#x", r.Session(), uint64(0xBEEF))
	}
	if _, err := r.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	if req := <-seen; req.Session != 0xBEEF {
		t.Fatalf("request carried session %#x, want %#x", req.Session, uint64(0xBEEF))
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	// Every admission attempt is met with busy and no hint.
	addr, _ := scriptedEndpoint(t,
		serveBusy(0), serveBusy(0), serveBusy(0),
	)
	_, err := dialRetry(addr, RetryPolicy{Seed: 11, MaxAttempts: 3, BaseDelay: time.Millisecond}, time.Second)
	if err == nil {
		t.Fatal("dial against an always-busy server succeeded")
	}
	if !strings.Contains(err.Error(), "budget of 3 attempts") {
		t.Fatalf("budget exhaustion not surfaced: %v", err)
	}
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("exhausted error does not unwrap to the last cause: %v", err)
	}
}

// serveNotPrimary admits the peer and answers n requests with a
// cluster redirect carrying hint as the owning primary's address.
func serveNotPrimary(n int, hint string) func(net.Conn, *atomic.Int64) {
	return func(conn net.Conn, reqs *atomic.Int64) {
		ops := admit(conn)
		for i := 0; i < n; i++ {
			req, err := ops.read()
			if err != nil {
				return
			}
			reqs.Add(1)
			ops.answer(wire.Response{ID: req.ID, Status: wire.StatusNotPrimary, Data: []byte(hint)})
		}
	}
}

func TestRetryFollowsNotPrimaryRedirect(t *testing.T) {
	owner, ownerReqs := scriptedEndpoint(t, serveOK(2))
	wrong, _ := scriptedEndpoint(t, serveNotPrimary(1, owner))

	r, err := dialRetry(wrong, RetryPolicy{Seed: 3, MaxAttempts: 2, BaseDelay: time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The redirected mutation lands on the owner with its original op ID.
	if v, err := r.Add(0, 5); err != nil || v != 5 {
		t.Fatalf("redirected Add = %d, %v", v, err)
	}
	if got := r.Redirects(); got != 1 {
		t.Fatalf("Redirects = %d, want 1", got)
	}
	// A redirect is routing, not failure: no backoff was slept and no
	// retry budget burned (MaxAttempts 2 would leave none to burn).
	if got := r.Retries(); got != 0 {
		t.Fatalf("redirect burned %d retries from the budget", got)
	}
	// The client rotated: later operations dial the owner directly.
	if got := r.Addr(); got != owner {
		t.Fatalf("Addr = %q, want rotated owner %q", got, owner)
	}
	if v, err := r.Add(0, 7); err != nil || v != 7 {
		t.Fatalf("post-rotation Add = %d, %v", v, err)
	}
	if got := ownerReqs.Load(); got != 2 {
		t.Fatalf("owner saw %d requests, want 2", got)
	}
}

func TestRetryNotPrimaryWithoutHintBacksOff(t *testing.T) {
	// A node mid-failover knows it is not the owner but not who is: it
	// answers NotPrimary with no hint. The client keeps the connection
	// (the node still serves) and retries on the ordinary budget.
	addr, reqs := scriptedEndpoint(t, serveNotPrimary(2, ""))
	r, err := dialRetry(addr, RetryPolicy{Seed: 5, MaxAttempts: 2, BaseDelay: time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	_, err = r.Get(0)
	if err == nil || !strings.Contains(err.Error(), "not_primary") {
		t.Fatalf("hint-less redirect storm resolved to %v", err)
	}
	if got := reqs.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want both budget attempts on one connection", got)
	}
	if got := r.Redirects(); got != 2 {
		t.Fatalf("Redirects = %d, want 2", got)
	}
	if got := r.Retries(); got != 1 {
		t.Fatalf("Retries = %d, want 1 backoff between the two attempts", got)
	}
}

func TestPipelineFollowsNotPrimaryRedirect(t *testing.T) {
	owner, _ := scriptedEndpoint(t, serveOK(3))
	wrong, _ := scriptedEndpoint(t, serveNotPrimary(3, owner))

	r, err := dialRetry(wrong, RetryPolicy{Seed: 7, MaxAttempts: 2, BaseDelay: time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	a, _ := r.Go(wire.KindAdd, 0, 1, r.NextSeq())
	b, _ := r.Go(wire.KindAdd, 0, 2, r.NextSeq())
	g, _ := r.Go(wire.KindGet, 0, 0, 0)
	for i, p := range []*Pending{a, b, g} {
		want := []int64{1, 2, 0}[i]
		if resp, err := p.Wait(); err != nil || resp.Value != want {
			t.Fatalf("op %d of the redirected burst = %+v, %v; want value %d", i, resp, err, want)
		}
	}
	if got := r.Retries(); got != 0 {
		t.Fatalf("pipelined redirect burned %d retries from the budget", got)
	}
	if r.Redirects() == 0 {
		t.Fatal("pipelined redirect not counted")
	}
	if got := r.Addr(); got != owner {
		t.Fatalf("Addr = %q, want rotated owner %q", got, owner)
	}
}

// TestRetryRetriesInternalOnSameConnection: StatusInternal is
// re-issued only for an operation whose op ID makes the ambiguous
// re-issue exactly-once (or an idempotent one, see TestOutcomeTable).
// The session survived — the server
// answered — so the retry stays on the same connection and pays the
// ordinary budget. This is the deposed-primary storm: quorum waits
// answer internal for up to a lease interval before the node demotes.
func TestRetryRetriesInternalOnSameConnection(t *testing.T) {
	addr, reqs := scriptedEndpoint(t, func(conn net.Conn, reqs *atomic.Int64) {
		ops := admit(conn)
		req, err := ops.read()
		if err != nil {
			return
		}
		reqs.Add(1)
		ops.answer(wire.Response{ID: req.ID, Status: wire.StatusInternal, Data: []byte("leader lease lost")})
		req, err = ops.read()
		if err != nil {
			return
		}
		reqs.Add(1)
		ops.answer(wire.Response{ID: req.ID, Status: wire.StatusOK, Value: req.Arg})
	})
	r, err := dialRetry(addr, RetryPolicy{Seed: 11, MaxAttempts: 3, BaseDelay: time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if v, err := r.Add(0, 9); err != nil || v != 9 {
		t.Fatalf("Add through an internal answer = %d, %v", v, err)
	}
	if got := reqs.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (same op ID re-issued)", got)
	}
	if got := r.Reconnects(); got != 1 {
		t.Fatalf("Reconnects = %d, want 1: internal must not cost the connection", got)
	}
	if got := r.Retries(); got != 1 {
		t.Fatalf("Retries = %d, want 1: internal pays the ordinary budget", got)
	}
}

// serveNotPrimaryRetryAfter answers n requests with a hint-less
// NotPrimary carrying a Retry-After (the deposed-primary refusal: the
// ring collapsed to the refuser, so there is no redirect target, only
// "try again in a lease interval"), then serves.
func serveNotPrimaryRetryAfter(n int, millis int64) func(net.Conn, *atomic.Int64) {
	return func(conn net.Conn, reqs *atomic.Int64) {
		ops := admit(conn)
		for i := 0; i < n; i++ {
			req, err := ops.read()
			if err != nil {
				return
			}
			reqs.Add(1)
			ops.answer(wire.Response{ID: req.ID, Status: wire.StatusNotPrimary, Value: millis})
		}
		req, err := ops.read()
		if err != nil {
			return
		}
		reqs.Add(1)
		ops.answer(wire.Response{ID: req.ID, Status: wire.StatusOK, Value: req.Arg})
	}
}

// TestRetryNotPrimaryRetryAfterFloorsBackoff: a hint-less
// NotPrimary with a Retry-After must floor the backoff like a busy
// hint does — the hint is "the earliest a successor can exist", and
// spinning faster than that just burns the budget against a node that
// cannot serve yet.
func TestRetryNotPrimaryRetryAfterFloorsBackoff(t *testing.T) {
	const floor = 120 * time.Millisecond
	addr, reqs := scriptedEndpoint(t, serveNotPrimaryRetryAfter(1, floor.Milliseconds()))
	r, err := dialRetry(addr, RetryPolicy{Seed: 13, MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	start := time.Now()
	if v, err := r.Add(0, 4); err != nil || v != 4 {
		t.Fatalf("Add through a Retry-After refusal = %d, %v", v, err)
	}
	if elapsed := time.Since(start); elapsed < floor {
		t.Fatalf("retry came back in %v, under the server's %v Retry-After floor", elapsed, floor)
	}
	if got := reqs.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 on the kept connection", got)
	}
	if got := r.Retries(); got != 1 {
		t.Fatalf("Retries = %d, want 1: a floored refusal pays the budget, it is not a free hop", got)
	}
}

// TestRetryIgnoresSelfHint: a refusal whose redirect hint is the
// very address the client dialed (an isolated node's ring collapses to
// itself) must be treated as hintless — backing off on the same
// connection — never as a rotation, which would redial the same node
// in a tight loop forever.
func TestRetryIgnoresSelfHint(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	self := ln.Addr().String()
	reqs := &atomic.Int64{}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		ops := admit(conn)
		req, err := ops.read()
		if err != nil {
			return
		}
		reqs.Add(1)
		ops.answer(wire.Response{ID: req.ID, Status: wire.StatusNotPrimary, Data: []byte(self)})
		req, err = ops.read()
		if err != nil {
			return
		}
		reqs.Add(1)
		ops.answer(wire.Response{ID: req.ID, Status: wire.StatusOK, Value: req.Arg})
	}()

	r, err := dialRetry(self, RetryPolicy{Seed: 17, MaxAttempts: 3, BaseDelay: time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, err := r.Add(0, 6); err != nil || v != 6 {
		t.Fatalf("Add through a self-hint = %d, %v", v, err)
	}
	if got := reqs.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want both on the one kept connection", got)
	}
	if got := r.Reconnects(); got != 1 {
		t.Fatalf("Reconnects = %d, want 1: a self-hint must not trigger a rotation redial", got)
	}
}

// TestRetryFallsBackToHomeWhenRedirectTargetDies is the failover
// healing path: a redirect rotates the client onto a primary that then
// dies. Redialing the dead address must fall back to the configured
// address — whose answer is current routing — instead of pinning the
// session to the corpse until the budget dies with it.
func TestRetryFallsBackToHomeWhenRedirectTargetDies(t *testing.T) {
	// A listener bound and immediately closed: dials are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	// Home: one connection that redirects to the dead address, then a
	// fresh connection that serves (the failover has resolved by the
	// time the client comes back).
	home, reqs := scriptedEndpoint(t, serveNotPrimary(1, dead), serveOK(1))
	r, err := dialRetry(home, RetryPolicy{Seed: 9, MaxAttempts: 6, BaseDelay: time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if v, err := r.Add(0, 5); err != nil || v != 5 {
		t.Fatalf("Add through a dead redirect = %d, %v", v, err)
	}
	if got := r.Addr(); got != home {
		t.Fatalf("Addr = %q, want fallback to home %q", got, home)
	}
	if got := r.Redirects(); got != 1 {
		t.Fatalf("Redirects = %d, want 1", got)
	}
	// The failed dial of the dead primary paid the ordinary budget.
	if got := r.Retries(); got < 1 {
		t.Fatalf("Retries = %d, want at least the dead-dial backoff", got)
	}
	// Same op ID on both issues: home saw the original and the re-issue.
	if got := reqs.Load(); got != 2 {
		t.Fatalf("home saw %d requests, want 2", got)
	}
}

// TestAtomicGroupReissuedWhole: an atomic group is one operation with
// one budget. However its attempts are lost — the exchange dropped, the
// redial refused at admission, the answer cut off between two members —
// every 0xC2 frame the server sees carries ALL the members, and when the
// budget runs out the group fails whole: no subset of it is ever framed
// as a group of its own, which the server would commit as half a
// transfer the caller was told had failed.
func TestAtomicGroupReissuedWhole(t *testing.T) {
	var mu sync.Mutex
	var seen []int // member count of every atomic frame seen, in order
	take := func() []int {
		mu.Lock()
		defer mu.Unlock()
		frames := seen
		seen = nil
		return frames
	}
	group := func(answer func(*opStream, wire.ReqFrame)) func(net.Conn, *atomic.Int64) {
		return func(conn net.Conn, _ *atomic.Int64) {
			ops := admit(conn)
			f, err := wire.ReadRequestFrame(conn)
			if err != nil || !f.Atomic {
				return
			}
			mu.Lock()
			seen = append(seen, len(f.Reqs))
			mu.Unlock()
			ops.frame = f
			answer(ops, f)
		}
	}
	drop := group(func(*opStream, wire.ReqFrame) {})
	half := group(func(ops *opStream, f wire.ReqFrame) {
		ops.answer(wire.Response{ID: f.Reqs[0].ID, Status: wire.StatusOK, Value: f.Reqs[0].Arg})
	})
	ok := group(func(ops *opStream, f wire.ReqFrame) {
		for _, req := range f.Reqs {
			ops.answer(wire.Response{ID: req.ID, Status: wire.StatusOK, Value: req.Arg})
		}
	})
	transfer := func(r *Client) []AtomicOp {
		return r.AtomicSeqs([]AtomicOp{
			{Kind: wire.KindAdd, Shard: 0, Arg: -5},
			{Kind: wire.KindAdd, Shard: 0, Arg: 5},
		})
	}
	for _, tc := range []struct {
		name    string
		budget  int
		scripts []func(net.Conn, *atomic.Int64)
		frames  int
		healed  bool
	}{
		{"budget spent", 3, []func(net.Conn, *atomic.Int64){drop, serveBusy(0), drop, drop}, 2, false},
		{"healed", 5, []func(net.Conn, *atomic.Int64){drop, serveBusy(0), half, drop, ok}, 4, true},
	} {
		addr, _ := scriptedEndpoint(t, tc.scripts...)
		r, err := dialRetry(addr, RetryPolicy{MaxAttempts: tc.budget, BaseDelay: time.Millisecond}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Atomic(transfer(r))
		r.Close()
		frames := take()
		if tc.healed && (err != nil || len(res) != 2 || res[0].Value != -5 || res[1].Value != 5) {
			t.Fatalf("%s: Atomic = %+v, %v; want both members acknowledged", tc.name, res, err)
		}
		if !tc.healed && (!errors.Is(err, ErrBroken) || !strings.Contains(err.Error(), "budget of 3 attempts")) {
			t.Fatalf("%s: Atomic = %v, want the spent budget's ErrBroken", tc.name, err)
		}
		if len(frames) != tc.frames {
			t.Fatalf("%s: server saw %d atomic frames (%v), want %d", tc.name, len(frames), frames, tc.frames)
		}
		for i, n := range frames {
			if n != 2 {
				t.Fatalf("%s: atomic frame %d carried %d of the 2 members (all frames: %v)", tc.name, i, n, frames)
			}
		}
	}

	// A group with an ID-less member may not be re-issued after a lost
	// exchange — not even the members that do carry an op ID.
	addr, _ := scriptedEndpoint(t, drop, ok)
	r, err := dialRetry(addr, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mixed := transfer(r)
	mixed[1].Seq = 0
	if _, err := r.Atomic(mixed); !errors.Is(err, ErrBroken) {
		t.Fatalf("half-ID-less group across a dropped exchange: got %v, want ErrBroken", err)
	}
	if frames := take(); len(frames) != 1 || frames[0] != 2 {
		t.Fatalf("server saw atomic frames %v, want the one whole group", frames)
	}
}

// TestVerdictOutlivesTheWaitThatSawIt: what a refusal asks for is owed
// by the operation queued again, not by whichever Wait read the refusal.
// Here the caller waits on a later operation of the burst, which
// resolves; the refused one must still pay its Retry-After floor, and
// follow its redirect, before it is re-issued.
func TestVerdictOutlivesTheWaitThatSawIt(t *testing.T) {
	const floor = 80 * time.Millisecond
	var shedAt, reissuedAt atomic.Int64 // UnixNano
	addr, _ := scriptedEndpoint(t, func(conn net.Conn, _ *atomic.Int64) {
		ops := admit(conn)
		a, _ := ops.read()
		ops.answer(wire.Response{ID: a.ID, Status: wire.StatusBusy, Value: int64(floor / time.Millisecond)})
		shedAt.Store(time.Now().UnixNano())
		b, _ := ops.read()
		ops.answer(wire.Response{ID: b.ID, Status: wire.StatusOK, Value: b.Arg})
		if a, err := ops.read(); err == nil {
			reissuedAt.Store(time.Now().UnixNano())
			ops.answer(wire.Response{ID: a.ID, Status: wire.StatusOK, Value: a.Arg})
		}
	})
	r, err := dialRetry(addr, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	a, _ := r.Go(wire.KindAdd, 0, 1, r.NextSeq())
	b, _ := r.Go(wire.KindAdd, 0, 2, r.NextSeq())
	if resp, err := b.Wait(); err != nil || resp.Value != 2 {
		t.Fatalf("b = %+v, %v", resp, err)
	}
	if resp, err := a.Wait(); err != nil || resp.Value != 1 {
		t.Fatalf("shed a = %+v, %v", resp, err)
	}
	if gap := time.Duration(reissuedAt.Load() - shedAt.Load()); gap < floor {
		t.Fatalf("shed op re-issued %v after its refusal, under the %v Retry-After floor", gap, floor)
	}

	// The redirect of a, read while waiting on b, is followed by a's own
	// Wait — after c's answer, still owed on the old connection, is in.
	owner, ownerReqs := scriptedEndpoint(t, serveOK(1))
	wrong, wrongReqs := scriptedEndpoint(t, func(conn net.Conn, reqs *atomic.Int64) {
		ops := admit(conn)
		for i := 0; ; i++ {
			req, err := ops.read()
			if err != nil {
				return
			}
			reqs.Add(1)
			if i == 0 {
				ops.answer(wire.Response{ID: req.ID, Status: wire.StatusNotPrimary, Data: []byte(owner)})
			} else {
				ops.answer(wire.Response{ID: req.ID, Status: wire.StatusOK, Value: req.Arg})
			}
		}
	})
	r2, err := dialRetry(wrong, RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	a, _ = r2.Go(wire.KindAdd, 0, 1, r2.NextSeq())
	b, _ = r2.Go(wire.KindAdd, 0, 2, r2.NextSeq())
	if err := r2.Flush(); err != nil {
		t.Fatal(err)
	}
	c, _ := r2.Go(wire.KindAdd, 0, 3, r2.NextSeq())
	if err := r2.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, p := range []*Pending{b, a, c} {
		want := []int64{2, 1, 3}[i]
		if resp, err := p.Wait(); err != nil || resp.Value != want {
			t.Fatalf("op %d = %+v, %v; want value %d", i, resp, err, want)
		}
	}
	if w, o := wrongReqs.Load(), ownerReqs.Load(); w != 3 || o != 1 {
		t.Fatalf("wrong node saw %d requests and the owner %d; want 3 and 1 (a re-issued to the owner only)", w, o)
	}
	if got := r2.Retries(); got != 0 {
		t.Fatalf("a free redirect hop burned %d retries", got)
	}
}

// TestBudgetIsPerOperation: an operation that cannot get a connection
// within its budget fails alone; the operations queued behind it have
// their own budget to spend on their own Wait. And on a client with a
// budget, Flush does not report a lost write that Wait will heal.
func TestBudgetIsPerOperation(t *testing.T) {
	addr, reqs := scriptedEndpoint(t,
		serveDropAfterRequest, serveBusy(0), serveBusy(0), serveOK(1), serveOK(1))
	r, err := dialRetry(addr, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	a, _ := r.Go(wire.KindAdd, 0, 1, r.NextSeq())
	b, _ := r.Go(wire.KindAdd, 0, 2, r.NextSeq())
	if _, err := a.Wait(); err == nil || !strings.Contains(err.Error(), "budget of 3 attempts") {
		t.Fatalf("a = %v, want its budget spent (one drop, two refused admissions)", err)
	}
	if resp, err := b.Wait(); err != nil || resp.Value != 2 {
		t.Fatalf("b = %+v, %v; want it healed on its own budget", resp, err)
	}
	c, _ := r.Go(wire.KindAdd, 0, 3, r.NextSeq())
	r.conn.Close() // the write fails, deterministically
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush reported %v for a write its Wait re-issues", err)
	}
	if resp, err := c.Wait(); err != nil || resp.Value != 3 {
		t.Fatalf("c = %+v, %v; want it re-issued on a fresh connection", resp, err)
	}
	if got := reqs.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (the dropped burst, b, c)", got)
	}
}
