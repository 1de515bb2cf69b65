package client

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kexclusion/internal/wire"
)

// serveEcho admits and answers every request frame with echo semantics
// (Value = Arg), mirroring the framing. It records how many request
// frames it read and how many of them were pipeline frames.
func serveEcho(frames, pipelines *atomic.Int64) func(net.Conn) {
	return func(conn net.Conn) {
		admit(conn)
		for {
			f, err := wire.ReadRequestFrame(conn)
			if err != nil {
				return
			}
			frames.Add(1)
			resps := make([]wire.Response, len(f.Reqs))
			for i, req := range f.Reqs {
				resps[i] = wire.Response{ID: req.ID, Status: wire.StatusOK, Value: req.Arg}
			}
			if f.Batched {
				pipelines.Add(1)
				wire.WriteBatchResponses(conn, resps)
			} else {
				wire.WriteResponse(conn, resps[0])
			}
		}
	}
}

// TestPipelineFraming: a multi-op flush is one pipeline frame, a
// single-op flush one single-op frame — the client's only two request
// shapes outside Atomic.
func TestPipelineFraming(t *testing.T) {
	var frames, pipelines atomic.Int64
	addr := fakeEndpoint(t, serveEcho(&frames, &pipelines))
	c, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var ps []*Pending
	for i := 1; i <= 4; i++ {
		p, err := c.Go(wire.KindAdd, 0, int64(i*10), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if resp.Value != int64((i+1)*10) {
			t.Fatalf("op %d: got %d, want %d (responses out of order?)", i, resp.Value, (i+1)*10)
		}
	}
	if f, p := frames.Load(), pipelines.Load(); f != 1 || p != 1 {
		t.Fatalf("4-op flush used %d request frames (%d pipelines), want 1 pipeline frame", f, p)
	}
	if v, err := c.Add(0, 7); err != nil || v != 7 {
		t.Fatalf("Add = %d, %v", v, err)
	}
	if f, p := frames.Load(), pipelines.Load(); f != 2 || p != 1 {
		t.Fatalf("single-op exchange: %d frames, %d pipelines; want one more single-op frame", f, p)
	}
}

func TestPipelinePoisonFailsAllPendings(t *testing.T) {
	// Server answers the first op of the burst, then hangs up: the
	// waited-on op succeeds, every later pending fails with ErrBroken,
	// and new issues are refused.
	addr := fakeEndpoint(t, func(conn net.Conn) {
		ops := admit(conn)
		req, err := ops.read()
		if err != nil {
			return
		}
		ops.answer(wire.Response{ID: req.ID, Status: wire.StatusOK, Value: 1})
		conn.Close()
	})
	c, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p1, _ := c.Go(wire.KindAdd, 0, 1, 1)
	p2, _ := c.Go(wire.KindAdd, 0, 2, 2)
	p3, _ := c.Go(wire.KindAdd, 0, 3, 3)
	if resp, err := p1.Wait(); err != nil || resp.Value != 1 {
		t.Fatalf("p1: got %v, %v", resp.Value, err)
	}
	if _, err := p2.Wait(); !errors.Is(err, ErrBroken) {
		t.Fatalf("p2 after hangup: got %v, want ErrBroken", err)
	}
	if _, err := p3.Wait(); !errors.Is(err, ErrBroken) {
		t.Fatalf("p3 after hangup: got %v, want ErrBroken", err)
	}
	if _, err := c.Go(wire.KindPing, 0, 0, 0); !errors.Is(err, ErrBroken) {
		t.Fatalf("Go on poisoned client: got %v, want ErrBroken", err)
	}
}

func TestPipelineHealsMidBurst(t *testing.T) {
	// First connection dies after reading one request of the burst; the
	// whole burst re-issues (same op IDs) on the healed connection.
	addr, reqs := scriptedEndpoint(t,
		serveDropAfterRequest,
		serveOK(3),
	)
	r, err := dialRetry(addr, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var ops []*Pending
	for i := 1; i <= 3; i++ {
		p, err := r.Go(wire.KindAdd, 0, int64(i*10), r.NextSeq())
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, p)
	}
	for i, op := range ops {
		resp, err := op.Wait()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if want := int64((i + 1) * 10); resp.Value != want {
			t.Fatalf("op %d: got %d, want %d", i, resp.Value, want)
		}
	}
	if r.Reconnects() < 2 {
		t.Fatalf("reconnects = %d, want ≥ 2 (burst healed a drop)", r.Reconnects())
	}
	if reqs.Load() < 4 {
		t.Fatalf("server saw %d requests, want ≥ 4 (1 dropped + 3 healed)", reqs.Load())
	}
}

func TestPipelineTerminalPerOp(t *testing.T) {
	// A typed refusal fails only its own op; the rest of the burst
	// succeeds.
	addr := fakeEndpoint(t, func(conn net.Conn) {
		ops := admit(conn)
		for {
			req, err := ops.read()
			if err != nil {
				return
			}
			if req.Arg == 666 {
				ops.answer(wire.Response{ID: req.ID, Status: wire.StatusBadShard, Data: []byte("no such shard")})
			} else {
				ops.answer(wire.Response{ID: req.ID, Status: wire.StatusOK, Value: req.Arg})
			}
		}
	})
	r, err := dialRetry(addr, RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	good, _ := r.Go(wire.KindAdd, 0, 5, r.NextSeq())
	bad, _ := r.Go(wire.KindAdd, 0, 666, r.NextSeq())
	good2, _ := r.Go(wire.KindAdd, 0, 7, r.NextSeq())
	if resp, err := good.Wait(); err != nil || resp.Value != 5 {
		t.Fatalf("good: got %d, %v", resp.Value, err)
	}
	if _, err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "no such shard") {
		t.Fatalf("bad: got %v, want typed refusal", err)
	}
	if resp, err := good2.Wait(); err != nil || resp.Value != 7 {
		t.Fatalf("good2: got %d, %v", resp.Value, err)
	}
}

// TestIDLessMutationSentOnce: a mutation with Seq == 0 has opted out of
// the dedup window, so after an exchange that may have applied it — the
// connection dropped once the request was sent — it is NOT re-issued:
// it fails with ErrBroken having reached the server exactly once. The
// same operation refused with StatusBusy, which promises it was never
// applied, is retried like any other.
func TestIDLessMutationSentOnce(t *testing.T) {
	addr, reqs := scriptedEndpoint(t, serveDropAfterRequest, serveOK(1))
	r, err := dialRetry(addr, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.AddOp(0, 5, 0); !errors.Is(err, ErrBroken) {
		t.Fatalf("ID-less add across a dropped exchange: got %v, want ErrBroken", err)
	}
	if got := reqs.Load(); got != 1 {
		t.Fatalf("server saw the ID-less add %d times, want exactly 1", got)
	}
	// The client itself is not poisoned: an ID-carrying mutation redials.
	if v, err := r.Add(0, 8); err != nil || v != 8 {
		t.Fatalf("Add after the terminal op = %d, %v", v, err)
	}

	addr, reqs = scriptedEndpoint(t, serveStatusThenOK(wire.StatusBusy))
	r2, err := dialRetry(addr, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if res, err := r2.AddOp(0, 5, 0); err != nil || res.Value != 5 {
		t.Fatalf("ID-less add through a shed = %+v, %v", res, err)
	}
	if got := reqs.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (shed + re-issue)", got)
	}
}

// TestCloseWakesParkedOp: Close must not wait out the retry budget. An
// operation parked in a long backoff is woken, fails with ErrClosed,
// and dials nothing further.
func TestCloseWakesParkedOp(t *testing.T) {
	const hintMillis = 30_000
	var dials atomic.Int64
	shed := func(conn net.Conn, reqs *atomic.Int64) {
		dials.Add(1)
		ops := admit(conn)
		for {
			req, err := ops.read()
			if err != nil {
				return
			}
			reqs.Add(1)
			ops.answer(wire.Response{ID: req.ID, Status: wire.StatusBusy, Value: hintMillis})
		}
	}
	addr, reqs := scriptedEndpoint(t, shed, shed)
	r, err := dialRetry(addr, RetryPolicy{MaxAttempts: 30, BaseDelay: time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	opErr := make(chan error, 1)
	go func() {
		_, err := r.Add(0, 1)
		opErr <- err
	}()
	for reqs.Load() == 0 { // the op has been shed: it is parked in its backoff
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("Close took %v, want < 100ms: it waited for the parked operation", elapsed)
	}
	select {
	case err := <-opErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked op failed with %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("parked op still running a second after Close")
	}
	if _, err := r.Get(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("op on a closed client: got %v, want ErrClosed", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("endpoint saw %d dials, want 1: a closed client must not redial", got)
	}
}
