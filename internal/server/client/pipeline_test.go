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

func TestReconnectingPipelineHealsMidBurst(t *testing.T) {
	// First connection dies after reading one request of the burst; the
	// whole burst re-issues (same op IDs) on the healed connection.
	addr, reqs := scriptedEndpoint(t,
		serveDropAfterRequest,
		serveOK(3),
	)
	r, err := DialReconnecting(addr, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p := r.Pipeline(0)
	ops := []*PipelineOp{p.Add(0, 10), p.Add(0, 20), p.Add(0, 30)}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		res, err := op.Wait()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if want := int64((i + 1) * 10); res.Value != want {
			t.Fatalf("op %d: got %d, want %d", i, res.Value, want)
		}
	}
	if r.Reconnects() < 2 {
		t.Fatalf("reconnects = %d, want ≥ 2 (burst healed a drop)", r.Reconnects())
	}
	if reqs.Load() < 4 {
		t.Fatalf("server saw %d requests, want ≥ 4 (1 dropped + 3 healed)", reqs.Load())
	}
}

func TestReconnectingPipelineTerminalPerOp(t *testing.T) {
	// A typed refusal fails only its own op; the rest of the burst
	// succeeds, and Flush surfaces the failed op's error.
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
	r, err := DialReconnecting(addr, RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p := r.Pipeline(0)
	good := p.Add(0, 5)
	bad := p.Add(0, 666)
	good2 := p.Add(0, 7)
	flushErr := p.Flush()
	if flushErr == nil || !strings.Contains(flushErr.Error(), "no such shard") {
		t.Fatalf("Flush: got %v, want the refused op's error", flushErr)
	}
	if res, err := good.Wait(); err != nil || res.Value != 5 {
		t.Fatalf("good: got %d, %v", res.Value, err)
	}
	if _, err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "no such shard") {
		t.Fatalf("bad: got %v, want typed refusal", err)
	}
	if res, err := good2.Wait(); err != nil || res.Value != 7 {
		t.Fatalf("good2: got %d, %v", res.Value, err)
	}
}

func TestPipelineAutoFlushAtDepth(t *testing.T) {
	var frames, pipelines atomic.Int64
	addr := fakeEndpoint(t, serveEcho(&frames, &pipelines))
	r, err := DialReconnecting(addr, RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p := r.Pipeline(2)
	a := p.Add(0, 1)
	b := p.Add(0, 2) // depth reached: the burst flushes here
	if !a.done || !b.done {
		t.Fatal("depth-2 pipeline did not auto-flush on the second enqueue")
	}
	if res, err := a.Wait(); err != nil || res.Value != 1 {
		t.Fatalf("a: got %d, %v", res.Value, err)
	}
	if res, err := b.Wait(); err != nil || res.Value != 2 {
		t.Fatalf("b: got %d, %v", res.Value, err)
	}
}
