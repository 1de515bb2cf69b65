package server_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"kexclusion/internal/object"
	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// TestPipelineBatchEndToEnd drives a pipelined burst over a real
// server: one flush, one durability wait server-side, responses in
// issue order.
func TestPipelineBatchEndToEnd(t *testing.T) {
	_, addr := startServer(t, server.Config{N: 2, K: 2, Shards: 2, DataDir: t.TempDir()})
	c := dial(t, addr)
	defer c.Close()
	const depth = 16
	var ps []*client.Pending
	for i := 1; i <= depth; i++ {
		p, err := c.Go(wire.KindAdd, 0, 1, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for i, p := range ps {
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if resp.Value != int64(i+1) {
			t.Fatalf("op %d: running total %d, want %d (pipeline reordered?)", i, resp.Value, i+1)
		}
	}
	if v, err := c.Get(0); err != nil || v != depth {
		t.Fatalf("Get = %d, %v; want %d", v, err, depth)
	}
}

// TestPipelineHardCloseMidBatchExactlyOnce kills a session right after
// flushing a pipelined batch of mutations: whatever subset the server
// applied, re-issuing the same op IDs over a fresh session must
// converge on exactly-once application, and the dead session's
// identity must come back to the pool.
func TestPipelineHardCloseMidBatchExactlyOnce(t *testing.T) {
	_, addr := startServer(t, server.Config{
		N: 1, K: 1, Shards: 1,
		DataDir:      t.TempDir(),
		AdmitTimeout: 3 * time.Second,
		IdleTimeout:  30 * time.Second,
	})
	const session, ops = 0xfeed, 8

	c1 := dial(t, addr)
	c1.SetSession(session)
	for i := 1; i <= ops; i++ {
		if _, err := c1.Go(wire.KindAdd, 0, 1, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	c1.HardClose() // batch is in flight; acks (if any) are discarded

	// N=1: this dial parks until the server notices the dead socket and
	// reclaims the identity — the reclaim assertion and the healing
	// session in one step.
	c2, err := client.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("identity not reclaimed after hard close: %v", err)
	}
	defer c2.Close()
	c2.SetSession(session)
	dupes := 0
	for i := 1; i <= ops; i++ {
		res, err := c2.AddOp(0, 1, uint64(i))
		if err != nil {
			t.Fatalf("re-issue seq %d: %v", i, err)
		}
		if res.WasDuplicate {
			dupes++
		}
		if res.Value != int64(i) {
			t.Fatalf("seq %d: value %d, want %d", i, res.Value, i)
		}
	}
	if v, err := c2.Get(0); err != nil || v != ops {
		t.Fatalf("final value %d, %v; want %d (exactly-once violated)", v, err, ops)
	}
	t.Logf("hard-closed batch: %d/%d ops had landed before the close", dupes, ops)
}

// TestWatchdogReclaimsIdlePipelinedSession checks the idle watchdog
// still spans the read-many loop: a session that pipelined a batch and
// then went silent is torn down, freeing its identity.
func TestWatchdogReclaimsIdlePipelinedSession(t *testing.T) {
	_, addr := startServer(t, server.Config{
		N: 1, K: 1, Shards: 1,
		AdmitTimeout: 3 * time.Second,
		IdleTimeout:  200 * time.Millisecond,
	})
	c1 := dial(t, addr)
	defer c1.Close()
	var ps []*client.Pending
	for i := 1; i <= 4; i++ {
		p, err := c1.Go(wire.KindAdd, 0, 1, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// c1 now sits silent between batches — exactly where the watchdog
	// must fire. The only identity frees, admitting c2.
	c2, err := client.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("watchdog did not reclaim the idle pipelined session: %v", err)
	}
	c2.Close()
}

// TestDrainLandsMidBatch starts a graceful shutdown while a pipelined
// batch is inside the apply phase: every admitted op of the batch must
// complete and be acknowledged — drain refuses future work, it never
// abandons admitted work.
func TestDrainLandsMidBatch(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv, err := server.New(server.Config{
		N: 2, K: 2, Shards: 1,
		ApplyGate: func(uint32, wire.Kind) {
			once.Do(func() {
				close(entered)
				<-release
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()

	c := dial(t, addr.String())
	defer c.Close()
	var ps []*client.Pending
	for i := 1; i <= 3; i++ {
		p, err := c.Go(wire.KindAdd, 0, 1, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	<-entered // first op of the batch is inside the wait-free core

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Give the drain a moment to land mid-batch, then let the op go.
	time.Sleep(50 * time.Millisecond)
	close(release)

	for i, p := range ps {
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("admitted op %d abandoned by drain: %v", i, err)
		}
		if resp.Value != int64(i+1) {
			t.Fatalf("op %d: value %d, want %d", i, resp.Value, i+1)
		}
	}
	// The NEXT cycle sees the drain: a typed refusal or a closed socket.
	if _, err := c.Add(0, 1); err == nil {
		t.Fatal("op after drain succeeded")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}

// TestEveryKindEveryFrameEndToEnd speaks the raw protocol against a
// live server: every kind as a single-op frame, all of them again as
// one pipeline frame, and every mutation kind as one atomic group. Each
// op must be answered OK, in order, in the shape its frame is owed.
func TestEveryKindEveryFrameEndToEnd(t *testing.T) {
	srv, addr := startServer(t, server.Config{N: 2, K: 2, Shards: 2})
	setup := dial(t, addr)
	for name, typ := range map[string]object.Type{"m": object.TypeMap, "q": object.TypeQueue, "s": object.TypeSnapshot} {
		if res, err := setup.CreateOn(0, name, typ, 2, setup.NextSeq()); err != nil || !res.Found {
			t.Fatalf("create %s: %+v %v", name, res, err)
		}
	}
	setup.Close()

	// One pass leaves every object as it found it (put/cas/del one key,
	// enqueue/dequeue one element), so the passes can repeat; mutations
	// precede the conditional ops that depend on them, which an atomic
	// group needs to commit.
	mutation := func(k wire.Kind) bool { return !k.IsRead() && k != wire.KindPing && k != wire.KindStats }
	var id, seq uint64
	pass := func(keep func(wire.Kind) bool) []wire.Request {
		var reqs []wire.Request
		for k := wire.KindPing; k <= wire.KindSnapScan; k++ {
			if !keep(k) {
				continue
			}
			id++
			r := wire.Request{ID: id, Kind: k, Arg: 5}
			switch {
			case k == wire.KindCreate:
				r.Obj, r.Arg = "r", int64(object.TypeRegister)
			case k >= wire.KindRegGet && k <= wire.KindRegSet:
				r.Obj = "r"
			case k >= wire.KindMapGet && k <= wire.KindMapDel:
				r.Obj, r.Key = "m", "k"
				if k == wire.KindMapCAS {
					r.Arg, r.Arg2 = 6, 5
				}
			case k >= wire.KindQEnq && k <= wire.KindQLen:
				r.Obj = "q"
			case k >= wire.KindSnapUpdate:
				r.Obj = "s"
			}
			if mutation(k) {
				seq++
				r.Session, r.Seq = 0x5eed, seq
			}
			reqs = append(reqs, r)
		}
		return reqs
	}
	every := func(wire.Kind) bool { return true }

	conn := rawDial(t, addr)
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	check := func(frame string, req wire.Request, resp wire.Response) {
		t.Helper()
		if resp.ID != req.ID || resp.Status != wire.StatusOK {
			t.Fatalf("%s %v: got %+v (%s), want OK for id %d", frame, req.Kind, resp, resp.Data, req.ID)
		}
	}
	readBatch := func(frame string, reqs []wire.Request) {
		t.Helper()
		for got := 0; got < len(reqs); {
			br, err := wire.ReadBatchResponse(conn)
			if err != nil {
				t.Fatalf("%s: after %d of %d responses: %v", frame, got, len(reqs), err)
			}
			for _, resp := range br.Resps {
				check(frame, reqs[got], resp)
				got++
			}
		}
	}

	for _, req := range pass(every) {
		payload, err := wire.EncodeObjRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, payload); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadResponse(conn)
		if err != nil {
			t.Fatalf("0xC0 %v: %v", req.Kind, err)
		}
		check("0xC0", req, resp)
	}
	for _, tc := range []struct {
		frame  string
		reqs   []wire.Request
		atomic bool
	}{{"0xC1", pass(every), false}, {"0xC2", pass(mutation), true}} {
		payload, err := wire.ObjBatch{Reqs: tc.reqs, Atomic: tc.atomic}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, payload); err != nil {
			t.Fatal(err)
		}
		readBatch(tc.frame, tc.reqs)
	}
	if st := srv.Stats(); st.BatchAtomic != 1 || st.AppliedDupes != 0 {
		t.Fatalf("batch_atomic = %d, applied_dupes = %d; want one committed group and no dupes", st.BatchAtomic, st.AppliedDupes)
	}
}

// TestRetiredFramingsRefused: the kx03 plain request and the kx04 0xB4
// batch are not request shapes any more. A live server hangs up on
// either without an answer, and the identity goes back to the pool
// (N=1 proves it).
func TestRetiredFramingsRefused(t *testing.T) {
	srv, addr := startServer(t, server.Config{N: 1, K: 1, Shards: 1})
	kx03 := make([]byte, 37) // id, kind, shard, arg, session, seq
	kx03[7], kx03[8], kx03[20] = 1, byte(wire.KindAdd), 1
	kx04 := append([]byte{0xB4, 0, 0, 0, 1}, kx03...)
	for i, payload := range [][]byte{kx03, kx04} {
		conn := rawDial(t, addr)
		if err := wire.WriteFrame(conn, payload); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if b, err := wire.ReadFrame(conn); err == nil {
			t.Fatalf("retired framing %d answered with %x", i, b)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("retired framing %d: server kept the session open", i)
		}
		conn.Close()
		awaitStats(t, srv, "retired-framing reclaim", func(st wire.Stats) bool {
			return st.ActiveSessions == 0 && st.Reclaimed >= int64(i+1)
		})
	}
	c := dial(t, addr)
	defer c.Close()
	if v, err := c.Get(0); err != nil || v != 0 {
		t.Fatalf("register after refused frames = %d, %v; want untouched 0", v, err)
	}
}
