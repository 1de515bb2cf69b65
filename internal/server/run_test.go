package server_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"kexclusion/internal/object"
	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// goAll pipelines reqs through c and waits for every answer, in order.
func goAll(t *testing.T, c *client.Client, reqs []wire.Request) ([]wire.Response, []error) {
	t.Helper()
	ps := make([]*client.Pending, len(reqs))
	for i, r := range reqs {
		p, err := c.GoObj(r.Kind, r.Obj, r.Key, r.Shard, r.Arg, r.Arg2, r.Seq)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	resps, errs := make([]wire.Response, len(reqs)), make([]error, len(reqs))
	for i, p := range ps {
		resps[i], errs[i] = p.Wait()
	}
	return resps, errs
}

// adds is n root-register adds of 1 on shard 0 with seqs from, from+1, ...
func adds(n int, from uint64) []wire.Request {
	reqs := make([]wire.Request, n)
	for i := range reqs {
		reqs[i] = wire.Request{Kind: wire.KindAdd, Arg: 1, Seq: from + uint64(i)}
	}
	return reqs
}

// TestRunReadAfterPutsSeesLastPut: 40 puts of one key and a get in one
// flush are two runs, cut at durable.DedupDepth, and a read. The read
// ends the run, so it sees the last put — read-your-writes inside a
// pipeline survives the batching — and every answer keeps its place.
func TestRunReadAfterPutsSeesLastPut(t *testing.T) {
	const puts = 40
	srv, addr := startServer(t, server.Config{N: 1, K: 1, Shards: 1})
	c := dial(t, addr)
	defer c.Close()
	if res, err := c.CreateOn(0, "m", object.TypeMap, 0, c.NextSeq()); err != nil || !res.Found {
		t.Fatalf("create: %+v %v", res, err)
	}
	var reqs []wire.Request
	for v := int64(1); v <= puts; v++ {
		reqs = append(reqs, wire.Request{Kind: wire.KindMapPut, Obj: "m", Key: "k", Arg: v, Seq: c.NextSeq()})
	}
	reqs = append(reqs, wire.Request{Kind: wire.KindMapGet, Obj: "m", Key: "k"})
	before := srv.Stats()
	resps, errs := goAll(t, c, reqs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i < puts && resps[i].Value != reqs[i].Arg {
			t.Fatalf("put %d answered %+v, want value %d", i, resps[i], reqs[i].Arg)
		}
	}
	if got := resps[puts]; got.Value != puts || got.Flags&wire.FlagFound == 0 {
		t.Fatalf("get after %d puts in one flush = %+v, want %d found", puts, got, puts)
	}
	after := srv.Stats()
	if runs, ops := after.ApplyRuns-before.ApplyRuns, after.ApplyRunOps-before.ApplyRunOps; runs != 2 || ops != puts {
		t.Fatalf("%d puts applied as %d runs of %d ops in all, want 2 runs", puts, runs, ops)
	}
}

// TestRunDuplicateInsideRunWaitsAfterAppend: the same op ID twice in one
// run. The second is a duplicate of a member of its own run, whose
// record only the run's append writes — so the duplicate must wait for
// it after that append, not before (where it would wait on its own turn
// forever).
func TestRunDuplicateInsideRunWaitsAfterAppend(t *testing.T) {
	_, addr := startServer(t, server.Config{N: 1, K: 1, Shards: 1, DataDir: t.TempDir()})
	c := dial(t, addr)
	defer c.Close()
	c.SetOpTimeout(5 * time.Second)
	a := adds(3, 1)
	resps, errs := goAll(t, c, []wire.Request{a[0], a[1], a[0], a[2]})
	for i, want := range []struct {
		val int64
		dup bool
	}{{1, false}, {2, false}, {1, true}, {3, false}} {
		if errs[i] != nil {
			t.Fatalf("op %d: %v (a duplicate waiting on its own run's turn wedges the session)", i, errs[i])
		}
		if got := resps[i]; got.Value != want.val || (got.Flags&wire.FlagDuplicate != 0) != want.dup {
			t.Fatalf("op %d = %+v, want value %d duplicate %v", i, got, want.val, want.dup)
		}
	}
	if v, err := c.Get(0); err != nil || v != 3 {
		t.Fatalf("register = %d, %v; want 3", v, err)
	}
}

// TestRunWithdrawnByOpTimeoutAppliesNone: a run waits for one slot, so a
// run whose deadline expires before the slot frees is withdrawn whole:
// every member answers StatusTimeout and none of them is applied.
func TestRunWithdrawnByOpTimeoutAppliesNone(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	srv, addr := startServer(t, server.Config{
		N: 2, K: 1, Shards: 1,
		OpTimeout: 100 * time.Millisecond,
		ApplyGate: func(uint32, wire.Kind) {
			if armed.CompareAndSwap(true, false) {
				close(entered)
				<-gate
			}
		},
	})
	holder, runner := dial(t, addr), dial(t, addr)
	defer holder.Close()
	defer runner.Close()
	armed.Store(true)
	holderDone := make(chan error, 1)
	go func() {
		_, err := holder.Add(0, 1)
		holderDone <- err
	}()
	<-entered // the holder owns the only slot

	before := srv.Stats()
	_, errs := goAll(t, runner, adds(8, 1))
	for i, err := range errs {
		var we *wire.Error
		if !errors.As(err, &we) || we.Status != wire.StatusTimeout {
			t.Fatalf("member %d of the withdrawn run: %v, want status timeout", i, err)
		}
	}
	if got := srv.Stats().OpDeadlines - before.OpDeadlines; got != 8 {
		t.Fatalf("op_deadlines rose by %d, want 8 (every member)", got)
	}
	close(gate)
	if err := <-holderDone; err != nil {
		t.Fatal(err)
	}
	if v, err := runner.Get(0); err != nil || v != 1 {
		t.Fatalf("register = %d, %v; want 1 (the holder's add, none of the run's)", v, err)
	}
}

// TestRunHardCloseMidRunExactlyOnce: a client hard-closes while its run
// is parked inside the core. The run completes server-side — all of it,
// a run is one step — and the client's re-issue of the same op IDs,
// through a DialRetry client that waits out the busy identity, is
// answered from the dedup window: exactly once, every op flagged
// duplicate.
func TestRunHardCloseMidRunExactlyOnce(t *testing.T) {
	const session, ops = 0xfeed, 8
	gate, entered := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	_, addr := startServer(t, server.Config{
		N: 1, K: 1, Shards: 1,
		DataDir:     t.TempDir(),
		IdleTimeout: 30 * time.Second,
		ApplyGate: func(uint32, wire.Kind) {
			if armed.CompareAndSwap(true, false) {
				close(entered)
				<-gate
			}
		},
	})
	c1 := dial(t, addr)
	c1.SetSession(session)
	for _, r := range adds(ops, 1) {
		if _, err := c1.Go(r.Kind, r.Shard, r.Arg, r.Seq); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	if err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	<-entered // the run's first member is inside the core
	c1.HardClose()
	close(gate)

	// N = 1 and no admission parking: until the dead session's identity
	// is reclaimed, every dial is refused busy and DialRetry backs off.
	c2, err := client.DialRetry(addr, client.RetryPolicy{MaxAttempts: 100, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("re-dial after the hard close: %v", err)
	}
	defer c2.Close()
	c2.SetSession(session)
	resps, errs := goAll(t, c2, adds(ops, 1))
	for i := range resps {
		if errs[i] != nil {
			t.Fatalf("re-issue of seq %d: %v", i+1, errs[i])
		}
		if resps[i].Value != int64(i+1) || resps[i].Flags&wire.FlagDuplicate == 0 {
			t.Fatalf("re-issue of seq %d = %+v, want the original %d flagged duplicate", i+1, resps[i], i+1)
		}
	}
	if v, err := c2.Get(0); err != nil || v != ops {
		t.Fatalf("register = %d, %v; want %d (exactly once)", v, err, ops)
	}
}

// TestRunsHelpedUnderContention: more pipelining sessions than slots on
// one shard, so the universal construction's helpers may execute each
// other's announced runs (run it under -race). Every add lands exactly
// once.
func TestRunsHelpedUnderContention(t *testing.T) {
	const clients, bursts = 4, 10
	srv, addr := startServer(t, server.Config{N: clients, K: 2, Shards: 1})
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for b := 0; b < bursts; b++ {
				var ps []*client.Pending
				for _, r := range adds(32, uint64(32*b+1)) {
					p, err := c.Go(r.Kind, r.Shard, r.Arg, r.Seq)
					if err != nil {
						errs <- err
						return
					}
					ps = append(ps, p)
				}
				for _, p := range ps {
					if _, err := p.Wait(); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, addr)
	defer c.Close()
	if v, err := c.Get(0); err != nil || v != clients*bursts*32 {
		t.Fatalf("register = %d, %v; want %d", v, err, clients*bursts*32)
	}
	if st := srv.Stats(); st.ApplyRunOps != clients*bursts*32 || st.ApplyRuns >= st.ApplyRunOps {
		t.Fatalf("%d ops in %d runs", st.ApplyRunOps, st.ApplyRuns)
	}
}
