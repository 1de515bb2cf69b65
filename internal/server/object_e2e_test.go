package server_test

import (
	"errors"
	"testing"

	"kexclusion/internal/durable"
	"kexclusion/internal/object"
	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// TestObjectClassesEndToEnd drives all four object classes over a
// real socket, checks the per-class counters and the read fast path,
// then restarts the server and verifies every object recovered.
func TestObjectClassesEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{N: 4, K: 2, Shards: 4, DataDir: dir, Fsync: durable.SyncAlways}
	_, addr, stop := startStoppable(t, cfg)
	c := dial(t, addr)
	c.SetSession(0x51e5)

	// Register.
	if res, err := c.Create("hits", object.TypeRegister, 0); err != nil || !res.Found {
		t.Fatalf("create register: %+v err %v", res, err)
	}
	if res, err := c.RegAdd("hits", 5); err != nil || res.Value != 5 {
		t.Fatalf("reg add: %+v err %v", res, err)
	}
	if res, err := c.RegSet("hits", 40); err != nil || !res.Found {
		t.Fatalf("reg set: %+v err %v", res, err)
	}
	if v, found, err := c.RegGet("hits"); err != nil || !found || v != 40 {
		t.Fatalf("reg get: %d found=%v err %v", v, found, err)
	}

	// Map.
	if _, err := c.Create("users", object.TypeMap, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MapPut("users", "alice", 30); err != nil {
		t.Fatal(err)
	}
	if res, err := c.MapCAS("users", "alice", 30, 31); err != nil || !res.Found || res.Value != 31 {
		t.Fatalf("cas hit: %+v err %v", res, err)
	}
	if res, err := c.MapCAS("users", "alice", 30, 99); err != nil || res.Found || res.Value != 31 {
		t.Fatalf("cas miss must report the observed value: %+v err %v", res, err)
	}
	if v, found, err := c.MapGet("users", "alice"); err != nil || !found || v != 31 {
		t.Fatalf("map get: %d found=%v err %v", v, found, err)
	}
	if v, found, err := c.MapGet("users", "nobody"); err != nil || found || v != 0 {
		t.Fatalf("missing key: %d found=%v err %v", v, found, err)
	}
	if res, err := c.MapDel("users", "alice"); err != nil || !res.Found {
		t.Fatalf("map del: %+v err %v", res, err)
	}
	if _, err := c.MapPut("users", "bob", 7); err != nil {
		t.Fatal(err)
	}

	// Queue.
	if _, err := c.Create("jobs", object.TypeQueue, 0); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if res, err := c.QEnq("jobs", i*100); err != nil || res.Value != i {
			t.Fatalf("enq %d: %+v err %v", i, res, err)
		}
	}
	if res, err := c.QDeq("jobs"); err != nil || !res.Found || res.Value != 100 {
		t.Fatalf("deq: %+v err %v", res, err)
	}
	if n, found, err := c.QLen("jobs"); err != nil || !found || n != 2 {
		t.Fatalf("qlen: %d found=%v err %v", n, found, err)
	}

	// Snapshot (the footnote-1 k-slot object): per-slot updates, one
	// linearized scan.
	if _, err := c.Create("probes", object.TypeSnapshot, 3); err != nil {
		t.Fatal(err)
	}
	for slot, v := range []int64{11, 22, 33} {
		if res, err := c.SnapUpdate("probes", slot, v); err != nil || !res.Found {
			t.Fatalf("snap update %d: %+v err %v", slot, res, err)
		}
	}
	if slots, found, err := c.SnapScan("probes"); err != nil || !found ||
		len(slots) != 3 || slots[0] != 11 || slots[1] != 22 || slots[2] != 33 {
		t.Fatalf("snap scan: %v found=%v err %v", slots, found, err)
	}

	// Class conflict: re-creating under a different class is refused
	// (Found false), the original object untouched.
	if res, err := c.Create("jobs", object.TypeMap, 0); err != nil || res.Found {
		t.Fatalf("class conflict accepted: %+v err %v", res, err)
	}

	// Reads of missing objects are data, not errors.
	if _, found, err := c.RegGet("nonesuch"); err != nil || found {
		t.Fatalf("missing object read: found=%v err %v", found, err)
	}
	// A read of the wrong class reports not-found too.
	if _, found, err := c.MapGet("hits", "k"); err != nil || found {
		t.Fatalf("wrong-class read: found=%v err %v", found, err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ObjRegisterOps == 0 || st.ObjMapOps == 0 || st.ObjQueueOps == 0 || st.ObjSnapshotOps == 0 {
		t.Fatalf("per-class counters: reg=%d map=%d queue=%d snap=%d",
			st.ObjRegisterOps, st.ObjMapOps, st.ObjQueueOps, st.ObjSnapshotOps)
	}
	// Every read above (reg get, map gets, qlen, snap scan, the miss
	// reads) took the fast path.
	if st.ReadFastpath < 7 {
		t.Fatalf("read_fastpath = %d, want >= 7", st.ReadFastpath)
	}

	c.Close()
	stop()

	// Restart: every object class must come back from the WAL.
	_, addr2, _ := startStoppable(t, cfg)
	c2 := dial(t, addr2)
	defer c2.Close()
	if v, found, err := c2.RegGet("hits"); err != nil || !found || v != 40 {
		t.Fatalf("register after restart: %d found=%v err %v", v, found, err)
	}
	if v, found, err := c2.MapGet("users", "bob"); err != nil || !found || v != 7 {
		t.Fatalf("map after restart: %d found=%v err %v", v, found, err)
	}
	if _, found, err := c2.MapGet("users", "alice"); err != nil || found {
		t.Fatalf("deleted key resurrected: found=%v err %v", found, err)
	}
	if n, found, err := c2.QLen("jobs"); err != nil || !found || n != 2 {
		t.Fatalf("queue after restart: %d found=%v err %v", n, found, err)
	}
	if res, err := c2.QDeq("jobs"); err != nil || !res.Found || res.Value != 200 {
		t.Fatalf("queue order after restart: %+v err %v", res, err)
	}
	if slots, found, err := c2.SnapScan("probes"); err != nil || !found || len(slots) != 3 || slots[2] != 33 {
		t.Fatalf("snapshot after restart: %v found=%v err %v", slots, found, err)
	}
}

// TestObjectPipelineFrames exercises the 0xC1 pipeline: a mixed
// burst of legacy and object ops in one flush resolves in issue order.
func TestObjectPipelineFrames(t *testing.T) {
	_, addr := startServer(t, server.Config{N: 4, K: 2, Shards: 2})
	c := dial(t, addr)
	defer c.Close()

	if _, err := c.Create("ctr", object.TypeRegister, 0); err != nil {
		t.Fatal(err)
	}
	shard := c.ShardFor("ctr")
	var pendings []*client.Pending
	for i := 0; i < 10; i++ {
		p, err := c.GoObj(wire.KindRegAdd, "ctr", "", shard, 1, 0, c.NextSeq())
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
		// A legacy op rides the same object frame.
		lp, err := c.Go(wire.KindAdd, 0, 1, c.NextSeq())
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, lp)
	}
	for i, p := range pendings {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("pipelined op %d: %v", i, err)
		}
	}
	if v, found, err := c.RegGet("ctr"); err != nil || !found || v != 10 {
		t.Fatalf("after pipeline: %d found=%v err %v", v, found, err)
	}
	if v, err := c.Get(0); err != nil || v != 10 {
		t.Fatalf("legacy shard after pipeline: %d err %v", v, err)
	}
}

// TestAtomicGroupCommitAbortAndRetry pins the 0xC2 all-or-nothing
// contract end to end: a cross-shard group commits as a unit, a group
// with one rejectable member aborts without touching anything, and
// re-issuing a committed group verbatim is answered from the dedup
// window without re-applying.
func TestAtomicGroupCommitAbortAndRetry(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{N: 4, K: 2, Shards: 4, DataDir: dir, Fsync: durable.SyncAlways}
	_, addr, stop := startStoppable(t, cfg)
	c := dial(t, addr)
	c.SetSession(0xa70)

	mustCreate := func(name string, typ object.Type) {
		t.Helper()
		if res, err := c.Create(name, typ, 0); err != nil || !res.Found {
			t.Fatalf("create %s: %+v err %v", name, res, err)
		}
	}
	mustCreate("acct:a", object.TypeRegister)
	mustCreate("acct:b", object.TypeRegister)
	mustCreate("audit", object.TypeQueue)
	if _, err := c.RegSet("acct:a", 100); err != nil {
		t.Fatal(err)
	}

	// Transfer 30 from a to b with an audit enqueue: three shards, one
	// WAL record.
	transfer := c.AtomicSeqs([]client.AtomicOp{
		{Kind: wire.KindRegAdd, Obj: "acct:a", Arg: -30},
		{Kind: wire.KindRegAdd, Obj: "acct:b", Arg: 30},
		{Kind: wire.KindQEnq, Obj: "audit", Arg: 30},
	})
	results, err := c.Atomic(transfer)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Value != 70 || results[1].Value != 30 || results[2].Value != 1 {
		t.Fatalf("transfer results: %+v", results)
	}

	// Re-issuing the SAME group (same op IDs) must answer from history:
	// original values, WasDuplicate set, no second transfer.
	again, err := c.Atomic(transfer)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range again {
		if !r.WasDuplicate || r.Value != results[i].Value {
			t.Fatalf("retried member %d: %+v want duplicate of %+v", i, r, results[i])
		}
	}
	if v, _, err := c.RegGet("acct:a"); err != nil || v != 70 {
		t.Fatalf("retry re-applied: a=%d err %v", v, err)
	}

	// An aborting group: the CAS member observes the wrong value, so
	// NOTHING applies — including the other members — and the op IDs
	// stay unspent.
	mustCreate("conf", object.TypeMap)
	if _, err := c.MapPut("conf", "gen", 5); err != nil {
		t.Fatal(err)
	}
	bad := c.AtomicSeqs([]client.AtomicOp{
		{Kind: wire.KindRegAdd, Obj: "acct:a", Arg: -1000},
		{Kind: wire.KindMapCAS, Obj: "conf", Key: "gen", Arg: 6, Arg2: 4}, // expects 4, finds 5
	})
	if _, err := c.Atomic(bad); !errors.Is(err, client.ErrAtomicAborted) {
		t.Fatalf("rejectable group: err %v, want ErrAtomicAborted", err)
	}
	if v, _, err := c.RegGet("acct:a"); err != nil || v != 70 {
		t.Fatalf("aborted group leaked: a=%d err %v", v, err)
	}
	if v, _, err := c.MapGet("conf", "gen"); err != nil || v != 5 {
		t.Fatalf("aborted group leaked: gen=%d err %v", v, err)
	}

	// The abort left the group's op IDs unspent: fix the offending
	// member and re-issue the SAME ops — they apply fresh.
	bad[1].Arg2 = 5
	fixed, err := c.Atomic(bad)
	if err != nil {
		t.Fatal(err)
	}
	if fixed[0].WasDuplicate || fixed[0].Value != -930 || !fixed[1].Found {
		t.Fatalf("fixed group: %+v", fixed)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchAtomic != 2 {
		t.Fatalf("batch_atomic = %d, want 2 (transfer + fixed; abort and retry count nothing)", st.BatchAtomic)
	}

	c.Close()
	stop()

	// Restart: the committed groups replay atomically from their
	// type-9 records.
	_, addr2, _ := startStoppable(t, cfg)
	c2 := dial(t, addr2)
	defer c2.Close()
	if v, _, err := c2.RegGet("acct:a"); err != nil || v != -930 {
		t.Fatalf("a after restart: %d err %v", v, err)
	}
	if v, _, err := c2.RegGet("acct:b"); err != nil || v != 30 {
		t.Fatalf("b after restart: %d err %v", v, err)
	}
	if n, _, err := c2.QLen("audit"); err != nil || n != 1 {
		t.Fatalf("audit after restart: %d err %v", n, err)
	}
	if v, _, err := c2.MapGet("conf", "gen"); err != nil || v != 6 {
		t.Fatalf("gen after restart: %d err %v", v, err)
	}
}

// TestQueueDequeueExactlyOnceAcrossRestart is the ISSUE's acceptance
// scenario at the package level (kexchaos drives the same sequence
// through SIGKILL): a dequeue whose ack was lost is re-issued with its
// original op ID against the restarted server and must return the
// originally popped value — not pop again.
func TestQueueDequeueExactlyOnceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{N: 4, K: 2, Shards: 2, DataDir: dir, Fsync: durable.SyncAlways}
	_, addr, stop := startStoppable(t, cfg)
	c := dial(t, addr)
	c.SetSession(0xde9)

	if _, err := c.Create("q", object.TypeQueue, 0); err != nil {
		t.Fatal(err)
	}
	shard := c.ShardFor("q")
	for v := int64(1); v <= 3; v++ {
		if _, err := c.QEnq("q", v); err != nil {
			t.Fatal(err)
		}
	}
	const deqSeq = 77
	res, err := c.QDeqOp(shard, "q", deqSeq)
	if err != nil || !res.Found || res.Value != 1 {
		t.Fatalf("first dequeue: %+v err %v", res, err)
	}
	c.Close()
	stop()

	_, addr2, _ := startStoppable(t, cfg)
	c2 := dial(t, addr2)
	defer c2.Close()
	c2.SetSession(0xde9)
	retry, err := c2.QDeqOp(shard, "q", deqSeq)
	if err != nil {
		t.Fatal(err)
	}
	if !retry.WasDuplicate || retry.Value != 1 || !retry.Found {
		t.Fatalf("retried dequeue: %+v, want duplicate of value 1", retry)
	}
	if n, _, err := c2.QLen("q"); err != nil || n != 2 {
		t.Fatalf("queue length = %d, want 2 (no double-pop)", n)
	}
	// The next fresh dequeue continues FIFO order.
	if res, err := c2.QDeqOp(shard, "q", deqSeq+1); err != nil || res.Value != 2 {
		t.Fatalf("next dequeue: %+v err %v", res, err)
	}
}
