package server

import (
	"bytes"
	"context"
	"testing"
	"time"

	"kexclusion/internal/core"
	"kexclusion/internal/durable"
	"kexclusion/internal/object"
	"kexclusion/internal/wire"
)

// TestAtomicRefusedTurnReleasesAndFences forces the arm that is
// unreachable under replMu: a group whose second shard refuses its turn
// (that shard's sequencer sits at a higher epoch, as after a state
// install). The group has already taken the first shard's turn and its
// effect is installed in memory on both, so the turn must be released —
// a later writer of the first shard would otherwise park in waitTurn
// forever — and the effect fenced under a snapshot — a released but
// never logged version would otherwise be a hole the next recovery
// refuses as "gap in shard history".
func TestAtomicRefusedTurnReleasesAndFences(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{Dir: dir, DedupWindow: 1024}
	log, rec, err := durable.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	impl, err := core.ByName("fastpath")
	if err != nil {
		t.Fatal(err)
	}
	tab := newTable(2, 1, 2, impl, tableConfig{window: 1024, log: log, recovered: rec.Shards})
	add := func(shard uint32, seq uint64) wire.Request {
		return wire.Request{ID: seq, Kind: wire.KindAdd, Shard: shard, Arg: 1, Session: 9, Seq: seq}
	}
	var c cycle
	for _, req := range []wire.Request{add(0, 1), add(1, 2)} {
		if resp := tab.applyStart(context.Background(), 0, req, nil, &c); resp.Status != wire.StatusOK {
			t.Fatalf("seeding shard %d: %+v", req.Shard, resp)
		}
	}

	tab.shards[1].seq.install(1, 1)
	awaited, fresh := len(c.waiting), c.fresh
	for i, resp := range tab.applyAtomicStart(0, []wire.Request{add(0, 3), add(1, 4)}, &c) {
		if resp.Status != wire.StatusInternal {
			t.Fatalf("member %d of the refused group answered %v, want %v", i, resp.Status, wire.StatusInternal)
		}
	}
	if len(c.waiting) != awaited || c.fresh != fresh {
		t.Fatalf("refused group entered the ledger: %d awaits (was %d), fresh %d (was %d)", len(c.waiting), awaited, c.fresh, fresh)
	}

	done := make(chan wire.Response, 1)
	go func() { done <- tab.applyStart(context.Background(), 1, add(0, 5), nil, &c) }()
	select {
	case resp := <-done:
		if resp.Status != wire.StatusOK || resp.Value != 3 {
			t.Fatalf("write after the refused group: %+v, want OK with value 3", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a write to the group's first shard wedged: its turn was taken and never released")
	}
	if err := log.WaitDurable(c.maxLsn); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	relog, rec, err := durable.Open(opts)
	if err != nil {
		t.Fatalf("reopening after the refused group: %v", err)
	}
	defer relog.Close()
	if st := rec.Shards[0]; st.Ver != 3 || rootVal(st) != 3 {
		t.Fatalf("recovered shard 0 at version %d, root %d; want 3, 3", st.Ver, rootVal(st))
	}
	if st := rec.Shards[1]; st.Ver != 2 || rootVal(st) != 2 {
		t.Fatalf("recovered shard 1 at version %d, root %d; want 2, 2 (the group is fenced under the snapshot)", st.Ver, rootVal(st))
	}
}

// origin plays a primary: it steps ops on its own shard states and
// emits the records a follower would pull and a WAL would hold.
type origin struct {
	st [2]durable.ShardState
}

func (o *origin) rec(shard uint32, session, seq uint64, op durable.Op) durable.Record {
	out := durable.StepOp(&o.st[shard], 1024, session, seq, op)
	return durable.Record{
		Session: session, Seq: seq, Shard: shard,
		Kind: op.Kind, Obj: op.Obj, Key: op.Key, Arg: op.Arg, Arg2: op.Arg2,
		Val: out.Val, Ver: out.Ver, Epoch: out.Epoch, OK: out.OK,
	}
}

// TestContainerOfOneEqualsBareRecord: on a follower a record is a group
// of one, so a container holding one member and that member shipped
// bare must land the same state, the same sequencer position and one
// WAL record each.
func TestContainerOfOneEqualsBareRecord(t *testing.T) {
	var o origin
	first := o.rec(1, 5, 1, durable.Op{Kind: durable.OpCreate, Obj: "kv", Arg: int64(object.TypeMap)})
	r := o.rec(1, 5, 2, durable.Op{Kind: durable.OpMapPut, Obj: "kv", Key: "k", Arg: 7})

	land := func(rec durable.Record) (img []byte, lsn, end, next, epoch uint64) {
		s := soloClusterServer(t)
		b := &replBackend{s: s}
		if _, err := b.ApplyReplicated([]durable.Record{first}); err != nil {
			t.Fatal(err)
		}
		before := s.log.End()
		lsn, err := b.ApplyReplicated([]durable.Record{rec})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.log.End() - before; got != 1 {
			t.Fatalf("one record grew the WAL by %d", got)
		}
		g := s.tab.shards[1].seq
		return durable.EncodeState(s.tab.peekAll()), lsn, s.log.End(), g.next, g.epoch
	}
	bareImg, bareLsn, bareEnd, bareNext, bareEpoch := land(r)
	boxImg, boxLsn, boxEnd, boxNext, boxEpoch := land(durable.Record{Atomic: []durable.Record{r}})
	if !bytes.Equal(bareImg, boxImg) {
		t.Fatal("a container of one landed a different state than its bare member")
	}
	if bareLsn != boxLsn || bareEnd != boxEnd {
		t.Fatalf("bare record at LSN %d (end %d), container at LSN %d (end %d)", bareLsn, bareEnd, boxLsn, boxEnd)
	}
	if bareNext != boxNext || bareEpoch != boxEpoch || bareNext != r.Ver+1 {
		t.Fatalf("sequencer after the bare record (%d, epoch %d), after the container (%d, epoch %d); want %d",
			bareNext, bareEpoch, boxNext, boxEpoch, r.Ver+1)
	}
}

// TestRecoveryAndFollowerBitIdentical is the follower's half of
// durable's TestLiveAndReplayBitIdentical: one record list — single
// ops, a 0xC2 container across both shards, a prefix delivered again,
// a record that carries a promotion's epoch and the records after it —
// fed to recovery (a WAL holding exactly that list) and to
// ApplyReplicated ends in byte-identical state, and so does recovery of
// the directory the follower wrote while applying it.
func TestRecoveryAndFollowerBitIdentical(t *testing.T) {
	var o origin
	recs := []durable.Record{
		o.rec(0, 5, 1, durable.Op{Kind: durable.OpCreate, Obj: "kv", Arg: int64(object.TypeMap)}),
		o.rec(1, 5, 2, durable.Op{Kind: durable.OpCreate, Obj: "q", Arg: int64(object.TypeQueue)}),
		o.rec(0, 5, 3, durable.Op{Kind: durable.OpMapPut, Obj: "kv", Key: "a", Arg: 10}),
		o.rec(1, 6, 1, durable.Op{Kind: durable.OpQEnq, Obj: "q", Arg: 4}),
		o.rec(0, 6, 2, rootAdd(3)),
		o.rec(0, 6, 3, durable.Op{Kind: durable.OpMapCAS, Obj: "kv", Key: "a", Arg: 11, Arg2: 99}), // logged rejection
	}
	recs = append(recs, durable.Record{Atomic: []durable.Record{
		o.rec(0, 7, 1, durable.Op{Kind: durable.OpMapPut, Obj: "kv", Key: "b", Arg: 1}),
		o.rec(1, 7, 2, durable.Op{Kind: durable.OpQDeq, Obj: "q"}),
		o.rec(0, 7, 3, rootAdd(-1)),
	}})
	recs = append(recs, recs...) // the whole prefix, container included, delivered again
	recs = append(recs, o.rec(1, 6, 4, durable.Op{Kind: durable.OpQEnq, Obj: "q", Arg: 5}))
	o.st[0].Epoch = 1 // shard 0's primary was replaced; its next record carries the bump
	recs = append(recs,
		o.rec(0, 8, 1, rootAdd(100)),
		o.rec(0, 8, 2, durable.Op{Kind: durable.OpMapDel, Obj: "kv", Key: "a"}),
		o.rec(1, 6, 5, durable.Op{Kind: durable.OpQDeq, Obj: "q"}),
	)

	opts := durable.Options{Dir: t.TempDir(), DedupWindow: 1024}
	log, _, err := durable.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if _, err := log.Append(r); err != nil {
			t.Fatalf("appending record %d: %v", i, err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log, recovered, err := durable.Open(opts)
	if err != nil {
		t.Fatalf("recovery of the record list: %v", err)
	}
	log.Close()
	want := durable.EncodeState(recovered.Shards)
	if !bytes.Equal(want, durable.EncodeState(map[uint32]durable.ShardState{0: o.st[0], 1: o.st[1]})) {
		t.Fatal("recovery of the record list differs from the origin that produced it")
	}

	s := soloClusterServer(t)
	if _, err := (&replBackend{s: s}).ApplyReplicated(recs); err != nil {
		t.Fatalf("follower: %v", err)
	}
	if !bytes.Equal(durable.EncodeState(s.tab.peekAll()), want) {
		t.Fatal("the follower's table differs from recovery of the same records")
	}
	s.closeLog()
	log, recovered, err = durable.Open(durable.Options{Dir: s.cfg.DataDir, DedupWindow: 1024})
	if err != nil {
		t.Fatalf("recovery of the follower's directory: %v", err)
	}
	log.Close()
	if !bytes.Equal(durable.EncodeState(recovered.Shards), want) {
		t.Fatal("the follower's WAL and snapshots recover to a different state than it served")
	}
}
