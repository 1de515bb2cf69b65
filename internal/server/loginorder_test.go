package server

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
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
		if resp := tab.applyRun(context.Background(), 0, []wire.Request{req}, nil, &c)[0]; resp.Status != wire.StatusOK {
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
	go func() { done <- tab.applyRun(context.Background(), 1, []wire.Request{add(0, 5)}, nil, &c)[0] }()
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
		if _, _, err := b.ApplyReplicated([]durable.Record{first}); err != nil {
			t.Fatal(err)
		}
		before := s.log.End()
		lsn, _, err := b.ApplyReplicated([]durable.Record{rec})
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
	if _, _, err := (&replBackend{s: s}).ApplyReplicated(recs); err != nil {
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

// TestRecoveryAndFollowerBitIdenticalPipelined is
// TestRecoveryAndFollowerBitIdentical under a pipelined load: a durable
// server serves seeded pipelines — runs of puts, enqueues, dequeues,
// cas and register adds from several sessions, broken by reads and by
// 0xC2 groups, with op IDs re-issued inside a run and after it — and
// recovery of its directory, a follower applying its WAL record by
// record and recovery of the follower's directory all end in the bytes
// the server served.
func TestRecoveryAndFollowerBitIdenticalPipelined(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "primary")
	s, err := New(Config{N: 1, K: 1, Shards: 2, DataDir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.closeLog)
	rng := rand.New(rand.NewSource(26))
	var id uint64
	seqs := map[uint64]uint64{}
	var sent []wire.Request
	mutation := func(shard uint32) wire.Request {
		id++
		session := uint64(1 + rng.Intn(3))
		if len(sent) > 0 && rng.Intn(10) == 0 {
			r := sent[len(sent)-1-rng.Intn(min(len(sent), 40))] // a re-issue
			r.ID = id
			return r
		}
		seqs[session]++
		r := wire.Request{ID: id, Shard: shard, Session: session, Seq: seqs[session], Arg: int64(rng.Intn(5)), Arg2: int64(rng.Intn(5))}
		switch rng.Intn(5) {
		case 0:
			r.Kind = wire.KindAdd
		case 1:
			r.Kind, r.Obj, r.Key = wire.KindMapPut, "kv", string(rune('a'+rng.Intn(4)))
		case 2:
			r.Kind, r.Obj, r.Key = wire.KindMapCAS, "kv", string(rune('a'+rng.Intn(4)))
		case 3:
			r.Kind, r.Obj = wire.KindQEnq, "q"
		default:
			r.Kind, r.Obj = wire.KindQDeq, "q"
		}
		sent = append(sent, r)
		return r
	}
	serve := func(frames ...wire.ReqFrame) {
		total := 0
		for _, f := range frames {
			total += len(f.Reqs)
		}
		resps, _ := s.serveCycle(0, frames, total)
		for i, resp := range resps {
			if resp.Status != wire.StatusOK && resp.Status != wire.StatusBadRequest { // bad request: a stale re-issue
				t.Fatalf("response %d: %+v (%s)", i, resp, resp.Data)
			}
		}
	}
	for shard := uint32(0); shard < 2; shard++ {
		id++
		serve(wire.ReqFrame{Reqs: []wire.Request{
			{ID: id, Kind: wire.KindCreate, Shard: shard, Obj: "kv", Arg: int64(object.TypeMap), Session: 9, Seq: uint64(2*shard + 1)},
			{ID: id + 1, Kind: wire.KindCreate, Shard: shard, Obj: "q", Arg: int64(object.TypeQueue), Session: 9, Seq: uint64(2*shard + 2)},
		}, Batched: true})
		id++
	}
	for cycle := 0; cycle < 60; cycle++ {
		var frames []wire.ReqFrame
		for f := 0; f < 1+rng.Intn(3); f++ {
			if rng.Intn(6) == 0 {
				id += 2
				seqs[4] += 2
				frames = append(frames, wire.ReqFrame{Batched: true, Atomic: true, Reqs: []wire.Request{
					{ID: id - 1, Kind: wire.KindAdd, Shard: 0, Arg: 1, Session: 4, Seq: seqs[4] - 1},
					{ID: id, Kind: wire.KindAdd, Shard: 1, Arg: -1, Session: 4, Seq: seqs[4]},
				}})
				continue
			}
			frame := wire.ReqFrame{Batched: true}
			shard := uint32(rng.Intn(2))
			for n := 1 + rng.Intn(48); n > 0; n-- {
				switch {
				case rng.Intn(12) == 0:
					id++
					frame.Reqs = append(frame.Reqs, wire.Request{ID: id, Kind: wire.KindMapGet, Shard: shard, Obj: "kv", Key: "a"})
				case rng.Intn(16) == 0:
					shard ^= 1
				}
				frame.Reqs = append(frame.Reqs, mutation(shard))
			}
			frames = append(frames, frame)
		}
		serve(frames...)
	}
	st := s.Stats()
	t.Logf("%d ops in %d runs, %d dupes, %d groups", st.ApplyRunOps, st.ApplyRuns, st.AppliedDupes, st.BatchAtomic)
	if st.ApplyRunOps < 3*st.ApplyRuns || st.AppliedDupes == 0 || st.BatchAtomic == 0 {
		t.Fatalf("load too thin: %d ops in %d runs, %d dupes, %d groups", st.ApplyRunOps, st.ApplyRuns, st.AppliedDupes, st.BatchAtomic)
	}
	want := durable.EncodeState(s.tab.peekAll())
	recs, _, err := s.log.ReadRecords(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s.closeLog()

	log, recovered, err := durable.Open(durable.Options{Dir: dir, DedupWindow: 1024})
	if err != nil {
		t.Fatalf("recovery of the served directory: %v", err)
	}
	log.Close()
	if !bytes.Equal(durable.EncodeState(recovered.Shards), want) {
		t.Fatal("recovery of the pipelined load differs from the state it served")
	}

	f := soloClusterServer(t)
	if _, _, err := (&replBackend{s: f}).ApplyReplicated(recs); err != nil {
		t.Fatalf("follower: %v", err)
	}
	if !bytes.Equal(durable.EncodeState(f.tab.peekAll()), want) {
		t.Fatal("the follower's table differs from the state the pipelined load served")
	}
	f.closeLog()
	log, recovered, err = durable.Open(durable.Options{Dir: f.cfg.DataDir, DedupWindow: 1024})
	if err != nil {
		t.Fatalf("recovery of the follower's directory: %v", err)
	}
	log.Close()
	if !bytes.Equal(durable.EncodeState(recovered.Shards), want) {
		t.Fatal("the follower's WAL and snapshots recover to a different state than the origin served")
	}
}
