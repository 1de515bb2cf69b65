package durable

import (
	"reflect"
	"testing"

	"kexclusion/internal/object"
)

func TestStepOpObjectLifecycle(t *testing.T) {
	var s ShardState
	step := func(seq uint64, op Op) Outcome {
		return StepOp(&s, 0, 1, seq, op)
	}
	out := step(1, Op{Kind: OpCreate, Obj: "kv", Arg: int64(object.TypeMap)})
	if !out.Applied || !out.OK {
		t.Fatalf("create: %+v", out)
	}
	// Idempotent re-create with the same type (fresh seq, same verdict).
	if out = step(2, Op{Kind: OpCreate, Obj: "kv", Arg: int64(object.TypeMap)}); !out.OK {
		t.Fatalf("re-create same type: %+v", out)
	}
	// Type conflict: applied (Ver advances) but rejected.
	out = step(3, Op{Kind: OpCreate, Obj: "kv", Arg: int64(object.TypeQueue)})
	if !out.Applied || out.OK || out.Val != int64(object.TypeMap) {
		t.Fatalf("conflicting create: %+v", out)
	}

	if out = step(4, Op{Kind: OpMapPut, Obj: "kv", Key: "a", Arg: 10}); !out.OK || out.Val != 10 {
		t.Fatalf("put: %+v", out)
	}
	// CAS success, then CAS mismatch reporting the observed value.
	if out = step(5, Op{Kind: OpMapCAS, Obj: "kv", Key: "a", Arg: 20, Arg2: 10}); !out.OK || out.Val != 20 {
		t.Fatalf("cas hit: %+v", out)
	}
	out = step(6, Op{Kind: OpMapCAS, Obj: "kv", Key: "a", Arg: 99, Arg2: 10})
	if out.OK || out.Val != 20 || !out.Applied {
		t.Fatalf("cas miss: %+v", out)
	}
	// Missing key compares as 0: cas(0→v) initializes.
	if out = step(7, Op{Kind: OpMapCAS, Obj: "kv", Key: "fresh", Arg: 5, Arg2: 0}); !out.OK {
		t.Fatalf("cas init: %+v", out)
	}
	if out = step(8, Op{Kind: OpMapDel, Obj: "kv", Key: "a"}); !out.OK || out.Val != 20 {
		t.Fatalf("del: %+v", out)
	}
	if out = step(9, Op{Kind: OpMapDel, Obj: "kv", Key: "a"}); out.OK {
		t.Fatalf("del absent reported OK: %+v", out)
	}

	// Queue semantics.
	step(10, Op{Kind: OpCreate, Obj: "q", Arg: int64(object.TypeQueue)})
	if out = step(11, Op{Kind: OpQDeq, Obj: "q"}); out.OK {
		t.Fatalf("deq empty reported OK: %+v", out)
	}
	step(12, Op{Kind: OpQEnq, Obj: "q", Arg: 7})
	step(13, Op{Kind: OpQEnq, Obj: "q", Arg: 8})
	if out = step(14, Op{Kind: OpQDeq, Obj: "q"}); !out.OK || out.Val != 7 {
		t.Fatalf("deq: %+v", out)
	}

	// Snapshot slots.
	step(15, Op{Kind: OpCreate, Obj: "snap", Arg: int64(object.TypeSnapshot), Arg2: 3})
	if out = step(16, Op{Kind: OpSnapUpdate, Obj: "snap", Arg: 42, Arg2: 2}); !out.OK {
		t.Fatalf("snap update: %+v", out)
	}
	if out = step(17, Op{Kind: OpSnapUpdate, Obj: "snap", Arg: 42, Arg2: 3}); out.OK {
		t.Fatalf("snap update out of range reported OK: %+v", out)
	}

	// Ops on a missing object apply-and-reject.
	out = step(18, Op{Kind: OpRegAdd, Obj: "nope", Arg: 1})
	if !out.Applied || out.OK {
		t.Fatalf("missing object: %+v", out)
	}
	if s.Ver != 18 {
		t.Fatalf("Ver = %d, want 18 (every ID'd mutation advances it)", s.Ver)
	}
}

// TestStepOpCASReissueFromWindow is the exactly-once contract for
// non-idempotent rejections: a cas whose ack was lost and is re-issued
// must be answered with the ORIGINAL verdict from the dedup window —
// not re-evaluated against state that has since moved — at every depth
// the window covers.
// TestRootRegisterIsBornNotCreated: the root register exists in a zero
// state, reading 0; create can neither make it nor retype it, before or
// after its first mutation binds the name; and it is a register to
// every other kind — a map put on it is a type conflict.
func TestRootRegisterIsBornNotCreated(t *testing.T) {
	var s ShardState
	refused := func(when string) {
		t.Helper()
		for typ := object.TypeRegister; typ <= object.TypeSnapshot; typ++ {
			out := StepOp(&s, 0, 0, 0, Op{Kind: OpCreate, Obj: RootName, Arg: int64(typ), Arg2: 1})
			if !out.Applied || out.OK {
				t.Fatalf("%s: create of the root name as %v: %+v, want applied and rejected", when, typ, out)
			}
		}
	}
	refused("unbound")
	if objOf(s, RootName) != nil || rootVal(s) != 0 {
		t.Fatalf("refused creates bound the root name: %+v", objOf(s, RootName))
	}
	if out := StepOp(&s, 0, 0, 0, rootAdd(5)); !out.OK || out.Val != 5 {
		t.Fatalf("first add on the born-at-0 root: %+v", out)
	}
	refused("bound")
	if out := StepOp(&s, 0, 0, 0, Op{Kind: OpMapPut, Obj: RootName, Key: "k", Arg: 1}); out.OK {
		t.Fatalf("map put on the root register: %+v, want a type conflict", out)
	}
	if o := objOf(s, RootName); o == nil || o.Type != object.TypeRegister || o.Reg != 5 {
		t.Fatalf("root after refused creates and a conflicting put: %+v", o)
	}
}

func TestStepOpCASReissueFromWindow(t *testing.T) {
	var s ShardState
	StepOp(&s, 0, 1, 1, Op{Kind: OpCreate, Obj: "kv", Arg: int64(object.TypeMap)})
	StepOp(&s, 0, 1, 2, Op{Kind: OpMapPut, Obj: "kv", Key: "x", Arg: 1})
	// cas(1→2) succeeds.
	hit := StepOp(&s, 0, 1, 3, Op{Kind: OpMapCAS, Obj: "kv", Key: "x", Arg: 2, Arg2: 1})
	if !hit.OK {
		t.Fatalf("cas hit: %+v", hit)
	}
	// cas(1→3) now fails (value is 2).
	miss := StepOp(&s, 0, 1, 4, Op{Kind: OpMapCAS, Obj: "kv", Key: "x", Arg: 3, Arg2: 1})
	if miss.OK || miss.Val != 2 {
		t.Fatalf("cas miss: %+v", miss)
	}
	// Interleave more ops so the re-issues come from the Recent history,
	// not the inline newest entry — but stay within DedupDepth.
	for seq := uint64(5); seq < 20; seq++ {
		StepOp(&s, 0, 1, seq, Op{Kind: OpMapPut, Obj: "kv", Key: "y", Arg: int64(seq)})
	}
	// Someone else moves x so a re-evaluation WOULD now succeed for the
	// miss and fail for the hit; the window must not re-evaluate.
	StepOp(&s, 0, 2, 1, Op{Kind: OpMapPut, Obj: "kv", Key: "x", Arg: 1})

	re := StepOp(&s, 0, 1, 3, Op{Kind: OpMapCAS, Obj: "kv", Key: "x", Arg: 2, Arg2: 1})
	if !re.Duplicate || !re.OK || re.Val != hit.Val || re.Ver != hit.Ver {
		t.Fatalf("re-issued cas hit: %+v, want duplicate of %+v", re, hit)
	}
	re = StepOp(&s, 0, 1, 4, Op{Kind: OpMapCAS, Obj: "kv", Key: "x", Arg: 3, Arg2: 1})
	if !re.Duplicate || re.OK || re.Val != 2 || re.Ver != miss.Ver {
		t.Fatalf("re-issued cas miss: %+v, want rejected duplicate val 2", re)
	}
	// And the re-issues must not have moved the state.
	if v, _ := objOf(s, "kv").M.Get("x"); v != 1 {
		t.Fatalf("x = %d after re-issues, want 1", v)
	}
}

func TestShardStateCloneObjectIsolation(t *testing.T) {
	var s ShardState
	StepOp(&s, 0, 1, 1, Op{Kind: OpCreate, Obj: "q", Arg: int64(object.TypeQueue)})
	StepOp(&s, 0, 1, 2, Op{Kind: OpQEnq, Obj: "q", Arg: 5})

	c := s.Clone()
	StepOp(&c, 0, 1, 3, Op{Kind: OpQDeq, Obj: "q"})
	StepOp(&c, 0, 1, 4, Op{Kind: OpCreate, Obj: "r", Arg: int64(object.TypeRegister)})

	if objOf(s, "q").Q.Len() != 1 {
		t.Fatal("clone's dequeue drained the original")
	}
	if _, ok := s.Objs.Get("r"); ok {
		t.Fatal("clone's create leaked into the original")
	}
	if objOf(c, "q").Q.Len() != 0 {
		t.Fatal("clone missing its own dequeue")
	}
}

func TestObjectRecordCodecRoundTrip(t *testing.T) {
	recs := []Record{
		{Session: 1, Seq: 2, Shard: 3, Kind: OpCreate, Obj: "kv", Arg: int64(object.TypeMap), Val: int64(object.TypeMap), OK: true, Ver: 1, Epoch: 4},
		{Session: 1, Seq: 3, Shard: 3, Kind: OpMapCAS, Obj: "kv", Key: "some-key", Arg: 9, Arg2: 7, Val: 3, OK: false, Ver: 2},
		{Session: 1, Seq: 4, Shard: 0, Kind: OpQDeq, Obj: "q", Val: -8, OK: true, Ver: 77, Epoch: 1},
	}
	for i, want := range recs {
		got, err := ParseRecordBody(EncodeRecordBody(want))
		if err != nil {
			t.Fatalf("rec %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rec %d: got %+v, want %+v", i, got, want)
		}
	}

	// A root-register mutation is the same layout with a zero-length name.
	leg := Record{Session: 5, Seq: 6, Shard: 1, Kind: OpRegAdd, Obj: RootName, Arg: 2, Val: 10, Ver: 3, Epoch: 1, OK: true}
	body := EncodeRecordBody(leg)
	if len(body) != opObjBodyLen || body[0] != recTypeObjOp {
		t.Fatalf("root add encoded as type %d len %d", body[0], len(body))
	}

	// Atomic group round-trips sub records.
	atomic := Record{Atomic: []Record{recs[0], leg, recs[2]}}
	got, err := ParseRecordBody(EncodeRecordBody(atomic))
	if err != nil {
		t.Fatalf("atomic: %v", err)
	}
	if !reflect.DeepEqual(got, atomic) {
		t.Fatalf("atomic round trip:\n got %+v\nwant %+v", got, atomic)
	}

	// Restart markers are not op records.
	if _, err := ParseRecordBody([]byte{recTypeRestart}); err == nil {
		t.Fatal("restart marker parsed as op record")
	}
}

// TestRecoveryReplaysObjectOps crashes (ungracefully closes) a log full
// of typed-object mutations — including an atomic group and a rejected
// cas — and checks recovery rebuilds identical state, dedup verdicts
// included.
func TestRecoveryReplaysObjectOps(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})

	var s ShardState
	appendOp := func(op Op, session, seq uint64) Outcome {
		t.Helper()
		out := StepOp(&s, 0, session, seq, op)
		if !out.Applied {
			t.Fatalf("op %+v did not apply: %+v", op, out)
		}
		lsn, err := l.Append(Record{
			Session: session, Seq: seq, Shard: 0, Kind: op.Kind, Obj: op.Obj,
			Key: op.Key, Arg: op.Arg, Arg2: op.Arg2, Val: out.Val, OK: out.OK,
			Ver: out.Ver, Epoch: out.Epoch,
		})
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatalf("wait: %v", err)
		}
		return out
	}
	appendOp(Op{Kind: OpCreate, Obj: "kv", Arg: int64(object.TypeMap)}, 9, 1)
	appendOp(Op{Kind: OpMapPut, Obj: "kv", Key: "k", Arg: 4}, 9, 2)
	appendOp(Op{Kind: OpMapCAS, Obj: "kv", Key: "k", Arg: 5, Arg2: 11}, 9, 3) // rejected
	appendOp(Op{Kind: OpCreate, Obj: "q", Arg: int64(object.TypeQueue)}, 9, 4)
	appendOp(Op{Kind: OpQEnq, Obj: "q", Arg: 31}, 9, 5)
	appendOp(Op{Kind: OpQDeq, Obj: "q"}, 9, 6)

	// One atomic group spanning two fresh sub-ops on the same shard.
	subs := []Record{}
	for i, op := range []Op{
		{Kind: OpMapPut, Obj: "kv", Key: "atomic", Arg: 1},
		{Kind: OpQEnq, Obj: "q", Arg: 99},
	} {
		out := StepOp(&s, 0, 9, 7+uint64(i), op)
		subs = append(subs, Record{
			Session: 9, Seq: 7 + uint64(i), Shard: 0, Kind: op.Kind, Obj: op.Obj,
			Key: op.Key, Arg: op.Arg, Arg2: op.Arg2, Val: out.Val, OK: out.OK,
			Ver: out.Ver, Epoch: out.Epoch,
		})
	}
	lsn, err := l.Append(Record{Atomic: subs})
	if err != nil {
		t.Fatalf("append atomic: %v", err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rec := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	got := rec.Shards[0]
	if got.Ver != s.Ver {
		t.Fatalf("recovered ver %d, want %d", got.Ver, s.Ver)
	}
	if v, _ := objOf(got, "kv").M.Get("k"); v != 4 {
		t.Fatalf("kv[k] = %d, want 4", v)
	}
	if v, _ := objOf(got, "kv").M.Get("atomic"); v != 1 {
		t.Fatalf("kv[atomic] = %d, want 1", v)
	}
	if objOf(got, "q").Q.Len() != 1 || objOf(got, "q").Q.At(0) != 99 {
		t.Fatalf("queue state wrong after replay")
	}
	// The rejected cas's verdict survived: re-issuing seq 3 answers the
	// original rejection.
	re := StepOp(&got, 0, 9, 3, Op{Kind: OpMapCAS, Obj: "kv", Key: "k", Arg: 5, Arg2: 11})
	if !re.Duplicate || re.OK {
		t.Fatalf("re-issued rejected cas after recovery: %+v", re)
	}
}

// TestSnapshotCarriesObjects writes a type-7 snapshot, drops the WAL
// tail's relevance by pruning, and recovers from the snapshot alone.
func TestSnapshotCarriesObjects(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})

	var s ShardState
	StepOp(&s, 0, 3, 1, Op{Kind: OpCreate, Obj: "kv", Arg: int64(object.TypeMap)})
	StepOp(&s, 0, 3, 2, Op{Kind: OpMapPut, Obj: "kv", Key: "a", Arg: 7})
	StepOp(&s, 0, 3, 3, Op{Kind: OpCreate, Obj: "snap", Arg: int64(object.TypeSnapshot), Arg2: 2})
	StepOp(&s, 0, 3, 4, Op{Kind: OpSnapUpdate, Obj: "snap", Arg: 5, Arg2: 1})
	miss := StepOp(&s, 0, 3, 5, Op{Kind: OpMapCAS, Obj: "kv", Key: "a", Arg: 1, Arg2: 99})
	if miss.OK {
		t.Fatal("cas expected to miss")
	}
	if err := l.WriteSnapshot(func() map[uint32]ShardState {
		return map[uint32]ShardState{0: s.Clone()}
	}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rec := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	got := rec.Shards[0]
	if v, _ := objOf(got, "kv").M.Get("a"); v != 7 {
		t.Fatalf("kv[a] = %d", v)
	}
	if objOf(got, "snap").Slots[1] != 5 {
		t.Fatalf("snap slots = %v", objOf(got, "snap").Slots)
	}
	// The rejected verdict round-tripped through the snapshot.
	re := StepOp(&got, 0, 3, 5, Op{Kind: OpMapCAS, Obj: "kv", Key: "a", Arg: 1, Arg2: 99})
	if !re.Duplicate || re.OK {
		t.Fatalf("re-issue after snapshot recovery: %+v", re)
	}
}
