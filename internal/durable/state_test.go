package durable

import (
	"bytes"
	"reflect"
	"testing"
)

func TestStepAppliesAndVersions(t *testing.T) {
	var s ShardState
	out := StepOp(&s, 0, 1, 1, rootAdd(5))
	if !out.Applied || out.Val != 5 || out.Ver != 1 {
		t.Fatalf("add: %+v", out)
	}
	out = StepOp(&s, 0, 1, 2, rootSet(40))
	if !out.Applied || out.Val != 40 || out.Ver != 2 {
		t.Fatalf("set: %+v", out)
	}
	out = StepOp(&s, 0, 1, 3, rootAdd(2))
	if !out.Applied || out.Val != 42 || out.Ver != 3 {
		t.Fatalf("add after set: %+v", out)
	}
	if rootVal(s) != 42 || s.Ver != 3 {
		t.Fatalf("state: %+v", s)
	}
}

func TestStepDeduplicatesRetries(t *testing.T) {
	var s ShardState
	first := StepOp(&s, 0, 7, 1, rootAdd(10))
	if !first.Applied {
		t.Fatalf("first: %+v", first)
	}
	// A retry of the same op ID must not move the state and must
	// return the originally acknowledged value and version.
	retry := StepOp(&s, 0, 7, 1, rootAdd(10))
	if retry.Applied || !retry.Duplicate || retry.Val != 10 || retry.Ver != first.Ver {
		t.Fatalf("retry: %+v", retry)
	}
	if rootVal(s) != 10 || s.Ver != 1 {
		t.Fatalf("state moved on duplicate: %+v", s)
	}
	// The session's recent history answers older seqs too — a pipelined
	// burst healing after a connection loss re-issues every un-acked op,
	// and each must get its ORIGINAL value back.
	StepOp(&s, 0, 7, 2, rootAdd(1))
	old := StepOp(&s, 0, 7, 1, rootAdd(10))
	if !old.Duplicate || old.Applied || old.Val != 10 || old.Ver != first.Ver {
		t.Fatalf("windowed retry of seq 1: %+v", old)
	}
	if rootVal(s) != 11 {
		t.Fatalf("windowed retry moved state: %+v", s)
	}
	// A seq that has aged past DedupDepth is stale, not a duplicate.
	for i := 0; i < DedupDepth; i++ {
		StepOp(&s, 0, 7, uint64(3+i), rootAdd(1))
	}
	stale := StepOp(&s, 0, 7, 1, rootAdd(10))
	if !stale.Stale || stale.Applied || stale.Duplicate {
		t.Fatalf("stale: %+v", stale)
	}
	if rootVal(s) != 11+DedupDepth {
		t.Fatalf("stale op moved state: %+v", s)
	}
}

func TestStepHistoryDepthBound(t *testing.T) {
	var s ShardState
	const n = DedupDepth * 2
	for i := 1; i <= n; i++ {
		StepOp(&s, 0, 9, uint64(i), rootAdd(1))
	}
	e, _ := s.Dedup.Get(9)
	if got := 1 + len(e.Recent); got != DedupDepth {
		t.Fatalf("history holds %d ops, want %d", got, DedupDepth)
	}
	// The newest DedupDepth seqs answer as duplicates with their
	// original running totals; anything older is stale.
	for i := n - DedupDepth + 1; i <= n; i++ {
		out := StepOp(&s, 0, 9, uint64(i), rootAdd(1))
		if !out.Duplicate || out.Val != int64(i) {
			t.Fatalf("seq %d: %+v, want duplicate with val %d", i, out, i)
		}
	}
	if out := StepOp(&s, 0, 9, uint64(n-DedupDepth), rootAdd(1)); !out.Stale {
		t.Fatalf("aged-out seq: %+v, want stale", out)
	}
}

func TestStepAnonymousOpsSkipDedup(t *testing.T) {
	var s ShardState
	for i := 0; i < 3; i++ {
		out := StepOp(&s, 0, 0, 0, rootAdd(1))
		if !out.Applied {
			t.Fatalf("anonymous op %d: %+v", i, out)
		}
	}
	if rootVal(s) != 3 || s.Dedup.Len() != 0 {
		t.Fatalf("anonymous ops recorded dedup state: %+v", s)
	}
}

func TestDedupWindowEvictionUnderChurn(t *testing.T) {
	const window = 8
	var s ShardState
	// Sessions churn far past the window: memory must stay bounded and
	// the survivor set must always be the most recently active
	// sessions (largest versions).
	for sess := uint64(1); sess <= 100; sess++ {
		StepOp(&s, window, sess, 1, rootAdd(1))
		if s.Dedup.Len() > window {
			t.Fatalf("after session %d: window holds %d entries, cap %d", sess, s.Dedup.Len(), window)
		}
	}
	if s.Dedup.Len() != window {
		t.Fatalf("window not full after churn: %d", s.Dedup.Len())
	}
	for sess := uint64(100 - window + 1); sess <= 100; sess++ {
		if _, ok := s.Dedup.Get(sess); !ok {
			t.Fatalf("recently active session %d was evicted; window: %v", sess, s.Dedup.SortedKeys())
		}
	}
	// An evicted session's retry is past the exactly-once window: it
	// re-applies (the documented bounded-window tradeoff) rather than
	// erroring or blowing memory.
	out := StepOp(&s, window, 1, 1, rootAdd(1))
	if !out.Applied {
		t.Fatalf("evicted session's retry: %+v", out)
	}

	// Re-touching a session refreshes its version, so churn evicts
	// idle sessions, not busy ones.
	busy := uint64(200)
	StepOp(&s, window, busy, 1, rootAdd(1))
	for sess := uint64(300); sess < 300+window; sess++ {
		e, _ := s.Dedup.Get(busy)
		StepOp(&s, window, busy, e.Seq+1, rootAdd(1))
		StepOp(&s, window, sess, 1, rootAdd(1))
	}
	if _, ok := s.Dedup.Get(busy); !ok {
		t.Fatalf("busy session evicted while idle sessions churned")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := withRoot(ShardState{Ver: 3, Dedup: dedupOf(map[uint64]DedupEntry{4: {Seq: 2, Val: 9, Ver: 3}})}, 9)
	c := s.Clone()
	StepOp(&c, 0, 5, 1, rootAdd(1))
	if rootVal(s) != 9 || s.Ver != 3 || s.Dedup.Len() != 1 {
		t.Fatalf("mutating the clone changed the original: %+v", s)
	}
	if rootVal(c) != 10 || c.Ver != 4 || c.Dedup.Len() != 2 {
		t.Fatalf("clone: %+v", c)
	}
}

func TestStepReplayEquivalence(t *testing.T) {
	// The property recovery depends on: feeding the same op sequence
	// through StepOp yields identical states, dedup windows included.
	type op struct {
		sess, seq uint64
		op        Op
	}
	var ops []op
	for i := 0; i < 50; i++ {
		ops = append(ops, op{sess: uint64(i%5 + 1), seq: uint64(i/5 + 1), op: rootAdd(int64(i))})
		if i%7 == 0 { // sprinkle retries
			ops = append(ops, ops[len(ops)-1])
		}
	}
	var a, b ShardState
	for _, o := range ops {
		StepOp(&a, 3, o.sess, o.seq, o.op)
	}
	for _, o := range ops {
		StepOp(&b, 3, o.sess, o.seq, o.op)
	}
	if !reflect.DeepEqual(a, b) || !bytes.Equal(stateImage(a), stateImage(b)) {
		t.Fatalf("replay diverged:\n a=%x\n b=%x", stateImage(a), stateImage(b))
	}
}
