package durable

import (
	"kexclusion/internal/object"
	"kexclusion/internal/pmap"
)

// ShardState is the value type the server's resilient.Shared table
// holds per shard: the named-object table plus the durability
// bookkeeping that must travel with it through the universal
// construction's clone-and-CAS cycle. Keeping the dedup window inside
// the shard state is what makes "check for a duplicate, then apply" a
// single linearized step — the wait-free core's helpers may execute an
// op closure several times against cloned copies, and only the clone
// that wins the CAS becomes real, so any bookkeeping outside the state
// would be charged once per speculative execution instead of once per
// applied op.
type ShardState struct {
	// Ver counts applied mutations: it increments by exactly one per
	// mutation that applies, in linearization order. The server's WAL
	// sequencer appends records in Ver order, so Ver is also the
	// record's position in the shard's durable history.
	Ver uint64
	// Epoch fences forked histories across failovers: a promoted
	// primary mints Epoch+1 for the shards it takes over, and every
	// reconciliation (replicated applies, state-image installs,
	// promotion catch-up, replay) orders histories by (Epoch, Ver)
	// lexicographically — a higher epoch wins even at a lower version,
	// because version numbers on a deposed primary keep inflating with
	// writes that never reached quorum. StepOp never changes it; only
	// promotion and state installs do.
	Epoch uint64
	// Objs is the shard's named-object table: registers (the root
	// register among them, under RootName), maps, queues, and
	// snapshot objects keyed by name. A run (see Run) clones an object
	// on its first write and rebinds its name, then writes the private
	// clone in place, so per-run cost is one O(log₃₂ objects) path copy
	// per object touched plus each op's own copy-on-write cost, never
	// O(objects) or O(total data).
	Objs object.Table
	// Dedup maps a client session identity to its recent ops. One
	// entry per session, holding the newest op inline plus a short
	// history (see DedupDepth): a pipelined client can have several
	// un-acked ops in flight at once, and after a mid-burst connection
	// loss it re-issues all of them — each must be recognized, not just
	// the newest.
	Dedup pmap.Map[uint64, DedupEntry, pmap.Uint64Hash]
}

// DedupDepth is how many recent ops per (session, shard) the dedup
// window recognizes: the newest plus DedupDepth-1 older ones. A
// re-issued op older than that answers Stale — so a client pipelining
// deeper than DedupDepth onto one shard loses exactly-once coverage
// for the burst's oldest ops; bound pipeline depth accordingly.
const DedupDepth = 32

// RootName is the reserved name of each shard's root register: a
// TypeRegister object that exists from birth at 0 (Objs binds the name
// at its first mutation) and that OpCreate can neither create nor
// retype. The wire refuses an empty name on every object kind, so only
// get/add/set reach it, spelled by the server as reg.* on this name.
const RootName = ""

// rootAtBirth is the root register before its first mutation. Published
// object states are immutable, so every shard shares the one.
var rootAtBirth = &object.State{Type: object.TypeRegister}

// DedupEntry records a session's recent ops on this shard: the newest
// inline (Seq/Val/Ver), older ones in Recent, newest first.
type DedupEntry struct {
	// Seq is the newest op's client-assigned sequence number.
	Seq uint64
	// Val is the result that was (or will be) acknowledged; a retry of
	// the same op is answered with it.
	Val int64
	// OK is the op-level verdict that accompanied Val: false for a
	// logically rejected mutation (failed cas, dequeue on empty, type
	// conflict). A retry must be answered with the original verdict —
	// re-evaluating it against moved state would break exactly-once.
	OK bool
	// Ver is the shard version the newest op produced — the eviction
	// key (the window drops the longest-idle session first) and the WAL
	// position a duplicate must wait on before it can be
	// re-acknowledged.
	Ver uint64
	// Recent holds up to DedupDepth-1 older ops in descending seq
	// order. Never mutated in place once published: a run copies it at
	// a stretch's first op and shifts only its own copy, so clones
	// sharing the backing array stay consistent.
	Recent []DedupOp
}

// DedupOp is one historical op in a DedupEntry.
type DedupOp struct {
	Seq uint64
	Val int64
	OK  bool
	Ver uint64
}

// Op is one typed mutation against an object of a shard. It is the
// in-memory twin of a WAL op record's mutation fields.
type Op struct {
	// Kind selects the mutation.
	Kind OpKind
	// Obj names the target object (RootName for the root register).
	Obj string
	// Key is the map key (map kinds only).
	Key string
	// Arg is the primary argument: delta, value, enqueue payload,
	// object type for creates.
	Arg int64
	// Arg2 is the secondary argument: cas expected value, snapshot
	// slot index, snapshot slot count for creates.
	Arg2 int64
}

// Outcome reports what StepOp did with an op.
type Outcome struct {
	// Val is the value to acknowledge: the op's result when Applied, the
	// originally recorded value when Duplicate.
	Val int64
	// OK is the op-level verdict (false when the op was logged as
	// logically rejected — cas mismatch, empty dequeue, missing object,
	// type conflict).
	OK bool
	// Applied: the op executed and moved the state (Ver is its new
	// shard version, to be logged).
	Applied bool
	// Duplicate: the op ID matched the session's recorded entry; the
	// state did not move and Ver is the *original* application's
	// version.
	Duplicate bool
	// Stale: the op's sequence number is below the session's recorded
	// entry — a protocol error (the client already moved past it).
	Stale bool
	// Ver: shard version of the (original) application. Zero when
	// Stale.
	Ver uint64
	// Epoch is the shard's epoch at the op's linearization point — the
	// epoch its WAL record must carry, and the fencing token the
	// append sequencer and the quorum gate compare against to detect
	// that a state install superseded the op before it was
	// acknowledged. Zero when Stale.
	Epoch uint64
}

// Clone copies the state in O(1). resilient.Shared calls it before
// every speculative op execution, so a Run may mutate its receiver
// freely: Dedup and Objs are persistent maps that it rebinds, never
// writes, and the Recent slices and object states they point at are
// immutable once published (copy-on-write) — a run writes in place only
// the objects it cloned itself.
func (s ShardState) Clone() ShardState { return s }

// StepOp executes one mutation against s with dedup: a run of one (see
// Run), the single source of truth for live ops and, through Fold, for
// WAL replay and replicated apply, so a recovered table is
// bit-identical to the pre-crash one — same values, same dedup entries,
// same evictions.
//
// session==0 or seq==0 disables dedup for the op (anonymous clients,
// idempotent kinds). window bounds the dedup map; <=0 means unbounded.
//
// A mutation with an op ID ALWAYS applies (Ver advances and a record
// is logged) even when it is logically rejected (OK false: cas
// mismatch, dequeue on empty, missing object, type conflict). The
// rejection is part of the linearized history: a retry of the same op
// ID is answered with the original verdict from the dedup window, not
// re-evaluated against state that has since moved — exactly-once for
// failures, not just successes.
func StepOp(s *ShardState, window int, session, seq uint64, op Op) Outcome {
	r := NewRun(window)
	out := r.Step(s, session, seq, op)
	r.End(s)
	return out
}

// Run steps consecutive mutations of one shard on one private state s,
// passed to every Step and to End, exactly as StepOp would one at a time
// — every Outcome, and after End every byte of *s — but publishes
// nothing between them: an object is cloned on its first write in the
// run and written in place afterwards, and a session's dedup entry is
// written once per stretch of its ops (a session new to the window at
// once, so eviction order is unchanged).
type Run struct {
	window int
	owned  [8]*object.State // cloned by the run; past 8, a clone per write as in StepOp
	nOwned int
	sess   uint64     // the session whose entry the run holds
	entry  DedupEntry // sess's entry as the window will hold it
	dirty  bool       // entry is ahead of the window, and entry.Recent is the run's
}

// NewRun starts a run; End must close it before its state is published.
func NewRun(window int) Run { return Run{window: window} }

// Step executes one mutation of the run on s, as StepOp specifies.
func (r *Run) Step(s *ShardState, session, seq uint64, op Op) Outcome {
	dedup := session != 0 && seq != 0
	if dedup && session != r.sess {
		r.flush(s)
		r.sess = 0
		if e, ok := s.Dedup.Get(session); ok {
			r.sess, r.entry = session, e
		}
	}
	known := dedup && session == r.sess
	if known && seq <= r.entry.Seq {
		// A re-issue (a burst healing after a connection loss re-issues
		// every un-acked op): answered from history, stale once aged out.
		if old, ok := r.entry.find(seq); ok {
			return Outcome{Val: old.Val, OK: old.OK, Duplicate: true, Ver: old.Ver, Epoch: s.Epoch}
		}
		return Outcome{Stale: true}
	}
	val, ok := r.applyOp(s, op)
	s.Ver++
	switch {
	case known:
		r.push(DedupOp{Seq: seq, Val: val, OK: ok, Ver: s.Ver})
	case dedup:
		r.sess, r.entry = session, DedupEntry{Seq: seq, Val: val, OK: ok, Ver: s.Ver}
		s.Dedup = s.Dedup.Set(session, r.entry)
		if r.window > 0 && s.Dedup.Len() > r.window {
			evictOldest(s)
		}
	}
	return Outcome{Val: val, OK: ok, Applied: true, Ver: s.Ver, Epoch: s.Epoch}
}

// End writes the pending dedup entry and gives up the run's objects:
// *s is the state to publish, immutable from here on.
func (r *Run) End(s *ShardState) {
	r.flush(s)
	for _, o := range r.owned[:r.nOwned] {
		o.Q.Seal()
	}
}

// push makes op the session's newest, the superseded one heading its
// history of DedupDepth-1. The window's history is shared with published
// states: a stretch's first push copies it (as does one that grows it),
// later ones shift the copy in place.
func (r *Run) push(op DedupOp) {
	e := &r.entry
	if n := min(len(e.Recent)+1, DedupDepth-1); !r.dirty || n > cap(e.Recent) {
		recent := make([]DedupOp, n)
		copy(recent[1:], e.Recent)
		e.Recent = recent
	} else {
		copy(e.Recent[1:], e.Recent)
	}
	e.Recent[0] = DedupOp{Seq: e.Seq, Val: e.Val, OK: e.OK, Ver: e.Ver}
	e.Seq, e.Val, e.OK, e.Ver, r.dirty = op.Seq, op.Val, op.OK, op.Ver, true
}

// flush writes the pending entry, publishing its history.
func (r *Run) flush(s *ShardState) {
	if r.dirty {
		s.Dedup = s.Dedup.Set(r.sess, r.entry)
		r.dirty = false
	}
}

// Ahead reports whether history position (epoch, ver) lies strictly past
// (ofEpoch, ofVer). Every reconciliation ranks shard histories this way
// — lexicographically, epoch first (see ShardState.Epoch) — and does it
// here, so "comparing bare versions" has one place to be wrong.
func Ahead(epoch, ver, ofEpoch, ofVer uint64) bool {
	return epoch > ofEpoch || (epoch == ofEpoch && ver > ofVer)
}

// Verdict is how a logged record met a shard's (epoch, version).
type Verdict uint8

const (
	// Applied: the shard's next version in its own epoch. The op was
	// re-executed, agreed with the record, and *s moved.
	Applied Verdict = iota
	// Adopted: the next version at a HIGHER epoch — a promotion seen
	// through the log. As Applied, and *s took the record's epoch.
	Adopted
	// Covered: at or below s.Ver in s's epoch — already inside the state
	// (a snapshot image read after its cover LSN, a re-delivered batch).
	Covered
	// Fenced: from a lower epoch — the tail of a fork that a state
	// install superseded. Never data.
	Fenced
	// Gap: past the next version; the record stream cannot bridge to s.
	Gap
	// Rewrite: a higher epoch at or below s.Ver — it would rewrite
	// history without the install snapshot that must fence the old line.
	Rewrite
	// Diverged: the next version, but re-execution disagrees with the
	// recorded (Val, OK, Ver).
	Diverged
)

// Fold is the one rule by which a logged mutation r meets a shard's
// state: recovery, a follower's replicated apply and the members of an
// atomic container (folded one by one, each against its own shard) all
// classify through it and differ only in what they do with the verdict.
// *s moves on Applied and Adopted and is untouched otherwise: the step
// runs on a private copy, because the op has already mutated it by the
// time a divergence is visible.
func Fold(s *ShardState, window int, r Record) Verdict {
	next, run := *s, NewRun(window)
	v := run.fold(&next, r)
	if v == Applied || v == Adopted {
		run.End(&next)
		*s = next
	}
	return v
}

// fold is Fold's rule on the run: a record that is not the shard's next
// version is refused (or Covered) on its coordinates alone, and *s is
// left current, the run's pending dedup entry written; the next one is
// re-executed on *s and must agree with what it recorded.
func (run *Run) fold(s *ShardState, r Record) Verdict {
	var v Verdict
	switch {
	case r.Epoch < s.Epoch:
		v = Fenced
	case r.Ver <= s.Ver && r.Epoch > s.Epoch:
		v = Rewrite
	case r.Ver <= s.Ver:
		v = Covered
	case r.Ver != s.Ver+1:
		v = Gap
	}
	if v != Applied {
		run.flush(s)
		return v
	}
	adopted := r.Epoch > s.Epoch
	s.Epoch = r.Epoch
	out := run.Step(s, r.Session, r.Seq, Op{Kind: r.Kind, Obj: r.Obj, Key: r.Key, Arg: r.Arg, Arg2: r.Arg2})
	switch {
	case !out.Applied || out.Val != r.Val || out.Ver != r.Ver || out.OK != r.OK:
		return Diverged
	case adopted:
		return Adopted
	}
	return Applied
}

// FoldRun folds recs, consecutive records of one shard in log order,
// onto one private state through one Run: every verdict, and after End
// every byte of the state, is what Fold gives one record at a time, but
// an object is cloned once per run and a session's history copied once
// per stretch of its ops, not once per record.
type FoldRun struct {
	recs []Record
	next int        // recs[next] is the record Fold takes next
	base ShardState // the state before recs[0]
	run  Run
}

// NewFoldRun starts folding recs; End must close it before its state is
// published.
func NewFoldRun(window int, recs []Record) FoldRun {
	return FoldRun{recs: recs, run: NewRun(window)}
}

// Fold folds the next record onto *s and returns its verdict. As with
// Fold, *s moves on Applied and Adopted only: after any other verdict it
// is exactly the state the last applied record left, current enough to
// cross-check a Covered record against (Contradicts), and the run may
// go on.
func (f *FoldRun) Fold(s *ShardState) Verdict {
	if f.next == 0 {
		f.base = *s
	}
	f.next++
	v := f.run.fold(s, f.recs[f.next-1])
	if v == Diverged {
		// The op ran on *s itself before the disagreement showed: fold
		// what came before it again, from the base.
		*s, f.run = f.base, NewRun(f.run.window)
		for _, r := range f.recs[:f.next-1] {
			f.run.fold(s, r)
		}
		f.run.flush(s)
	}
	return v
}

// End closes the run: *s is the state to publish.
func (f *FoldRun) End(s *ShardState) { f.run.End(s) }

// Contradicts cross-checks a Covered record against the dedup window:
// if the window still remembers the record's op ID, its recorded
// version and value must match; if the window remembers the session
// but has never seen an op this new, s's history cannot contain the
// record at all — despite claiming its version range — which is a
// fork. Ops that aged out of the window (or carried no ID) pass: the
// check is best-effort defense in depth behind epoch fencing, not a
// proof.
func (s ShardState) Contradicts(r Record) bool {
	if r.Session == 0 || r.Seq == 0 {
		return false
	}
	e, ok := s.Dedup.Get(r.Session)
	if !ok {
		return false // session evicted: cannot check
	}
	if r.Seq > e.Seq {
		return true // s claims r.Ver yet never saw this op
	}
	old, ok := e.find(r.Seq) // not ok: aged out of the history window
	return ok && (old.Ver != r.Ver || old.Val != r.Val || old.OK != r.OK)
}

// find returns the op seq names if e still remembers it.
func (e DedupEntry) find(seq uint64) (DedupOp, bool) {
	if e.Seq == seq {
		return DedupOp{Seq: e.Seq, Val: e.Val, OK: e.OK, Ver: e.Ver}, true
	}
	for _, old := range e.Recent {
		if old.Seq == seq {
			return old, true
		}
	}
	return DedupOp{}, false
}

// opClass is the object class each mutation kind applies to.
var opClass = [...]object.Type{
	OpRegAdd: object.TypeRegister, OpRegSet: object.TypeRegister,
	OpMapPut: object.TypeMap, OpMapCAS: object.TypeMap, OpMapDel: object.TypeMap,
	OpQEnq: object.TypeQueue, OpQDeq: object.TypeQueue, OpSnapUpdate: object.TypeSnapshot,
}

// applyOp executes op's state change on s, returning the
// result value and the op-level verdict. It must be fully
// deterministic: replay re-executes it and cross-checks the recorded
// (Val, OK, Ver).
func (r *Run) applyOp(s *ShardState, op Op) (int64, bool) {
	cur, ok := s.Objs.Get(op.Obj)
	if op.Kind == OpCreate {
		if op.Obj == RootName {
			return 0, false // the root register is born, never created
		}
		t := object.Type(op.Arg)
		if ok {
			// Idempotent: re-creating with the same type succeeds and
			// reports the type; a different type is a conflict.
			return int64(cur.Type), cur.Type == t
		}
		if !t.Valid() {
			return 0, false
		}
		slots := int(op.Arg2)
		if t == object.TypeSnapshot && (slots < 1 || slots > object.MaxSnapSlots) {
			return 0, false
		}
		s.Objs = s.Objs.Set(op.Obj, object.New(t, slots))
		return int64(t), true
	}
	if !ok {
		if op.Obj != RootName {
			return 0, false
		}
		cur = rootAtBirth
	}
	// mutate returns the target object to write: the run's own copy if it
	// has one, else a clone bound under the name — keeping the published
	// *State immutable for the clones that share it.
	mutate := func() *object.State {
		for _, o := range r.owned[:r.nOwned] {
			if o == cur {
				return cur
			}
		}
		c := cur.Clone()
		if r.nOwned < len(r.owned) {
			r.owned[r.nOwned], r.nOwned = c, r.nOwned+1
		}
		s.Objs = s.Objs.Set(op.Obj, c)
		return c
	}
	if int(op.Kind) >= len(opClass) || cur.Type != opClass[op.Kind] {
		return 0, false // a class conflict (or a kind no class has)
	}
	switch op.Kind {
	case OpRegAdd:
		c := mutate()
		c.Reg += op.Arg
		return c.Reg, true
	case OpRegSet:
		mutate().Reg = op.Arg
		return op.Arg, true
	case OpMapPut:
		mutate().M.Put(op.Key, op.Arg)
		return op.Arg, true
	case OpMapCAS:
		// A missing key compares as 0, so cas(key, 0→v) initializes.
		cv, _ := cur.M.Get(op.Key)
		if cv != op.Arg2 {
			return cv, false // rejected: report the observed value
		}
		mutate().M.Put(op.Key, op.Arg)
		return op.Arg, true
	case OpMapDel:
		if _, present := cur.M.Get(op.Key); !present {
			return 0, false
		}
		old, _ := mutate().M.Delete(op.Key)
		return old, true
	case OpQEnq:
		c := mutate()
		c.Q.PushBack(op.Arg)
		return int64(c.Q.Len()), true
	case OpQDeq:
		if cur.Q.Len() == 0 {
			return 0, false
		}
		v, _ := mutate().Q.PopFront()
		return v, true
	case OpSnapUpdate:
		slot := op.Arg2
		if slot < 0 || slot >= int64(len(cur.Slots)) {
			return 0, false
		}
		mutate().Slots[slot] = op.Arg
		return op.Arg, true
	}
	return 0, false
}

// evictOldest drops the entry with the smallest shard version — the
// session that has gone longest without touching this shard. Ties are
// impossible: versions are unique per shard. It scans the whole window,
// but runs only when a session new to a full window arrives, not per
// op.
func evictOldest(s *ShardState) {
	var victim uint64
	first := true
	var minVer uint64
	s.Dedup.Each(func(sess uint64, e DedupEntry) {
		if first || e.Ver < minVer {
			victim, minVer, first = sess, e.Ver, false
		}
	})
	s.Dedup = s.Dedup.Delete(victim)
}
