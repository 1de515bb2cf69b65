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
	// StepOp that applies, in linearization order. The server's WAL
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
	// snapshot objects keyed by name. A mutation clones the
	// one object it touches and rebinds its name, so per-op cost is one
	// O(log₃₂ objects) path copy plus the object's own copy-on-write
	// cost, never O(objects) or O(total data).
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
	// order. Never mutated in place: StepOp builds a fresh slice on every
	// update, so clones sharing the backing array stay consistent.
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
// every speculative op execution, so StepOp may mutate its receiver
// freely: Dedup and Objs are persistent maps that StepOp rebinds, never
// writes, and the Recent slices and object states they point at are
// immutable once published (copy-on-write).
func (s ShardState) Clone() ShardState { return s }

// StepOp executes one mutation against s with dedup: the single source
// of truth for live ops (inside the universal construction's op
// closure) and, through Fold, for WAL replay and replicated apply, so a
// recovered table is bit-identical to the pre-crash one — same values,
// same dedup entries, same evictions.
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
	dedup := session != 0 && seq != 0
	var prev DedupEntry
	var had bool
	if dedup {
		if prev, had = s.Dedup.Get(session); had {
			if seq == prev.Seq {
				return Outcome{Val: prev.Val, OK: prev.OK, Duplicate: true, Ver: prev.Ver, Epoch: s.Epoch}
			}
			if seq < prev.Seq {
				// An older seq: answer from the history if the window
				// still holds it (a pipelined burst healing after a
				// connection loss re-issues every un-acked op, oldest
				// included), stale only once it has aged out.
				for _, old := range prev.Recent {
					if old.Seq == seq {
						return Outcome{Val: old.Val, OK: old.OK, Duplicate: true, Ver: old.Ver, Epoch: s.Epoch}
					}
				}
				return Outcome{Stale: true}
			}
		}
	}
	val, ok := applyOp(s, op)
	s.Ver++
	if dedup {
		entry := DedupEntry{Seq: seq, Val: val, OK: ok, Ver: s.Ver}
		if had {
			// Push the superseded newest op into the history: a fresh
			// slice every time (never append to prev.Recent in place —
			// speculative clones share its backing array).
			keep := len(prev.Recent)
			if keep > DedupDepth-2 {
				keep = DedupDepth - 2
			}
			entry.Recent = make([]DedupOp, 0, keep+1)
			entry.Recent = append(entry.Recent, DedupOp{Seq: prev.Seq, Val: prev.Val, OK: prev.OK, Ver: prev.Ver})
			entry.Recent = append(entry.Recent, prev.Recent[:keep]...)
		}
		s.Dedup = s.Dedup.Set(session, entry)
		if window > 0 && s.Dedup.Len() > window {
			evictOldest(s)
		}
	}
	return Outcome{Val: val, OK: ok, Applied: true, Ver: s.Ver, Epoch: s.Epoch}
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
// runs on a private copy, because StepOp has already mutated its
// argument by the time a divergence is visible.
func Fold(s *ShardState, window int, r Record) Verdict {
	switch {
	case r.Epoch < s.Epoch:
		return Fenced
	case r.Ver <= s.Ver && r.Epoch > s.Epoch:
		return Rewrite
	case r.Ver <= s.Ver:
		return Covered
	case r.Ver != s.Ver+1:
		return Gap
	}
	next := s.Clone()
	next.Epoch = r.Epoch
	out := StepOp(&next, window, r.Session, r.Seq, Op{Kind: r.Kind, Obj: r.Obj, Key: r.Key, Arg: r.Arg, Arg2: r.Arg2})
	if !out.Applied || out.Val != r.Val || out.Ver != r.Ver || out.OK != r.OK {
		return Diverged
	}
	adopted := r.Epoch > s.Epoch
	*s = next
	if adopted {
		return Adopted
	}
	return Applied
}

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
	if r.Seq == e.Seq {
		return e.Ver != r.Ver || e.Val != r.Val || e.OK != r.OK
	}
	for _, old := range e.Recent {
		if old.Seq == r.Seq {
			return old.Ver != r.Ver || old.Val != r.Val || old.OK != r.OK
		}
	}
	return false // aged out of the per-session history window
}

// applyOp executes op's state change on s, returning the result value
// and the op-level verdict. It must be fully deterministic: replay
// re-executes it and cross-checks the recorded (Val, OK, Ver).
func applyOp(s *ShardState, op Op) (int64, bool) {
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
	// mutate clones the target object and republishes it, keeping the
	// previously published *State immutable for clones that share it.
	mutate := func() *object.State {
		c := cur.Clone()
		s.Objs = s.Objs.Set(op.Obj, c)
		return c
	}
	switch op.Kind {
	case OpRegAdd:
		if cur.Type != object.TypeRegister {
			return 0, false
		}
		c := mutate()
		c.Reg += op.Arg
		return c.Reg, true
	case OpRegSet:
		if cur.Type != object.TypeRegister {
			return 0, false
		}
		mutate().Reg = op.Arg
		return op.Arg, true
	case OpMapPut:
		if cur.Type != object.TypeMap {
			return 0, false
		}
		mutate().M.Put(op.Key, op.Arg)
		return op.Arg, true
	case OpMapCAS:
		if cur.Type != object.TypeMap {
			return 0, false
		}
		// A missing key compares as 0, so cas(key, 0→v) initializes.
		cv, _ := cur.M.Get(op.Key)
		if cv != op.Arg2 {
			return cv, false // rejected: report the observed value
		}
		mutate().M.Put(op.Key, op.Arg)
		return op.Arg, true
	case OpMapDel:
		if cur.Type != object.TypeMap {
			return 0, false
		}
		if _, present := cur.M.Get(op.Key); !present {
			return 0, false
		}
		old, _ := mutate().M.Delete(op.Key)
		return old, true
	case OpQEnq:
		if cur.Type != object.TypeQueue {
			return 0, false
		}
		c := mutate()
		c.Q.PushBack(op.Arg)
		return int64(c.Q.Len()), true
	case OpQDeq:
		if cur.Type != object.TypeQueue {
			return 0, false
		}
		if cur.Q.Len() == 0 {
			return 0, false
		}
		v, _ := mutate().Q.PopFront()
		return v, true
	case OpSnapUpdate:
		if cur.Type != object.TypeSnapshot {
			return 0, false
		}
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
