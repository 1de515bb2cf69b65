package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kexclusion/internal/core"
	"kexclusion/internal/durable"
	"kexclusion/internal/object"
	"kexclusion/internal/obs"
	"kexclusion/internal/resilient"
	"kexclusion/internal/wire"
)

// table is the server's sharded object store: each shard is one of the
// paper's resilient shared objects — a wait-free k-process core inside
// an (N, k)-assignment wrapper — holding a durable.ShardState (object
// table, mutation version, dedup window). A session applies an operation
// under its leased process identity, so at most k sessions are inside
// any shard's wait-free core at a time, and a session that dies
// holding a slot (a disconnected client) costs that shard one of its k
// slots, never overall progress.
//
// The dedup window travels inside the shard state on purpose: the
// universal construction's helpers may execute an op closure several
// times against cloned states, and only the clone that wins the CAS
// becomes real — so "is this op ID a retry, and if not, apply it" is a
// single linearized step with no bookkeeping charged to speculative
// executions. Durability hangs off the same mechanism: every applied
// mutation gets the shard's next version number, and the WAL sequencer
// admits appends strictly in version order, making WAL order equal
// linearization order per shard. That gives prefix durability — a
// durable record implies every earlier mutation of its shard is
// durable — which is what lets a crash drop only un-acknowledged tail
// writes.
//
// Each shard gets its own obs.Metrics sink shared by every layer of
// that shard's stack (k-exclusion, renaming, universal construction),
// so the stats endpoint can show per-shard contention rather than one
// blurred aggregate.
type table struct {
	shards []tableShard
	window int
	log    *durable.Log // nil without -data-dir: dedup only, in memory
	// batchMu is the atomic-group gate: runs of mutations hold it
	// shared across their Apply, an atomic group holds it exclusively
	// from validation through commit — so the states a group validated
	// against cannot move before it installs the stepped ones. Reads
	// skip it entirely (they only Peek committed cells), and the lock
	// order with the server's replMu is replMu → batchMu.
	batchMu sync.RWMutex
	// dupes counts mutations answered from the dedup window; runs and
	// runOps count applied runs and their mutations.
	dupes, runs, runOps atomic.Int64
}

type tableShard struct {
	obj *resilient.Shared[durable.ShardState]
	m   *obs.Metrics
	seq *appendSequencer
}

// tableConfig carries the durability wiring into newTable.
type tableConfig struct {
	window    int
	log       *durable.Log
	recovered map[uint32]durable.ShardState
}

// newTable builds shards independent resilient objects, each with the
// impl k-exclusion at its admission edge, seeded from recovered state
// when the server restarted from a data directory.
func newTable(n, k, shards int, impl core.Constructor, tc tableConfig) *table {
	t := &table{
		shards: make([]tableShard, shards),
		window: tc.window,
		log:    tc.log,
	}
	for i := range t.shards {
		m := obs.New()
		excl := impl.New(n, k, core.WithMetrics(m))
		initial := tc.recovered[uint32(i)]
		t.shards[i] = tableShard{
			obj: resilient.NewSharedConfig(n, k, initial, durable.ShardState.Clone,
				resilient.Config{Excl: excl, Metrics: m}),
			m:   m,
			seq: newAppendSequencer(initial),
		}
	}
	return t
}

// snapshots copies every shard's metrics sink.
func (t *table) snapshots() []obs.Snapshot {
	out := make([]obs.Snapshot, len(t.shards))
	for i := range t.shards {
		out[i] = t.shards[i].m.Snapshot()
	}
	return out
}

// peekAll images every shard for a snapshot. Peeked states are
// immutable committed cells, so reading them (and their dedup maps)
// races nothing.
func (t *table) peekAll() map[uint32]durable.ShardState {
	out := make(map[uint32]durable.ShardState, len(t.shards))
	for i := range t.shards {
		out[uint32(i)] = t.shards[i].obj.Peek()
	}
	return out
}

// applyRun applies a run — consecutive mutations of one shard, at most
// durable.DedupDepth, cut from one pipeline by serveCycle — as process p
// under ctx, up to but not including the durability wait, and answers
// each member. The run is ONE application of the universal construction
// (one slot, one announce, one clone, stepped by a durable.Run), so every
// member linearizes at the run's install, in pipeline order. gate, when
// non-nil, is invoked per member inside it, where crash-fault tests stall
// a session holding a slot. If ctx expires while p still waits for its
// slot, every member answers StatusTimeout: nothing was applied, all of
// it is safe to retry. Once p holds its slot the run completes.
//
// The caller waits once for the pipeline's frontier (c.await). The
// applied members' records are appended in one logInOrder turn over the
// run's version span. A duplicate's frontier is the log end once its
// original is appended (a re-ack cannot be lost to a crash the original
// ack would have survived), and it waits for that only after the run's
// own turn — the original may be a member of this very run. If the
// original's append failed, the log is poisoned and the wait refuses.
func (t *table) applyRun(ctx context.Context, p int, run []wire.Request, gate func(shard uint32, kind wire.Kind), c *cycle) []wire.Response {
	shard, resps := run[0].Shard, make([]wire.Response, len(run))
	if int(shard) >= len(t.shards) || shard >= 1<<31 {
		for i, req := range run {
			resps[i] = errResponse(req.ID, wire.StatusBadShard,
				fmt.Sprintf("shard %d out of range [0,%d)", shard, len(t.shards)))
		}
		return resps
	}
	sh, ops := t.shards[shard], make([]durable.Op, len(run))
	for i, req := range run {
		ops[i], _ = durableOp(req)
	}

	// Shared hold on the atomic-group gate: a group validating its
	// scratch states cannot interleave with this run's commit.
	t.batchMu.RLock()
	v, err := sh.obj.ApplyCtx(ctx, p, func(s durable.ShardState) (durable.ShardState, any) {
		outs, r := make([]durable.Outcome, len(run)), durable.NewRun(t.window)
		for i, req := range run {
			if gate != nil {
				gate(shard, req.Kind)
			}
			outs[i] = r.Step(&s, req.Session, req.Seq, ops[i])
		}
		r.End(&s)
		return s, outs
	})
	t.batchMu.RUnlock()
	if err != nil {
		for i, req := range run {
			resps[i] = timeoutResponse(req.ID)
		}
		return resps
	}
	t.runs.Add(1)
	t.runOps.Add(int64(len(run)))
	outs := v.([]durable.Outcome)
	var recs []durable.Record
	for i, out := range outs {
		if req := run[i]; out.Applied && t.log != nil {
			recs = append(recs, durable.Record{
				Session: req.Session, Seq: req.Seq, Shard: shard,
				Kind: ops[i].Kind, Obj: ops[i].Obj, Key: ops[i].Key, Arg: ops[i].Arg, Arg2: ops[i].Arg2,
				Val: out.Val, Ver: out.Ver, Epoch: out.Epoch, OK: out.OK,
			})
		}
	}
	var lsn uint64
	if len(recs) > 0 {
		lsn, err = t.logInOrder([]span{{shard, recs[0].Ver, recs[len(recs)-1].Ver, recs[0].Epoch}}, recs...)
	}
	for i, req := range run {
		out := outs[i]
		resps[i] = wire.Response{ID: req.ID, Status: wire.StatusOK, Flags: foundFlag(req.Kind, out.OK), Value: out.Val}
		switch {
		case out.Stale:
			resps[i] = errResponse(req.ID, wire.StatusBadRequest,
				fmt.Sprintf("stale op: session %#x already moved past seq %d", req.Session, req.Seq))
		case out.Applied && err != nil:
			resps[i] = errResponse(req.ID, wire.StatusInternal, err.Error())
		case out.Applied:
			c.fresh++
			if t.log != nil {
				c.await(i, shard, out.Epoch, lsn)
			}
		default: // a duplicate: its original is at shard version out.Ver
			sh.m.DupeHit()
			t.dupes.Add(1)
			resps[i].Flags |= wire.FlagDuplicate
			if t.log != nil && !sh.seq.waitAppended(out.Ver, out.Epoch) {
				resps[i] = errResponse(req.ID, wire.StatusInternal,
					"original write superseded by a replication state install; retry")
			} else if t.log != nil {
				c.await(i, shard, out.Epoch, t.log.End())
			}
		}
	}
	return resps
}

// errSuperseded answers a refused turn (see waitTurn). The in-memory
// application was discarded with the fork; the client retries and
// either dedups against the installed state or re-applies.
var errSuperseded = errors.New("write superseded by a replication state install before it was logged; retry")

// logInOrder is the one way records reach the WAL: it takes the turn of
// every span, in the order given, appends recs in order, and releases
// every span — so the log stays a prefix-faithful transcript of each
// shard it holds, whether the records are a primary's run, a group's
// container or a follower's verbatim copy of either.
//
// A refused turn appends nothing and answers errSuperseded; the spans
// are still released, because the turns already taken would otherwise
// park every later writer of those shards forever. A caller whose
// in-memory effect outlives the refusal (a group on several shards)
// must then fence it under a snapshot: the released versions are
// otherwise a hole in the WAL.
//
// A failed append releases them too. The op IS applied in memory; only
// its durability failed. Moving on keeps later writers from wedging in
// waitTurn, and is safe because the failed Append poisoned the log:
// every later append (which would otherwise persist a version past the
// hole) and every durability wait now fails, so no mutation is acked as
// durable after this point — the client sees internal errors, never a
// durable ack the next recovery would contradict.
func (t *table) logInOrder(spans []span, recs ...durable.Record) (lsn uint64, err error) {
	for _, sp := range spans {
		if !t.shards[sp.shard].seq.waitTurn(sp.first, sp.epoch) {
			err = errSuperseded
			break
		}
	}
	for i := 0; err == nil && i < len(recs); i++ {
		lsn, err = t.log.Append(recs[i])
	}
	t.release(spans)
	return lsn, err
}

// release admits the version after each span: what it covers is
// accounted for, by the append just made or by the snapshot a caller
// that fences instead of appending is about to write.
func (t *table) release(spans []span) {
	for _, sp := range spans {
		t.shards[sp.shard].seq.install(sp.last, sp.epoch)
	}
}

// objName is where the wire's root kinds meet the object table: get,
// add and set carry no name and spell reg.get, reg.add and reg.set on
// the shard's root register (durableOp and readFast pair the kinds).
// Only the response differs: a root kind never carries FlagFound.
func objName(req wire.Request) string {
	if req.Kind.IsObject() {
		return req.Obj
	}
	return durable.RootName
}

// durableOp maps a mutation request onto the durable op vocabulary.
// Reads and control kinds report false — they never reach StepOp.
func durableOp(req wire.Request) (durable.Op, bool) {
	var kind durable.OpKind
	switch req.Kind {
	case wire.KindCreate:
		kind = durable.OpCreate
	case wire.KindAdd, wire.KindRegAdd:
		kind = durable.OpRegAdd
	case wire.KindSet, wire.KindRegSet:
		kind = durable.OpRegSet
	case wire.KindMapPut:
		kind = durable.OpMapPut
	case wire.KindMapCAS:
		kind = durable.OpMapCAS
	case wire.KindMapDel:
		kind = durable.OpMapDel
	case wire.KindQEnq:
		kind = durable.OpQEnq
	case wire.KindQDeq:
		kind = durable.OpQDeq
	case wire.KindSnapUpdate:
		kind = durable.OpSnapUpdate
	default:
		return durable.Op{}, false
	}
	return durable.Op{Kind: kind, Obj: objName(req), Key: req.Key, Arg: req.Arg, Arg2: req.Arg2}, true
}

// foundFlag lifts an outcome's logical verdict into the response flags
// for object kinds; control and root-register kinds never carry it.
func foundFlag(k wire.Kind, ok bool) wire.Flags {
	if k.IsObject() && ok {
		return wire.FlagFound
	}
	return 0
}

// readFast answers a read — every read, the root register's get
// included — from the shard's committed state: no slot acquisition, no
// WAL, no quorum. Peek returns the cell the universal construction last
// committed, so the read linearizes at that commit: valid single-copy
// semantics for a single node. In cluster mode the caller has already
// checked shard ownership, which bounds the staleness a fenced
// ex-primary could serve to one lease interval (the DESIGN §12
// argument, unchanged). Missing objects and
// class mismatches answer StatusOK with FlagFound clear, mirroring
// the mutation-side always-applies contract — which is also the answer
// for a root register nothing has written yet: it reads 0, unflagged.
func (t *table) readFast(req wire.Request) wire.Response {
	if int(req.Shard) >= len(t.shards) || req.Shard >= 1<<31 {
		return errResponse(req.ID, wire.StatusBadShard,
			fmt.Sprintf("shard %d out of range [0,%d)", req.Shard, len(t.shards)))
	}
	st := t.shards[req.Shard].obj.Peek()
	o, _ := st.Objs.Get(objName(req))
	miss := wire.Response{ID: req.ID, Status: wire.StatusOK}
	switch req.Kind {
	case wire.KindGet, wire.KindRegGet:
		if o == nil || o.Type != object.TypeRegister {
			return miss
		}
		return wire.Response{ID: req.ID, Status: wire.StatusOK, Flags: foundFlag(req.Kind, true), Value: o.Reg}
	case wire.KindMapGet:
		if o == nil || o.Type != object.TypeMap {
			return miss
		}
		v, ok := o.M.Get(req.Key)
		if !ok {
			return miss
		}
		return wire.Response{ID: req.ID, Status: wire.StatusOK, Flags: wire.FlagFound, Value: v}
	case wire.KindQLen:
		if o == nil || o.Type != object.TypeQueue {
			return miss
		}
		return wire.Response{ID: req.ID, Status: wire.StatusOK, Flags: wire.FlagFound, Value: int64(o.Q.Len())}
	case wire.KindSnapScan:
		if o == nil || o.Type != object.TypeSnapshot {
			return miss
		}
		return wire.Response{ID: req.ID, Status: wire.StatusOK, Flags: wire.FlagFound,
			Value: int64(len(o.Slots)), Data: wire.EncodeSlots(o.Slots)}
	}
	return errResponse(req.ID, wire.StatusBadRequest, fmt.Sprintf("%s is not a fast-path read", req.Kind))
}

// finishWait blocks until the pipeline's durability frontier — the max
// LSN any of its responses is contingent on — is covered. A nil return
// means every wait-marked response in the pipeline may be sent as is;
// an error means none of them may (the caller downgrades them to
// StatusInternal).
func (t *table) finishWait(lsn uint64) error {
	if t.log == nil {
		return nil
	}
	return t.log.WaitDurable(lsn)
}

// appendSequencer admits WAL appends for one shard strictly in
// mutation-version order within a failover epoch. The universal
// construction linearizes mutations and hands each a dense version
// number, but the sessions carrying them race to the log; the
// sequencer restores the order, so the WAL is a prefix-faithful
// transcript of each shard's history.
//
// Versions only mean anything inside an epoch: a replication state
// install can supersede the local history with a higher-epoch image
// whose version is BELOW versions already applied here (a deposed
// primary inflates its counter with never-acked writes). The sequencer
// therefore tracks the epoch its version line belongs to, and both
// waits abort — returning false — when an install moves the line out
// from under a waiter.
type appendSequencer struct {
	mu    sync.Mutex
	cond  *sync.Cond
	next  uint64 // version whose append is admitted next
	epoch uint64 // epoch the version line belongs to
}

func newAppendSequencer(recovered durable.ShardState) *appendSequencer {
	g := &appendSequencer{next: recovered.Ver + 1, epoch: recovered.Epoch}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// waitTurn blocks until (epoch, ver) is the next append to admit and
// reports whether the caller may append. Every version below ver in
// the same epoch was applied by some live session goroutine that will
// append it (sessions survive their sockets), so the wait is bounded
// by those appends. A false return means the op was superseded: a
// state install replaced the history it applied on (epoch moved past
// the op's) or already covered its version — the record must not be
// written, and the op cannot be acked as durable.
func (g *appendSequencer) waitTurn(ver, epoch uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		switch {
		case durable.Ahead(g.epoch, g.next, epoch, ver):
			return false
		case g.epoch == epoch && g.next == ver:
			return true
		}
		// g.epoch < epoch: the op linearized after an epoch bump whose
		// sequencer install is still in flight; wait for it.
		g.cond.Wait()
	}
}

// install moves the sequencer past (ver, epoch): versions at or below
// ver in that epoch are accounted for — by the append of a granted turn
// (success or not: an append failure must not wedge every later
// writer), or by the snapshot of a state image or epoch bump — so the
// next admitted append is ver+1. Within an epoch the sequencer never
// retreats, which also makes it a no-op when an install moved the
// sequencer while an append was in flight: the appended record belongs
// to a superseded line (replay fences it by epoch), and blindly bumping
// `next` would instead punch a version gap into the installed line. A
// higher epoch always wins, even when its version is lower — that is
// precisely the discarded-fork case, and the retreat is what aborts
// the fork's stranded waiters.
func (g *appendSequencer) install(ver, epoch uint64) {
	g.mu.Lock()
	if durable.Ahead(epoch, ver+1, g.epoch, g.next) {
		g.epoch = epoch
		g.next = ver + 1
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// waitAppended blocks until version ver's record in epoch has been
// appended, reporting false when an install superseded that epoch —
// the original record may have been fenced off, so the caller must
// not vouch for its durability.
func (g *appendSequencer) waitAppended(ver, epoch uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.epoch > epoch {
			return false
		}
		if durable.Ahead(g.epoch, g.next, epoch, ver) {
			return true
		}
		g.cond.Wait()
	}
}

// timeoutResponse answers a withdrawn operation.
func timeoutResponse(id uint64) wire.Response {
	return errResponse(id, wire.StatusTimeout,
		"deadline expired waiting for a slot; operation not applied, safe to retry")
}

// errResponse builds a non-OK response carrying human-readable detail.
func errResponse(id uint64, status wire.Status, msg string) wire.Response {
	return wire.Response{ID: id, Status: status, Data: []byte(msg)}
}
