package server

import (
	"fmt"
	"sort"
	"time"

	"kexclusion/internal/durable"
	"kexclusion/internal/wire"
)

// Atomic groups (the 0xC2 frame) commit up to wire.MaxAtomicOps
// mutations all-or-nothing, across shards, under ONE WAL record.
//
// The protocol is validate-then-install. The group takes the table's
// batchMu exclusively (single-op mutations hold it shared across their
// Apply) and the server's replMu (excluding replicated applies and
// state installs), Peeks every touched shard's committed state, and
// steps the whole group against private clones. Only if every fresh
// member's logical verdict is OK does it commit: one Apply per touched
// shard installs the pre-stepped clone — under the two locks the
// committed state cannot have moved, so the install is exactly the
// transition the validation computed — then one type-9 WAL record
// carries every member, so recovery and replication replay the group
// as a unit. Any rejected member (CAS mismatch, empty dequeue, class
// conflict...) aborts the whole group before anything is installed:
// every member answers StatusAtomicAbort and no object is touched.
//
// Retries follow the windowed dedup contract, per member: a member
// whose op ID is already in its shard's window is answered from
// history (FlagDuplicate) and does not move state; the remaining fresh
// members re-validate and re-commit. A fully duplicated group is
// answered entirely from history with no new record.
//
// Atomicity is with respect to mutations and durability, not reads:
// the per-shard commits land one Apply at a time, so a concurrent
// fast-path read may observe one member's effect before another's —
// the same per-shard linearizability every other operation gets.
//
// Atomic groups run without a per-op deadline and skip the ApplyGate
// hook: the group holds batchMu exclusively, so parking it on a chaos
// gate would stall every mutation on the server.

// atomicAck marks one response in an atomic group whose ack is
// contingent on the group's durability frontier (index relative to
// the group).
type atomicAck struct {
	idx   int
	id    uint64
	shard uint32
	epoch uint64
}

// applyAtomicStart validates and commits one atomic group as process
// p, up to — but not including — its durability wait (the caller
// funnels lsn into the pipeline's finishWait, like applyStart). resps
// has one entry per request, in order. fresh is the number of newly
// applied members, charged to the snapshot cadence by the caller.
//
// The caller must hold the server's replMu.
func (t *table) applyAtomicStart(p int, reqs []wire.Request) (resps []wire.Response, acks []atomicAck, lsn uint64, fresh int) {
	abortAll := func(at int, reason string) []wire.Response {
		out := make([]wire.Response, len(reqs))
		for i, req := range reqs {
			out[i] = wire.Response{ID: req.ID, Status: wire.StatusAtomicAbort}
			if i == at {
				out[i].Data = []byte(reason)
			}
		}
		return out
	}
	internalAll := func(reason string) []wire.Response {
		out := make([]wire.Response, len(reqs))
		for i, req := range reqs {
			out[i] = errResponse(req.ID, wire.StatusInternal, reason)
		}
		return out
	}

	// Cheap validation before any lock: every member must be a mutation
	// the durable layer knows, addressed inside the table.
	ops := make([]durable.Op, len(reqs))
	for i, req := range reqs {
		op, ok := durableOp(req)
		if !ok {
			return abortAll(i, fmt.Sprintf("%s is not a mutation; atomic groups carry only mutations", req.Kind)), nil, 0, 0
		}
		if int(req.Shard) >= len(t.shards) || req.Shard >= 1<<31 {
			return abortAll(i, fmt.Sprintf("shard %d out of range [0,%d)", req.Shard, len(t.shards))), nil, 0, 0
		}
		ops[i] = op
	}

	t.batchMu.Lock()
	defer t.batchMu.Unlock()

	// Step the group against private clones of the committed states.
	type scratchShard struct {
		st        durable.ShardState
		baseVer   uint64
		baseEpoch uint64
		touched   bool
	}
	scratch := make(map[uint32]*scratchShard)
	var order []uint32
	outs := make([]durable.Outcome, len(reqs))
	var subs []durable.Record
	for i, req := range reqs {
		sc := scratch[req.Shard]
		if sc == nil {
			base := t.shards[req.Shard].obj.Peek()
			sc = &scratchShard{st: base.Clone(), baseVer: base.Ver, baseEpoch: base.Epoch}
			scratch[req.Shard] = sc
			order = append(order, req.Shard)
		}
		out := durable.StepOp(&sc.st, t.window, req.Session, req.Seq, ops[i])
		outs[i] = out
		switch {
		case out.Stale:
			return abortAll(i, fmt.Sprintf("stale op: session %#x already moved past seq %d", req.Session, req.Seq)), nil, 0, 0
		case out.Duplicate:
			// Answered from history below; moves nothing.
		default:
			if !out.OK {
				// A fresh member would be logically rejected: the group
				// aborts before anything is installed. The scratch clones
				// are discarded, so the members stepped before this one
				// never existed.
				return abortAll(i, fmt.Sprintf("%s rejected (observed value %d)", req.Kind, out.Val)), nil, 0, 0
			}
			sc.touched = true
			subs = append(subs, durable.Record{
				Session: req.Session, Seq: req.Seq, Shard: req.Shard,
				Kind: ops[i].Kind, Obj: ops[i].Obj, Key: ops[i].Key,
				Arg: ops[i].Arg, Arg2: ops[i].Arg2,
				Val: out.Val, Ver: out.Ver, Epoch: out.Epoch, OK: true,
			})
		}
	}

	resps = make([]wire.Response, len(reqs))
	for i, req := range reqs {
		fl := foundFlag(req.Kind, outs[i].OK)
		if outs[i].Duplicate {
			fl |= wire.FlagDuplicate
			t.shards[req.Shard].m.DupeHit()
			if t.dupes != nil {
				t.dupes.Add(1)
			}
		}
		resps[i] = wire.Response{ID: req.ID, Status: wire.StatusOK, Flags: fl, Value: outs[i].Val}
	}

	// Commit: install each touched shard's stepped clone. Under batchMu
	// (no client mutations) and replMu (no replicated applies or state
	// installs) the committed state cannot have moved since the Peek, so
	// the version check cannot fail; it stands guard over that invariant
	// rather than handling a reachable case.
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, sid := range order {
		sc := scratch[sid]
		if !sc.touched {
			continue
		}
		v := t.shards[sid].obj.Apply(p, func(st durable.ShardState) (durable.ShardState, any) {
			if st.Ver != sc.baseVer || st.Epoch != sc.baseEpoch {
				return st, false
			}
			return sc.st, true
		})
		if !v.(bool) {
			return internalAll("atomic commit invariant violated: shard state moved under the group lock"), nil, 0, 0
		}
	}
	fresh = len(subs)

	if t.log == nil {
		return resps, nil, 0, fresh
	}

	// Durability. Duplicated members piggyback on their original
	// records: once those are appended, the group's frontier bounds
	// them. Fresh members ride the single atomic record.
	if len(subs) > 0 {
		for _, sid := range order {
			sc := scratch[sid]
			if !sc.touched {
				continue
			}
			if !t.shards[sid].seq.waitTurn(sc.baseVer+1, sc.baseEpoch) {
				// Unreachable under replMu (only a state install moves the
				// sequencer backward); answered honestly if it ever fires.
				return internalAll("atomic group superseded by a state install before it was logged; retry"), nil, 0, 0
			}
		}
		alsn, aerr := t.log.Append(durable.Record{Atomic: subs})
		for _, sid := range order {
			sc := scratch[sid]
			if sc.touched {
				// The group advanced the shard possibly several versions
				// under one record; same-epoch forward install admits the
				// next append after all of them.
				t.shards[sid].seq.install(sc.st.Ver, sc.baseEpoch)
			}
		}
		if aerr != nil {
			// Applied in memory, durability failed; the poisoned log fails
			// every later wait (see applyStart's twin comment).
			return internalAll(aerr.Error()), nil, 0, 0
		}
		lsn = alsn
	} else {
		lsn = t.log.End()
	}
	for i, req := range reqs {
		if outs[i].Duplicate {
			if !t.shards[req.Shard].seq.waitAppended(outs[i].Ver, outs[i].Epoch) {
				resps[i] = errResponse(req.ID, wire.StatusInternal,
					"original write superseded by a replication state install; retry")
				continue
			}
		}
		acks = append(acks, atomicAck{idx: i, id: req.ID, shard: req.Shard, epoch: outs[i].Epoch})
	}
	return resps, acks, lsn, fresh
}

// applyAtomicGroup is the server-side wrapper: shard-ownership gate,
// the replMu hold, and the committed-group counter.
func (s *Server) applyAtomicGroup(p int, reqs []wire.Request) (resps []wire.Response, acks []atomicAck, lsn uint64, fresh int) {
	if s.node != nil {
		for _, req := range reqs {
			if int(req.Shard) < s.cfg.Shards && !s.node.Owns(req.Shard) {
				s.notPrimary.Add(1)
				hint := s.node.PrimaryAddr(req.Shard)
				resps = make([]wire.Response, len(reqs))
				for i, r := range reqs {
					resps[i] = wire.Response{ID: r.ID, Status: wire.StatusNotPrimary, Data: []byte(hint)}
					if hint == "" {
						resps[i].Value = int64(s.node.LeaseDuration() / time.Millisecond)
					}
				}
				return resps, nil, 0, 0
			}
		}
	}
	s.replMu.Lock()
	resps, acks, lsn, fresh = s.tab.applyAtomicStart(p, reqs)
	s.replMu.Unlock()
	if fresh > 0 {
		s.batchAtomic.Add(1)
	}
	return resps, acks, lsn, fresh
}
