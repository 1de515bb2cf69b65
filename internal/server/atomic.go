package server

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"kexclusion/internal/durable"
	"kexclusion/internal/wire"
)

// Atomic groups (the 0xC2 frame) commit up to wire.MaxAtomicOps
// mutations all-or-nothing, across shards, under ONE WAL record.
//
// The protocol is validate-then-install. The group takes the table's
// batchMu exclusively (runs of mutations hold it shared across their
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

// span is the contiguous run of versions [first, last] one record
// covers on one shard, all at one epoch: a single mutation's is one
// version long, a group's may be several.
type span struct {
	shard       uint32
	first, last uint64
	epoch       uint64
}

// extend grows the span of r's shard over r, opening one at first touch.
func extend(spans []span, r durable.Record) []span {
	for i := range spans {
		if spans[i].shard == r.Shard {
			spans[i].last, spans[i].epoch = r.Ver, r.Epoch
			return spans
		}
	}
	return append(spans, span{shard: r.Shard, first: r.Ver, last: r.Ver, epoch: r.Epoch})
}

// applyAtomicStart validates and commits one atomic group as process
// p, up to — but not including — its durability wait (responses that
// presume it are marked in the cycle's ledger, like applyRun's). It
// returns one response per request, in order, and adds the newly
// applied members to c.fresh for the snapshot cadence.
//
// The caller must hold the server's replMu.
func (t *table) applyAtomicStart(p int, reqs []wire.Request, c *cycle) []wire.Response {
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
			return abortAll(i, fmt.Sprintf("%s is not a mutation; atomic groups carry only mutations", req.Kind))
		}
		if int(req.Shard) >= len(t.shards) || req.Shard >= 1<<31 {
			return abortAll(i, fmt.Sprintf("shard %d out of range [0,%d)", req.Shard, len(t.shards)))
		}
		ops[i] = op
	}

	t.batchMu.Lock()
	defer t.batchMu.Unlock()

	// Step the group against private clones of the committed states.
	scratch := make(map[uint32]*durable.ShardState)
	outs := make([]durable.Outcome, len(reqs))
	var subs []durable.Record
	spans := make([]span, 0, len(reqs))
	for i, req := range reqs {
		sc := scratch[req.Shard]
		if sc == nil {
			base := t.shards[req.Shard].obj.Peek().Clone()
			sc = &base
			scratch[req.Shard] = sc
		}
		out := durable.StepOp(sc, t.window, req.Session, req.Seq, ops[i])
		outs[i] = out
		switch {
		case out.Stale:
			return abortAll(i, fmt.Sprintf("stale op: session %#x already moved past seq %d", req.Session, req.Seq))
		case out.Duplicate:
			// Answered from history below; moves nothing.
		default:
			if !out.OK {
				// A fresh member would be logically rejected: the group
				// aborts before anything is installed. The scratch clones
				// are discarded, so the members stepped before this one
				// never existed.
				return abortAll(i, fmt.Sprintf("%s rejected (observed value %d)", req.Kind, out.Val))
			}
			subs = append(subs, durable.Record{
				Session: req.Session, Seq: req.Seq, Shard: req.Shard,
				Kind: ops[i].Kind, Obj: ops[i].Obj, Key: ops[i].Key,
				Arg: ops[i].Arg, Arg2: ops[i].Arg2,
				Val: out.Val, Ver: out.Ver, Epoch: out.Epoch, OK: true,
			})
			spans = extend(spans, subs[len(subs)-1])
		}
	}

	resps := make([]wire.Response, len(reqs))
	for i, req := range reqs {
		fl := foundFlag(req.Kind, outs[i].OK)
		if outs[i].Duplicate {
			fl |= wire.FlagDuplicate
			t.shards[req.Shard].m.DupeHit()
			t.dupes.Add(1)
		}
		resps[i] = wire.Response{ID: req.ID, Status: wire.StatusOK, Flags: fl, Value: outs[i].Val}
	}

	// Commit: install each touched shard's stepped clone, in shard-index
	// order. Under batchMu (no client mutations) and replMu (no replicated
	// applies or state installs) the committed state cannot have moved
	// since the Peek, so the version check cannot fail; it stands guard
	// over that invariant rather than handling a reachable case.
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.shard, b.shard) })
	for _, sp := range spans {
		stepped := scratch[sp.shard]
		v := t.shards[sp.shard].obj.Apply(p, func(st durable.ShardState) (durable.ShardState, any) {
			if st.Ver != sp.first-1 || st.Epoch != sp.epoch {
				return st, false
			}
			return *stepped, true
		})
		if !v.(bool) {
			return internalAll("atomic commit invariant violated: shard state moved under the group lock")
		}
	}
	if t.log != nil {
		// Durability. Fresh members ride the single atomic record, which
		// covers each touched shard's whole version span. Duplicated
		// members piggyback on their original records: once those are
		// appended, the group's frontier bounds them.
		lsn := t.log.End()
		if len(subs) > 0 {
			var err error
			lsn, err = t.logInOrder(spans, durable.Record{Atomic: subs})
			if errors.Is(err, errSuperseded) {
				// Unreachable under replMu (only a state install moves a
				// sequencer backward); answered honestly if it ever fires.
				// The group IS installed in memory and its turns are
				// released, so without a record the shards whose turn it did
				// take would carry a hole in the WAL: fence the table under
				// a snapshot, as a follower does for a group it cannot log.
				if serr := t.log.WriteSnapshot(t.peekAll); serr != nil {
					err = serr
				}
			}
			if err != nil {
				// Applied in memory but not durable: nothing may be acked
				// (logInOrder has the poisoned-log argument).
				return internalAll(err.Error())
			}
		}
		for i, req := range reqs {
			if outs[i].Duplicate && !t.shards[req.Shard].seq.waitAppended(outs[i].Ver, outs[i].Epoch) {
				resps[i] = errResponse(req.ID, wire.StatusInternal,
					"original write superseded by a replication state install; retry")
				continue
			}
			c.await(i, req.Shard, outs[i].Epoch, lsn)
		}
	}
	c.fresh += len(subs)
	return resps
}

// applyAtomicGroup is the server-side wrapper: shard-ownership gate,
// the replMu hold, and the committed-group counter.
func (s *Server) applyAtomicGroup(p int, reqs []wire.Request, c *cycle) []wire.Response {
	for _, req := range reqs {
		if s.refuses(req.Shard) {
			s.notPrimary.Add(1)
			refusal := s.notPrimaryResponse(0, req.Shard)
			resps := make([]wire.Response, len(reqs))
			for i, r := range reqs {
				resps[i] = refusal
				resps[i].ID = r.ID
			}
			return resps
		}
	}
	fresh := c.fresh
	s.replMu.Lock()
	resps := s.tab.applyAtomicStart(p, reqs, c)
	s.replMu.Unlock()
	if c.fresh > fresh {
		s.batchAtomic.Add(1)
	}
	return resps
}
