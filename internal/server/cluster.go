package server

import (
	"fmt"
	"time"

	"kexclusion/internal/cluster"
	"kexclusion/internal/durable"
)

// ClusterConfig makes the server a member of a replicated cluster: its
// WAL batches ship to peers, client acks wait for the configured
// quorum, and the ring decides which shards this node serves.
// Requires DataDir — the WAL is the replication stream.
type ClusterConfig struct {
	// NodeID is this member's identity in the peer list.
	NodeID string
	// Peers is the full static membership, this node included.
	Peers []cluster.Peer
	// Quorum is how many nodes (this one included) must fsync a batch
	// before its client ack; 0 means a majority of the peer list.
	Quorum int
	// FailAfter, PullWait and QuorumTimeout tune the failure detector,
	// the replication long-poll, and the ack-path quorum wait (see
	// cluster.Config).
	FailAfter     time.Duration
	PullWait      time.Duration
	QuorumTimeout time.Duration
	// Lease is the leader lease interval; 0 defaults to FailAfter/2,
	// and it must be strictly shorter than FailAfter (see
	// cluster.Config.LeaseDuration).
	Lease time.Duration
}

// MajorityQuorum returns the smallest majority of n members.
func MajorityQuorum(n int) int { return n/2 + 1 }

// replIdentity returns the process identity reserved for the
// replication apply loop: one slot past the client identities (the
// table is built with N+1 process slots in cluster mode).
func (s *Server) replIdentity() int { return s.cfg.N }

// newClusterNode wires the cluster membership into a freshly built
// server (called at the end of New, after table and log exist).
func (s *Server) newClusterNode(cc *ClusterConfig) error {
	if s.log == nil {
		return fmt.Errorf("server: cluster mode requires a data directory (the WAL is the replication stream)")
	}
	quorum := cc.Quorum
	if quorum == 0 {
		quorum = MajorityQuorum(len(cc.Peers))
	}
	node, err := cluster.New(cluster.Config{
		NodeID:        cc.NodeID,
		Peers:         cc.Peers,
		Shards:        s.cfg.Shards,
		Quorum:        quorum,
		Log:           s.log,
		Backend:       &replBackend{s: s},
		FailAfter:     cc.FailAfter,
		LeaseDuration: cc.Lease,
		PullWait:      cc.PullWait,
		QuorumTimeout: cc.QuorumTimeout,
		Logf:          s.logf,
		// Promotion rides the PR 6 phase machine: each takeover gets its
		// own lifecycle cell stepping recovering → running, so ops
		// tooling watches a failover with the same vocabulary as a boot.
		OnPromoteStart: func(shards []uint32) {
			lc := NewLifecycle()
			lc.advance(PhaseRecovering)
			s.promoteMu.Lock()
			s.promoteLC = lc
			s.promoteMu.Unlock()
		},
		OnPromoteDone: func(shards []uint32) {
			s.promoteMu.Lock()
			lc := s.promoteLC
			s.promoteMu.Unlock()
			if lc != nil {
				lc.advance(PhaseRunning)
			}
			s.promotions.Add(1)
		},
		// Lease expiry steps the promotion cell running → degraded: the
		// node is alive but refuses its shards, which is exactly what
		// degraded means everywhere else in the phase machine. The next
		// successful promotion replaces the cell.
		OnDemote: func(shards []uint32) {
			s.promoteMu.Lock()
			lc := s.promoteLC
			s.promoteMu.Unlock()
			if lc != nil {
				lc.advance(PhaseDegraded)
			}
		},
	})
	if err != nil {
		return err
	}
	s.node = node
	return nil
}

// Node exposes the cluster membership (nil off-cluster).
func (s *Server) Node() *cluster.Node { return s.node }

// PromotionPhase reports the lifecycle phase of the most recent
// promotion (PhaseStarting when none has happened).
func (s *Server) PromotionPhase() Phase {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.promoteLC == nil {
		return PhaseStarting
	}
	return s.promoteLC.Phase()
}

// Promotions reports how many shard takeovers this node has completed.
func (s *Server) Promotions() int64 { return s.promotions.Load() }

// replBackend adapts the server's table and WAL to cluster.Backend.
// Replicated applies run under the reserved replication identity and
// are serialized by replMu: one more sequential process in the paper's
// model, so the wait-free core needs no new reasoning.
type replBackend struct {
	s *Server
}

// replOutcome classifies one replicated record against local state.
type replOutcome int

const (
	replApplied replOutcome = iota
	replAdopted             // applied AND crossed into a higher epoch: snapshot-fenced, not appended
	replSkipped             // at or below the local frontier in the local epoch: idempotent re-delivery
	replStale               // from an epoch the shard moved past: a deposed primary's fenced fork
	replGap                 // beyond the next version: needs a state image
	replDiverged
)

// applyOneReplicated classifies record r against the local state of
// its shard and, when it is the shard's next step, applies it. The
// caller has validated r.Shard and holds replMu.
func (b *replBackend) applyOneReplicated(r durable.Record) replOutcome {
	s := b.s
	v := s.tab.shards[r.Shard].obj.Apply(s.replIdentity(), func(st durable.ShardState) (durable.ShardState, any) {
		if r.Epoch < st.Epoch {
			return st, replStale
		}
		if r.Epoch == st.Epoch && r.Ver <= st.Ver {
			// Already inside local history — but verify it really is
			// THIS record's history while the dedup window still
			// remembers the op. Within one epoch there is a single
			// writer, so a mismatch is a genuine same-epoch fork (e.g.
			// a primary whose unsynced tail a host crash rewrote), not
			// a race.
			if !replSkipConsistent(st, r) {
				return st, replDiverged
			}
			return st, replSkipped
		}
		if r.Ver != st.Ver+1 {
			return st, replGap
		}
		// Step a clone: a record that fails the cross-check below must
		// leave the state untouched, and StepOp has already mutated its
		// argument by the time the divergence is visible.
		stepped := st.Clone()
		out := durable.StepOp(&stepped, s.cfg.DedupWindow, r.Session, r.Seq,
			durable.Op{Kind: r.Kind, Obj: r.Obj, Key: r.Key, Arg: r.Arg, Arg2: r.Arg2})
		if !out.Applied || out.Val != r.Val || out.Ver != r.Ver || out.OK != r.OK {
			return st, replDiverged
		}
		if r.Epoch > st.Epoch {
			stepped.Epoch = r.Epoch // adopt a promotion's epoch bump
			return stepped, replAdopted
		}
		return stepped, replApplied
	})
	return v.(replOutcome)
}

// ApplyReplicated folds a replicated batch into the local table and
// WAL in record order. Re-delivered records (same epoch, version at or
// below the local frontier) are skipped after a dedup cross-check —
// this is what makes mid-batch follower crashes safe: the batch
// replays from its start and already-applied records fall through. A
// record continuing the version line at a HIGHER epoch is adopted,
// epoch included — that is how a follower tracks a promotion without
// refetching state. A record from a LOWER epoch is a deposed primary's
// fork and is refused (ErrReplStale); a version gap aborts the batch
// so the caller can fall back to a state image (ErrReplGap).
//
// A type-9 atomic container replays member by member through the same
// classification, then lands in the local WAL as the one verbatim
// container record — so a follower's log stays append-for-append
// identical to the origin's and recovery replays the group as a unit.
func (b *replBackend) ApplyReplicated(recs []durable.Record) (uint64, error) {
	s := b.s
	s.replMu.Lock()
	defer s.replMu.Unlock()
	var maxLsn uint64
	for _, rec := range recs {
		if len(rec.Atomic) > 0 {
			lsn, err := b.applyReplicatedAtomic(rec)
			if err != nil {
				return maxLsn, err
			}
			if lsn > maxLsn {
				maxLsn = lsn
			}
			continue
		}
		if int(rec.Shard) >= s.cfg.Shards {
			return maxLsn, fmt.Errorf("server: replicated record for shard %d, table has %d", rec.Shard, s.cfg.Shards)
		}
		sh := s.tab.shards[rec.Shard]
		switch b.applyOneReplicated(rec) {
		case replSkipped:
			continue
		case replAdopted:
			// The record that carries a promotion's epoch bump is fenced
			// like a state install, not appended: move the sequencer onto
			// the new (epoch, version) line — aborting any old-epoch
			// waiter, whose un-appended record would otherwise leave a
			// hole — and persist a snapshot that both covers this record's
			// effect and fences whatever the deposed line managed to log.
			sh.seq.install(rec.Ver, rec.Epoch)
			if err := s.log.WriteSnapshot(s.tab.peekAll); err != nil {
				return maxLsn, err
			}
			continue
		case replStale:
			return maxLsn, fmt.Errorf("server: shard %d record at epoch %d, local state at epoch %d: %w",
				rec.Shard, rec.Epoch, sh.obj.Peek().Epoch, cluster.ErrReplStale)
		case replGap:
			return maxLsn, fmt.Errorf("server: shard %d record jumps to version %d: %w", rec.Shard, rec.Ver, cluster.ErrReplGap)
		case replDiverged:
			return maxLsn, fmt.Errorf("server: shard %d version %d (epoch %d): %w",
				rec.Shard, rec.Ver, rec.Epoch, cluster.ErrReplDiverged)
		}
		// Append the origin record verbatim to the local WAL, through
		// the same per-shard sequencer as primary appends, so the local
		// log stays a prefix-faithful transcript of every shard it
		// holds — a restart recovers replicated history exactly like
		// native history.
		if !sh.seq.waitTurn(rec.Ver, rec.Epoch) {
			// A concurrent state install moved the shard past this record
			// between the apply above and the append; the install's
			// snapshot covers it.
			continue
		}
		lsn, aerr := s.log.Append(rec)
		sh.seq.advance(rec.Ver, rec.Epoch)
		if aerr != nil {
			return maxLsn, aerr
		}
		if lsn > maxLsn {
			maxLsn = lsn
		}
	}
	return maxLsn, nil
}

// applyReplicatedAtomic folds one replicated atomic container into the
// local table and WAL. Members replay in order through the same
// classification as single records; per touched shard the group covers
// a contiguous version span, so after the members apply, ONE verbatim
// append of the container covers the whole span (the sequencer is
// advanced by install, exactly as on the origin). A partially
// re-delivered group — a previous delivery applied a prefix, then
// failed before the append — self-heals the same way batches do: the
// already-applied members classify as skipped and the container is
// still appended once, after the remaining members land.
//
// The caller holds replMu.
func (b *replBackend) applyReplicatedAtomic(rec durable.Record) (uint64, error) {
	s := b.s
	type span struct {
		firstVer, lastVer, epoch uint64
	}
	spans := make(map[uint32]*span)
	var order []uint32
	adopted := false
	for _, sub := range rec.Atomic {
		if int(sub.Shard) >= s.cfg.Shards {
			return 0, fmt.Errorf("server: replicated atomic member for shard %d, table has %d", sub.Shard, s.cfg.Shards)
		}
		switch b.applyOneReplicated(sub) {
		case replSkipped:
			continue
		case replAdopted:
			adopted = true
		case replStale:
			return 0, fmt.Errorf("server: shard %d atomic member at epoch %d, local state at epoch %d: %w",
				sub.Shard, sub.Epoch, s.tab.shards[sub.Shard].obj.Peek().Epoch, cluster.ErrReplStale)
		case replGap:
			return 0, fmt.Errorf("server: shard %d atomic member jumps to version %d: %w", sub.Shard, sub.Ver, cluster.ErrReplGap)
		case replDiverged:
			return 0, fmt.Errorf("server: shard %d atomic member at version %d (epoch %d): %w",
				sub.Shard, sub.Ver, sub.Epoch, cluster.ErrReplDiverged)
		}
		sp := spans[sub.Shard]
		if sp == nil {
			sp = &span{firstVer: sub.Ver}
			spans[sub.Shard] = sp
			order = append(order, sub.Shard)
		}
		sp.lastVer = sub.Ver
		sp.epoch = sub.Epoch
	}
	if len(spans) == 0 {
		// Fully re-delivered: every member was already in local history,
		// so the container itself was already appended.
		return 0, nil
	}
	if adopted {
		// The group carries a promotion's epoch bump: fence it with a
		// snapshot instead of an append, like a single adopted record.
		// The snapshot is a full-table image, so it covers every member.
		for _, sid := range order {
			sp := spans[sid]
			s.tab.shards[sid].seq.install(sp.lastVer, sp.epoch)
		}
		return 0, s.log.WriteSnapshot(s.tab.peekAll)
	}
	for i, sid := range order {
		sp := spans[sid]
		if !s.tab.shards[sid].seq.waitTurn(sp.firstVer, sp.epoch) {
			// A state install moved some shard past the group — unreachable
			// under replMu (installs serialize behind it), but answered
			// honestly: release the turns already taken and fence the whole
			// group beneath a snapshot, which covers every member.
			for _, held := range order[:i] {
				hp := spans[held]
				s.tab.shards[held].seq.install(hp.lastVer, hp.epoch)
			}
			s.tab.shards[sid].seq.install(sp.lastVer, sp.epoch)
			return 0, s.log.WriteSnapshot(s.tab.peekAll)
		}
	}
	lsn, aerr := s.log.Append(rec)
	for _, sid := range order {
		sp := spans[sid]
		s.tab.shards[sid].seq.install(sp.lastVer, sp.epoch)
	}
	if aerr != nil {
		return 0, aerr
	}
	return lsn, nil
}

// replSkipConsistent cross-checks a record at-or-below the local
// frontier against the shard's dedup window: if the window still
// remembers the record's op ID, its recorded version and value must
// match; if the window remembers the session but has never seen an op
// this new, local history cannot contain the record at all — despite
// claiming its version range — which is a fork. Ops that aged out of
// the window (or carried no ID) pass: the check is best-effort
// defense in depth behind epoch fencing, not a proof.
func replSkipConsistent(st durable.ShardState, r durable.Record) bool {
	if r.Session == 0 || r.Seq == 0 {
		return true
	}
	e, ok := st.Dedup.Get(r.Session)
	if !ok {
		return true // session evicted: cannot check
	}
	if r.Seq > e.Seq {
		return false // local history claims r.Ver yet never saw this op
	}
	if r.Seq == e.Seq {
		return e.Ver == r.Ver && e.Val == r.Val && e.OK == r.OK
	}
	for _, old := range e.Recent {
		if old.Seq == r.Seq {
			return old.Ver == r.Ver && old.Val == r.Val && old.OK == r.OK
		}
	}
	return true // aged out of the per-session history window
}

// WaitLocalDurable blocks until the local WAL has fsynced lsn —
// sharing the group commit with any concurrent primary appends.
func (b *replBackend) WaitLocalDurable(lsn uint64) error {
	return b.s.tab.finishWait(lsn)
}

// InstallState folds a state image into the table, shard by shard,
// keeping only images (epoch, version)-ahead of local state —
// lexicographically, so a higher-epoch image at a LOWER version still
// replaces a deposed primary's inflated fork — then persists a local
// snapshot so the catch-up itself is durable AND the fork records in
// the local WAL are fenced beneath it. covered reports whether local
// state ended at or beyond the image on every shard it holds: false
// means the image's sender is the one who is behind (or forked), and
// the caller must not ack its log positions.
func (b *replBackend) InstallState(shards map[uint32]durable.ShardState) (bool, error) {
	s := b.s
	s.replMu.Lock()
	defer s.replMu.Unlock()
	changed := false
	covered := true
	for id, img := range shards {
		if int(id) >= s.cfg.Shards {
			return false, fmt.Errorf("server: state image holds shard %d, table has %d", id, s.cfg.Shards)
		}
		sh := s.tab.shards[id]
		im := img
		v := sh.obj.Apply(s.replIdentity(), func(st durable.ShardState) (durable.ShardState, any) {
			if im.Epoch < st.Epoch || (im.Epoch == st.Epoch && im.Ver <= st.Ver) {
				return st, false
			}
			return im.Clone(), true
		})
		if v.(bool) {
			// Versions up to im.Ver are covered by the image, not by
			// local appends: move the WAL sequencer onto the image's
			// (epoch, version) line — retreating if the image supersedes
			// an inflated fork, which aborts the fork's stranded waiters.
			sh.seq.install(im.Ver, im.Epoch)
			changed = true
		}
		if st := sh.obj.Peek(); st.Epoch != im.Epoch {
			// The image lost to a strictly higher local epoch: its sender
			// is deposed or lagging a promotion; nothing of its log may
			// be acked on the strength of this install.
			covered = false
		}
	}
	if changed {
		return covered, s.log.WriteSnapshot(s.tab.peekAll)
	}
	return covered, nil
}

// Frontier returns every shard's current mutation version and epoch.
func (b *replBackend) Frontier() (vers, epochs []uint64) {
	t := b.s.tab
	vers = make([]uint64, len(t.shards))
	epochs = make([]uint64, len(t.shards))
	for i := range t.shards {
		st := t.shards[i].obj.Peek()
		vers[i] = st.Ver
		epochs[i] = st.Epoch
	}
	return vers, epochs
}

// BumpEpochs mints the next failover epoch for each listed shard (a
// promotion fencing off the deposed primary's future writes) and
// persists a snapshot before returning, so the claim survives a
// restart and the replay invariant holds: by the time any record at
// the new epoch exists, the epoch is already on disk.
func (b *replBackend) BumpEpochs(shards []uint32) error {
	s := b.s
	s.replMu.Lock()
	defer s.replMu.Unlock()
	for _, id := range shards {
		if int(id) >= s.cfg.Shards {
			return fmt.Errorf("server: epoch bump for shard %d, table has %d", id, s.cfg.Shards)
		}
		sh := s.tab.shards[id]
		v := sh.obj.Apply(s.replIdentity(), func(st durable.ShardState) (durable.ShardState, any) {
			ns := st.Clone()
			ns.Epoch++
			return ns, ns
		})
		ns := v.(durable.ShardState)
		sh.seq.install(ns.Ver, ns.Epoch)
	}
	return s.log.WriteSnapshot(s.tab.peekAll)
}

// StateImage returns a consistent per-shard image for a peer.
func (b *replBackend) StateImage() map[uint32]durable.ShardState {
	return b.s.tab.peekAll()
}
