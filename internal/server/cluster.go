package server

import (
	"errors"
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
	// FailAfter and PullWait tune the failure detector and the
	// replication long-poll (see cluster.Config).
	FailAfter time.Duration
	PullWait  time.Duration
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
		Logf:          s.logf,
	})
	if err != nil {
		return err
	}
	s.node = node
	return nil
}

// Node exposes the cluster membership (nil off-cluster).
func (s *Server) Node() *cluster.Node { return s.node }

// replBackend adapts the server's table and WAL to cluster.Backend.
// Replicated applies run under the reserved replication identity and
// are serialized by replMu: one more sequential process in the paper's
// model, so the wait-free core needs no new reasoning.
type replBackend struct {
	s *Server
}

// ApplyReplicated folds a replicated batch into the local table and
// WAL in record order. Every record is a group of members — a type-9
// atomic container's, or the record itself — and each member meets its
// shard through durable.Fold, under the reserved replication identity.
// Re-delivered members (Covered) are skipped after a dedup cross-check
// — this is what makes mid-batch follower crashes safe: the batch
// replays from its start and already-applied records fall through, and
// a partially re-delivered container self-heals the same way. Within
// one epoch there is a single writer, so a remembered op that disagrees
// is a genuine same-epoch fork (e.g. a primary whose unsynced tail a
// host crash rewrote), not a race: ErrReplDiverged. A member from a
// LOWER epoch is a deposed primary's fork and is refused
// (ErrReplStale); a version gap aborts the batch so the caller can fall
// back to a state image (ErrReplGap).
//
// What applied then lands in the local WAL as the one verbatim origin
// record, through the same ordered append as a primary's own — so a
// follower's log stays append-for-append identical to the origin's and
// a restart recovers replicated history exactly like native history,
// a group as a unit. A member that continues the version line at a
// HIGHER epoch carries a promotion's epoch bump — that is how a
// follower tracks a promotion without refetching state — and its
// record is fenced like a state install, not appended: the sequencers
// move onto the new (epoch, version) line — aborting any old-epoch
// waiter, whose un-appended record would otherwise leave a hole — and a
// snapshot both covers the record's effect and fences whatever the
// deposed line managed to log. A refused turn takes the same fence: a
// state install moved some shard past the record — unreachable under
// replMu (installs serialize behind it), but answered honestly.
func (b *replBackend) ApplyReplicated(recs []durable.Record) (uint64, error) {
	s := b.s
	s.replMu.Lock()
	defer s.replMu.Unlock()
	var maxLsn uint64
	var spans []span
	for i, rec := range recs {
		members := rec.Atomic
		if len(members) == 0 {
			members = recs[i : i+1]
		}
		spans = spans[:0]
		adopted := false
		for _, r := range members {
			if int(r.Shard) >= s.cfg.Shards {
				return maxLsn, fmt.Errorf("server: replicated record for shard %d, table has %d", r.Shard, s.cfg.Shards)
			}
			sh := s.tab.shards[r.Shard]
			v := sh.obj.Apply(s.replIdentity(), func(st durable.ShardState) (durable.ShardState, any) {
				verdict := durable.Fold(&st, s.cfg.DedupWindow, r)
				if verdict == durable.Covered && st.Contradicts(r) {
					verdict = durable.Diverged
				}
				return st, verdict
			})
			switch v.(durable.Verdict) {
			case durable.Covered:
				continue
			case durable.Adopted:
				adopted = true
			case durable.Fenced:
				return maxLsn, fmt.Errorf("server: shard %d record at epoch %d, local state at epoch %d: %w",
					r.Shard, r.Epoch, sh.obj.Peek().Epoch, cluster.ErrReplStale)
			case durable.Gap, durable.Rewrite:
				return maxLsn, fmt.Errorf("server: shard %d record jumps to version %d: %w", r.Shard, r.Ver, cluster.ErrReplGap)
			case durable.Diverged:
				return maxLsn, fmt.Errorf("server: shard %d version %d (epoch %d): %w",
					r.Shard, r.Ver, r.Epoch, cluster.ErrReplDiverged)
			}
			spans = extend(spans, r)
		}
		if len(spans) == 0 {
			// Fully re-delivered: every member was already in local
			// history, so the record itself was already appended.
			continue
		}
		if adopted {
			s.tab.release(spans)
		} else {
			lsn, err := s.tab.logInOrder(spans, rec)
			if err == nil {
				maxLsn = max(maxLsn, lsn)
				continue
			}
			if !errors.Is(err, errSuperseded) {
				return maxLsn, err
			}
		}
		// Fenced, not appended. The snapshot is a full-table image, so it
		// covers every member.
		if err := s.log.WriteSnapshot(s.tab.peekAll); err != nil {
			return maxLsn, err
		}
	}
	return maxLsn, nil
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
			if !durable.Ahead(im.Epoch, im.Ver, st.Epoch, st.Ver) {
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
