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

// ApplyReplicated folds a replicated batch into the local table and WAL
// in record order, a step at a time. A step is a type-9 container,
// whose members each meet their shard through durable.Fold, or a stretch
// of consecutive plain records of one shard, folded in one Apply through
// one durable.FoldRun; both run under the reserved replication identity.
// A re-delivered record or member (Covered) is skipped after a dedup
// cross-check, so a batch replayed after a mid-batch crash, or a partly
// re-delivered container, lands once. One epoch has one writer, so a
// remembered op that disagrees is a same-epoch fork: Diverged. Fenced,
// Gap, Rewrite and Diverged stop the batch — a stretch first logs what
// applied before the refused record, a container logs nothing — and the
// verdict returns for the pull loop's rule to act on.
//
// What applied lands in the local WAL as the verbatim origin records (a
// container as its one record), through the same ordered append as a
// primary's own, one turn per step, so a restart recovers replicated
// history like native history, a group as a unit. A record that
// continues the version line at a HIGHER epoch (Adopted) carries a
// promotion's epoch bump: it heads its own stretch, and its record is
// fenced, not appended: the sequencers move onto the new (epoch,
// version) line, aborting any old-epoch waiter, and a snapshot covers
// the record and fences what the deposed line logged. A refused turn (a
// state install moved the shard past the record, unreachable under
// replMu) takes the same fence.
func (b *replBackend) ApplyReplicated(recs []durable.Record) (uint64, durable.Verdict, error) {
	s := b.s
	s.replMu.Lock()
	defer s.replMu.Unlock()
	var maxLsn uint64
	for len(recs) > 0 {
		step := b.applyStretch
		if len(recs[0].Atomic) > 0 {
			step = b.applyGroup
		}
		n, lsn, refused, err := step(recs)
		maxLsn = max(maxLsn, lsn)
		if err != nil {
			return maxLsn, refused, err
		}
		recs = recs[n:]
	}
	return maxLsn, durable.Applied, nil
}

// applyGroup folds the container heading recs member by member and logs
// it whole; it is a step of one record, and returns as applyStretch
// does. A refused member refuses the container, and nothing of it is
// logged.
func (b *replBackend) applyGroup(recs []durable.Record) (int, uint64, durable.Verdict, error) {
	rec := recs[0]
	var spans []span
	adopted := false
	for i, r := range rec.Atomic {
		if err := b.checkShard(r); err != nil {
			return 1, 0, durable.Applied, err
		}
		switch v := b.fold(rec.Atomic[i : i+1])[0]; v {
		case durable.Covered:
			continue
		case durable.Adopted:
			adopted = true
		case durable.Applied:
		default:
			return 1, 0, v, b.refusal(r, v)
		}
		spans = extend(spans, r)
	}
	if len(spans) == 0 {
		// Fully re-delivered: every member was already in local
		// history, so the record itself was already appended.
		return 1, 0, durable.Applied, nil
	}
	lsn, err := b.commit(spans, adopted, rec)
	return 1, lsn, durable.Applied, err
}

// applyStretch folds the plain records of one shard that head recs in
// one Apply and logs the ones that applied in one turn. It returns how
// many records it took, the last LSN it appended and the verdict of the
// record that refused the stretch, if one did.
func (b *replBackend) applyStretch(recs []durable.Record) (int, uint64, durable.Verdict, error) {
	n := 1
	for n < len(recs) && len(recs[n].Atomic) == 0 && recs[n].Shard == recs[0].Shard {
		n++
	}
	if err := b.checkShard(recs[0]); err != nil {
		return 0, 0, durable.Applied, err
	}
	verdicts := b.fold(recs[:n])
	n = len(verdicts)
	var logged []durable.Record
	refused := durable.Applied
	for i, v := range verdicts {
		switch v {
		case durable.Covered:
		case durable.Applied, durable.Adopted:
			logged = append(logged, recs[i])
		default:
			refused = v
		}
	}
	var lsn uint64
	if len(logged) > 0 {
		last := logged[len(logged)-1]
		sp := []span{{shard: last.Shard, first: logged[0].Ver, last: last.Ver, epoch: last.Epoch}}
		var err error
		// An Adopted record is its stretch's first and only (see fold).
		if lsn, err = b.commit(sp, verdicts[0] == durable.Adopted, logged...); err != nil {
			return n, lsn, durable.Applied, err
		}
	}
	if refused != durable.Applied {
		return n, lsn, refused, b.refusal(recs[n-1], refused)
	}
	return n, lsn, durable.Applied, nil
}

// fold folds recs, records of one shard, onto it in one Apply through a
// durable.FoldRun and returns the verdict of each record it took. It
// takes records up to and including the first that neither applies in
// its epoch nor is Covered, and stops short of a later record at a
// higher epoch, so a promotion's record heads its own step.
func (b *replBackend) fold(recs []durable.Record) []durable.Verdict {
	s := b.s
	v := s.tab.shards[recs[0].Shard].obj.Apply(s.replIdentity(), func(st durable.ShardState) (durable.ShardState, any) {
		f := durable.NewFoldRun(s.cfg.DedupWindow, recs)
		verdicts := make([]durable.Verdict, 0, len(recs))
		for i, r := range recs {
			if i > 0 && r.Epoch > st.Epoch {
				break
			}
			v := f.Fold(&st)
			if v == durable.Covered && st.Contradicts(r) {
				v = durable.Diverged
			}
			verdicts = append(verdicts, v)
			if v != durable.Applied && v != durable.Covered {
				break
			}
		}
		f.End(&st)
		return st, verdicts
	})
	return v.([]durable.Verdict)
}

// commit logs what a step applied, in one ordered turn over its spans,
// and returns the last LSN appended. An Adopted step, or one whose turn
// is refused, is fenced instead: its spans are released and a snapshot,
// a full-table image, covers every record of it.
func (b *replBackend) commit(spans []span, adopted bool, recs ...durable.Record) (uint64, error) {
	s := b.s
	if adopted {
		s.tab.release(spans)
	} else if lsn, err := s.tab.logInOrder(spans, recs...); !errors.Is(err, errSuperseded) {
		return lsn, err
	}
	return 0, s.log.WriteSnapshot(s.tab.peekAll)
}

// checkShard refuses a record for a shard the table does not have.
func (b *replBackend) checkShard(r durable.Record) error {
	if int(r.Shard) >= b.s.cfg.Shards {
		return fmt.Errorf("server: replicated record for shard %d, table has %d", r.Shard, b.s.cfg.Shards)
	}
	return nil
}

// refusal explains the verdict that stopped a batch at record r.
func (b *replBackend) refusal(r durable.Record, v durable.Verdict) error {
	st := b.s.tab.shards[r.Shard].obj.Peek()
	return fmt.Errorf("server: shard %d record (epoch %d, version %d) refused at local (epoch %d, version %d): %s",
		r.Shard, r.Epoch, r.Ver, st.Epoch, st.Ver, refusals[v])
}

// refusals says why each verdict that stops a batch does.
var refusals = map[durable.Verdict]string{durable.Fenced: "a deposed epoch's record", durable.Gap: "a gap in the stream",
	durable.Rewrite: "a gap in the stream", durable.Diverged: "history diverged from local state"}

// InstallState folds a state image into the table, keeping each shard
// whose image is (epoch, version)-ahead of local state, so a higher-epoch
// image at a LOWER version still replaces a deposed primary's inflated
// fork, then snapshots so the catch-up is durable and the fork records in
// the local WAL are fenced beneath it. covered is as cluster.Backend says.
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
