package cluster

import (
	"errors"
	"net"
	"slices"
	"time"

	"kexclusion/internal/durable"
	"kexclusion/internal/wire"
)

// pullBackoff is how long a pull loop sleeps after a failed dial or a
// broken stream before retrying. Short relative to FailAfter so one
// transient error does not mark a healthy peer suspect.
const pullBackoff = 200 * time.Millisecond

// quarantineBackoff is the sleep after a stale-epoch or diverged stream:
// the peer replays a fenced fork (it heals by catching up itself) or a
// same-epoch content fork (it never heals), so retrying sooner only spams.
const quarantineBackoff = 3 * time.Second

// pullLoop is the follower side of replication against one peer: dial,
// catch up by image when needed, then pull, apply, fsync and ack on the
// next pull, forever. Resume positions outlive a connection in memory; a
// restarted process starts again from a state image.
func (n *Node) pullLoop(p Peer) {
	defer n.wg.Done()
	for {
		select {
		case <-n.stopCh:
			return
		default:
		}
		if err := n.pullSession(p); err != nil {
			// A hello from p proves it is up and ends the wait after a dial it
			// did not answer (a token from an earlier hello costs one early
			// retry); any other failure, a quarantine above all, waits in full.
			backoff, up := pullBackoff, (chan struct{})(nil)
			if op := (*net.OpError)(nil); errors.As(err, &op) && op.Op == "dial" {
				up = n.redial[p.ID]
			} else if errors.Is(err, ErrReplStale) || errors.Is(err, ErrReplDiverged) {
				backoff = quarantineBackoff
			}
			select {
			case <-n.stopCh:
				return
			case <-up:
			case <-time.After(backoff):
			}
		}
	}
}

// pullSession runs one replication connection until it breaks.
func (n *Node) pullSession(p Peer) error {
	conn, err := n.dialRepl(p)
	if err != nil {
		return err
	}
	defer conn.Close()
	// A successful handshake is peer contact: the failure detector
	// cares that the peer answers, not that records flow.
	n.touch(p.ID)

	defer n.closeOnStop(conn)()

	// pos is where reading resumes; ack is the position this node VOUCHES
	// for: applied here and locally durable. They part when the stream goes
	// bad: a follower that rejected records keeps its ack frozen while it
	// probes ahead, because the peer counts acks toward its write quorum,
	// and acking a rejected suffix would help a fork get acknowledged.
	n.mu.Lock()
	pos := n.resume[p.ID]
	ack := n.acked[p.ID]
	n.mu.Unlock()
	if pos == 0 {
		// First contact this incarnation: replaying the peer's whole log
		// would race its pruning, so install an image (only (epoch,
		// version)-newer shards land) and pull from the position it covers.
		if pos, ack, err = n.resync(conn, p.ID, ack); err != nil {
			return err
		}
	}

	resynced := false // the previous pull ended in a state image
	for {
		wait := n.cfg.PullWait
		if resynced {
			wait = 0 // the ack an image could not move moves with the next answer: do not park it
		}
		req := wire.PullRequest{FromLSN: pos, AckLSN: ack, WaitMillis: uint32(wait / time.Millisecond)}
		// The peer parks a caught-up pull for WaitMillis; allow that
		// plus generous slack before declaring the stream dead.
		b, err := replCall(conn, req.Encode(), n.cfg.PullWait+dialTimeout)
		if err != nil {
			return err
		}
		resp, err := wire.ParsePullResponse(b)
		if err != nil {
			return err
		}
		if resp.Status != wire.StatusOK {
			return errors.New("cluster: peer ended replication: " + resp.Status.String())
		}
		n.touch(p.ID)

		// Our tail was pruned out from under us (the peer was not pinned
		// while we were away): re-enter via a state image.
		image := resp.Pruned
		if len(resp.Records) > 0 {
			localLSN, err := n.cfg.Backend.ApplyReplicated(resp.Records)
			if localLSN > 0 {
				// Local fsync BEFORE the ack moves (here or by a resync):
				// the next pull's AckLSN vouches for what applied, so it
				// must be on local disk first — prefix durability.
				if err := n.cfg.Log.WaitDurable(localLSN); err != nil {
					return err
				}
			}
			switch {
			case errors.Is(err, ErrReplGap) && !resynced:
				// Streams carry origin records only: records missed on their
				// one stream meet the next primary as a gap; an image bridges it.
				n.cfg.Logf("cluster: node %s: %v; resyncing from %s in place", n.cfg.NodeID, err, p.ID)
				image = true
			case err != nil:
				// The ack stays where it was. A second gap, a stale or a
				// diverged stream resyncs on the next session; the last two's
				// images do not cover local state, so the ack holds until the
				// peer heals (stale) or an operator steps in (diverged).
				if errors.Is(err, ErrReplDiverged) {
					n.cfg.Logf("cluster: node %s: OPERATOR INTERVENTION NEEDED: history from %s diverged from local state within one epoch: %v",
						n.cfg.NodeID, p.ID, err)
				} else {
					n.cfg.Logf("cluster: node %s: applying batch from %s: %v", n.cfg.NodeID, p.ID, err)
				}
				n.setResume(p.ID, 0, ack)
				return err
			}
		}
		if resynced = image; image {
			if pos, ack, err = n.resync(conn, p.ID, ack); err != nil {
				return err
			}
			continue
		}
		pos = resp.ResumeLSN
		ack = pos
		n.setResume(p.ID, pos, ack)
	}
}

// resync installs the peer's state image and returns where to pull from
// next and the ack, moved there only if the image covered local state.
func (n *Node) resync(conn net.Conn, peer string, ack uint64) (uint64, uint64, error) {
	img, pos, err := n.stateCatchUp(conn)
	if err != nil {
		return 0, ack, err
	}
	covered, err := n.cfg.Backend.InstallState(img)
	if err != nil {
		return 0, ack, err
	}
	if covered {
		ack = pos
	}
	n.setResume(peer, pos, ack)
	return pos, ack, nil
}

// closeOnStop lets Stop unblock conn's reads by closing it, until called off.
func (n *Node) closeOnStop(conn net.Conn) func() {
	done := make(chan struct{})
	go func() {
		select {
		case <-n.stopCh:
			conn.Close()
		case <-done:
		}
	}()
	return func() { close(done) }
}

// replCall writes one request frame and reads its answer within timeout.
func replCall(conn net.Conn, req []byte, timeout time.Duration) ([]byte, error) {
	if err := wire.WriteReplFrame(conn, req); err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	return wire.ReadReplFrame(conn)
}

// stateCatchUp requests a state image on an established replication
// connection.
func (n *Node) stateCatchUp(conn net.Conn) (map[uint32]durable.ShardState, uint64, error) {
	b, err := replCall(conn, wire.EncodeStateRequest(), 30*time.Second) // images can be large
	if err != nil {
		return nil, 0, err
	}
	st, err := wire.ParseStateResponse(b)
	if err != nil {
		return nil, 0, err
	}
	if st.Status != wire.StatusOK {
		return nil, 0, errors.New("cluster: peer refused state image: " + st.Status.String())
	}
	img, err := durable.DecodeState(st.Image)
	if err != nil {
		return nil, 0, err
	}
	return img, st.ResumeLSN, nil
}

func (n *Node) setResume(peer string, pos, ack uint64) {
	n.mu.Lock()
	n.resume[peer] = pos
	if ack > n.acked[peer] {
		n.acked[peer] = ack
	}
	n.mu.Unlock()
}

// acceptLoop is the primary side: it serves replication connections
// from followers until the listener closes.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.stopCh:
				return
			default:
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveRepl(conn)
		}()
	}
}

// serveRepl handles one inbound replication connection: handshake,
// then pulls, state requests and frontier queries until the peer hangs
// up.
func (n *Node) serveRepl(conn net.Conn) {
	defer conn.Close()
	defer n.closeOnStop(conn)()

	conn.SetReadDeadline(time.Now().Add(dialTimeout))
	b, err := wire.ReadReplFrame(conn)
	if err != nil {
		return
	}
	hello, err := wire.ParseReplHello(b)
	if err != nil {
		n.cfg.Logf("cluster: node %s: bad replication handshake from %s: %v", n.cfg.NodeID, conn.RemoteAddr(), err)
		return
	}
	welcome := wire.ReplWelcome{
		Status: wire.StatusOK,
		NodeID: n.cfg.NodeID,
		Shards: uint32(n.cfg.Shards),
		End:    n.cfg.Log.End(),
	}
	if err := wire.WriteReplFrame(conn, welcome.Encode()); err != nil {
		return
	}
	n.touch(hello.NodeID)
	nudge(n.redial[hello.NodeID]) // nil for a stranger: a no-op

	for {
		conn.SetReadDeadline(time.Time{})
		b, err := wire.ReadReplFrame(conn)
		if err != nil {
			return
		}
		kind, pull, err := wire.ParseReplRequest(b)
		if err != nil {
			n.cfg.Logf("cluster: node %s: bad replication request from %s: %v", n.cfg.NodeID, hello.NodeID, err)
			return
		}
		n.touch(hello.NodeID)
		var payload []byte
		switch kind {
		case wire.ReplPull:
			payload = n.servePull(hello.NodeID, pull).Encode()
		case wire.ReplState:
			// Cover BEFORE peek, like WriteSnapshot: records at or below
			// the captured end are in the image; those above may be, and
			// re-deliver on the next pull, where version-skipping absorbs
			// them. Peeking first would make that a silent gap.
			cover := n.cfg.Log.End()
			img := n.cfg.Backend.StateImage()
			payload = wire.StateResponse{
				Status:    wire.StatusOK,
				ResumeLSN: cover,
				Image:     durable.EncodeState(img),
			}.Encode()
		case wire.ReplFrontier:
			vers, epochs := n.cfg.Backend.Frontier()
			payload = wire.FrontierResponse{Status: wire.StatusOK, Vers: vers, Epochs: epochs}.Encode()
		}
		if err := wire.WriteReplFrame(conn, payload); err != nil {
			return
		}
	}
}

// servePull answers one pull: register the piggybacked ack (quorum
// progress + retention pin + liveness), then read a batch of this
// node's own records from the local WAL, long-polling while there are
// none; other origins' records are stepped over (ResumeLSN moves on).
func (n *Node) servePull(from string, req wire.PullRequest) wire.PullResponse {
	n.pullsServed.Add(1)
	n.registerAck(from, req.AckLSN)

	max := int(req.MaxRecords)
	if max <= 0 || max > wire.MaxPullRecords {
		max = wire.MaxPullRecords
	}
	deadline := time.Now().Add(time.Duration(req.WaitMillis) * time.Millisecond)
	for pos := req.FromLSN; ; {
		// Park while caught up, until the log grows or the poll budget ends
		// (a log already past pos returns at once), then read it once.
		n.cfg.Log.WaitEnd(pos+1, time.Until(deadline))
		recs, next, err := n.cfg.Log.ReadRecords(pos, max)
		if errors.Is(err, durable.ErrPruned) {
			return wire.PullResponse{Status: wire.StatusOK, Pruned: true, ResumeLSN: req.FromLSN, End: n.cfg.Log.End()}
		}
		if err != nil {
			n.cfg.Logf("cluster: node %s: reading log for %s: %v", n.cfg.NodeID, from, err)
			return wire.PullResponse{Status: wire.StatusInternal, ResumeLSN: req.FromLSN, End: n.cfg.Log.End()}
		}
		n.mu.Lock()
		recs = slices.DeleteFunc(recs, func(r durable.Record) bool { return !own(r, n.roles) })
		n.mu.Unlock()
		if len(recs) > 0 || next == pos || !time.Now().Before(deadline) {
			n.recordsServed.Add(int64(len(recs)))
			return wire.PullResponse{Status: wire.StatusOK, Records: recs, ResumeLSN: next, End: n.cfg.Log.End()}
		}
		pos = next
	}
}

// registerAck folds a follower's durable-LSN ack into quorum progress
// and moves (or creates) its retention pin.
func (n *Node) registerAck(from string, ack uint64) {
	n.quorum.recordAck(from, ack)
	n.mu.Lock()
	pin, ok := n.pins[from]
	if !ok {
		n.pins[from] = n.cfg.Log.Pin(ack)
	}
	n.mu.Unlock()
	if ok {
		n.cfg.Log.UpdatePin(pin, ack)
	}
}
