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

// phase is where a follower's stream toward one peer stands.
type phase uint8

const (
	fresh     phase = iota // no position here: the next session opens with an image
	streaming              // caught up: a pull parks, and a gap resyncs in place
	resynced               // an image just landed: the next pull does not park, and a gap hangs up
)

// stream is a follower's standing toward one peer. pos is where the next
// pull reads from; ack is the position this node VOUCHES for, applied
// here and locally durable. The peer counts acks toward its write quorum,
// so a refused stream keeps its ack: acking it would help a fork.
type stream struct {
	phase    phase
	pos, ack uint64
}

// next is what a stream does after an exchange.
type next uint8

const (
	pull       next = iota // pull from pos, parking only while streaming
	fetchImage             // fetch and install a state image on this connection
	hangUp                 // end the session; retry after pullBackoff
	quarantine             // end the session; retry after quarantineBackoff
)

// event is the kind of exchange a session had with the peer.
type event uint8

const (
	opened    event = iota // a session opened
	installed              // an image installed
	pruned                 // a pull answered Pruned
	folded                 // a pull's batch was applied and made durable, or was empty
	broke                  // transport, parse, status or local fsync failure
)

// learned is what one exchange told the stream.
type learned struct {
	event   event
	lsn     uint64          // installed: the image's cover; folded: the pull's ResumeLSN
	covered bool            // installed: local state is at or beyond the image on every shard
	refused durable.Verdict // folded: the verdict that stopped the batch (Applied: none)
	failed  bool            // folded: the batch stopped, refused or otherwise
}

// follow is the follower's one rule: the stream after an exchange and
// what to do next. It does no I/O, takes no lock and reads no clock.
func follow(s stream, l learned) (stream, next) {
	switch l.event {
	case opened:
		if s.phase == fresh {
			// Replaying the peer's whole log would race its pruning: install
			// an image (only (epoch, version)-newer shards land) first.
			return s, fetchImage
		}
		return s, pull
	case installed:
		// An image that lost a shard to a newer local epoch came from a
		// deposed or lagging sender: pull on, but vouch for none of its log.
		s.phase, s.pos = resynced, l.lsn
		if l.covered {
			s.ack = l.lsn
		}
		return s, pull
	case pruned:
		return s, fetchImage
	case folded:
		if !l.failed {
			return stream{streaming, l.lsn, l.lsn}, pull
		}
		gone := stream{fresh, 0, s.ack}
		switch l.refused {
		case durable.Gap, durable.Rewrite:
			// Streams carry origin records only: records missed on their one
			// stream meet the next primary as a gap, and an image bridges it.
			// A gap right after an image is one no image bridges.
			if s.phase == streaming {
				return s, fetchImage
			}
			return gone, hangUp
		case durable.Fenced, durable.Diverged:
			// The peer replays a fenced fork (it heals by catching up itself)
			// or a same-epoch content fork (it never heals).
			return gone, quarantine
		}
		return gone, hangUp
	}
	return s, hangUp
}

// pullLoop is the follower side of replication against one peer: dial,
// then let follow steer the session, forever. The stream outlives a
// connection in memory; a restarted process starts fresh.
func (n *Node) pullLoop(p Peer) {
	defer n.wg.Done()
	var s stream
	for {
		select {
		case <-n.stopCh:
			return
		default:
		}
		nx, err := n.pullSession(p, &s)
		// A hello from p proves it is up and ends the wait after a dial it
		// did not answer (a token from an earlier hello costs one early
		// retry); any other failure, a quarantine above all, waits in full.
		backoff, up := pullBackoff, (chan struct{})(nil)
		if op := (*net.OpError)(nil); errors.As(err, &op) && op.Op == "dial" {
			up = n.redial[p.ID]
		} else if nx == quarantine {
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

// pullSession runs one replication connection, carrying out what follow
// calls for on *s until it hangs up, and returns how it ended and why.
func (n *Node) pullSession(p Peer, s *stream) (next, error) {
	conn, err := n.dialRepl(p)
	if err != nil {
		return hangUp, err
	}
	defer conn.Close()
	// A successful handshake is peer contact: the failure detector
	// cares that the peer answers, not that records flow.
	n.touch(p.ID)
	defer n.closeOnStop(conn)()

	var nx next
	for l := (learned{event: opened}); ; {
		if *s, nx = follow(*s, l); l.failed {
			switch {
			case nx == fetchImage:
				n.cfg.Logf("cluster: node %s: %v; resyncing from %s in place", n.cfg.NodeID, err, p.ID)
			case l.refused == durable.Diverged:
				n.cfg.Logf("cluster: node %s: OPERATOR INTERVENTION NEEDED: history from %s diverged from local state within one epoch: %v", n.cfg.NodeID, p.ID, err)
			default:
				n.cfg.Logf("cluster: node %s: applying batch from %s: %v", n.cfg.NodeID, p.ID, err)
			}
		}
		l = learned{event: broke}
		switch nx {
		case hangUp, quarantine:
			return nx, err
		case fetchImage:
			if l.lsn, l.covered, err = n.installImage(conn); err == nil {
				l.event = installed
			}
		case pull:
			l, err = n.pullOnce(conn, p.ID, *s)
		}
	}
}

// pullOnce pulls from s.pos, acking s.ack, and folds the answer into
// the local table. The local fsync comes before the ack can move: the
// next pull's AckLSN vouches for what applied, so it must be on local
// disk first — prefix durability.
func (n *Node) pullOnce(conn net.Conn, peer string, s stream) (learned, error) {
	wait := n.cfg.PullWait
	if s.phase == resynced {
		wait = 0 // the ack an image could not move moves with the next answer: do not park it
	}
	req := wire.PullRequest{FromLSN: s.pos, AckLSN: s.ack, WaitMillis: uint32(wait / time.Millisecond)}
	// The peer parks a caught-up pull for WaitMillis; allow that
	// plus generous slack before declaring the stream dead.
	b, err := replCall(conn, req.Encode(), n.cfg.PullWait+dialTimeout)
	var resp wire.PullResponse
	if err == nil {
		resp, err = wire.ParsePullResponse(b)
	}
	if err == nil && resp.Status != wire.StatusOK {
		err = errors.New("cluster: peer ended replication: " + resp.Status.String())
	}
	if err != nil {
		return learned{event: broke}, err
	}
	n.touch(peer)
	if resp.Pruned {
		return learned{event: pruned}, nil // our tail was pruned while the peer did not pin it
	}
	lsn, refused, err := n.cfg.Backend.ApplyReplicated(resp.Records)
	if lsn > 0 {
		if err := n.cfg.Log.WaitDurable(lsn); err != nil {
			return learned{event: broke}, err
		}
	}
	return learned{event: folded, lsn: resp.ResumeLSN, refused: refused, failed: err != nil}, err
}

// installImage fetches the peer's state image on conn and installs it:
// the log position the image covers, and whether local state is at or
// beyond it on every shard afterwards.
func (n *Node) installImage(conn net.Conn) (cover uint64, covered bool, err error) {
	b, err := replCall(conn, wire.EncodeStateRequest(), 30*time.Second) // images can be large
	var st wire.StateResponse
	if err == nil {
		st, err = wire.ParseStateResponse(b)
	}
	if err == nil && st.Status != wire.StatusOK {
		err = errors.New("cluster: peer refused state image: " + st.Status.String())
	}
	if err != nil {
		return 0, false, err
	}
	img, err := durable.DecodeState(st.Image)
	if err == nil {
		covered, err = n.cfg.Backend.InstallState(img)
	}
	return st.ResumeLSN, covered, err
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
