package cluster

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kexclusion/internal/durable"
	"kexclusion/internal/wire"
)

// ErrLeaseLost fails an ack-path quorum wait when the primary's lease
// lapsed mid-wait: the write is durable locally but this node can no
// longer vouch that a usurper hasn't taken over the shard, so the op
// must refuse rather than ack.
var ErrLeaseLost = errors.New("cluster: leader lease lost")

// Peer is one cluster member from the static -peers list.
type Peer struct {
	// ID is the member's -node-id.
	ID string
	// ClientAddr is where clients dial it (the redirect hint).
	ClientAddr string
	// ReplAddr is where followers dial its replication listener.
	ReplAddr string
}

// Replication apply failures, classified for the pull loop. The
// backend wraps these so the follower can pick the right recovery:
// a gap resyncs via state image; stale and diverged additionally
// freeze the follower's acks (acking would lend this node's durability
// vote to a history it rejected) and quarantine the stream.
var (
	// ErrReplGap marks a record beyond the next expected version: the
	// record stream cannot bridge local state, fetch a state image.
	ErrReplGap = errors.New("cluster: replicated record stream has a gap")
	// ErrReplStale marks records from an epoch the local shard has
	// moved past: the sender is a deposed primary streaming a fenced
	// fork. Its records must not be applied or acked.
	ErrReplStale = errors.New("cluster: replicated records from a deposed epoch")
	// ErrReplDiverged marks a same-epoch content fork: re-execution or
	// the dedup window disagrees with a record inside local history. One
	// epoch has one writer, so this needs an operator, not a retry.
	ErrReplDiverged = errors.New("cluster: replicated history diverged from local state")
)

// Backend is what the cluster node needs from the server it serves:
// the apply side of replication and the state images promotion and
// catch-up ship around. Defined here (and implemented by
// internal/server) so cluster never imports server. All reconciliation
// is ordered by (epoch, version), lexicographically (durable.Ahead).
type Backend interface {
	// ApplyReplicated folds replicated op records into the local table
	// and WAL, idempotently by (shard, epoch, version): records at or
	// below the local frontier in the local epoch are skipped, the
	// next expected version is applied and locally logged (adopting
	// the record's epoch when it is newer), and records from an older
	// epoch are refused. It returns the highest local WAL LSN the
	// batch produced (0 when everything was skipped) and classifies
	// failures with ErrReplGap, ErrReplStale or ErrReplDiverged.
	ApplyReplicated(recs []durable.Record) (uint64, error)
	// InstallState folds a full per-shard image into the local table,
	// keeping only shards (epoch, version)-ahead of local state, and
	// persists a local snapshot so the catch-up survives a restart.
	// covered reports whether, afterwards, local state is at or beyond
	// the image on every shard it holds — the condition for acking the
	// log position the image came with. A stale image (the sender is
	// behind, or streaming a fenced fork) reports false: installing
	// nothing is fine, but vouching for the sender's log is not.
	InstallState(shards map[uint32]durable.ShardState) (covered bool, err error)
	// Frontier returns every shard's current mutation version and
	// failover epoch (same index, same length).
	Frontier() (vers, epochs []uint64)
	// StateImage returns a consistent per-shard image (dedup windows
	// included) for shipping to a catching-up or promoting peer.
	StateImage() map[uint32]durable.ShardState
	// BumpEpochs advances the failover epoch of each listed shard and
	// persists a snapshot fencing the bump, called by a promotion
	// after catch-up and before serving: every write the new primary
	// applies outranks any straggler from the deposed one.
	BumpEpochs(shards []uint32) error
}

// Config assembles a Node.
type Config struct {
	// NodeID is this node's member ID; it must appear in Peers.
	NodeID string
	// Peers is the full static membership, this node included.
	Peers []Peer
	// Shards is the table width (identical on every member).
	Shards int
	// Quorum is how many nodes (this one included) must have fsynced a
	// batch before the client ack; clamped to [1, len(Peers)].
	Quorum int
	// Log is the local WAL; the serving side reads batches straight
	// from it.
	Log *durable.Log
	// Backend is the local server's apply side.
	Backend Backend
	// FailAfter is how long a peer may stay unreachable before it is
	// suspected dead and its shards fall to ring successors (default
	// 2s).
	FailAfter time.Duration
	// LeaseDuration is how long quorum witness (pull/ack contact from
	// enough peers) keeps this node's leader lease alive. It must be
	// strictly shorter than FailAfter: a deposed primary's lease then
	// expires — and it stops admitting — before any usurper can clear
	// the failure detector and promote. Default FailAfter/2.
	LeaseDuration time.Duration
	// PullWait is the long-poll budget a caught-up pull parks for
	// (default 500ms).
	PullWait time.Duration
	// Logf receives membership and promotion notices.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.FailAfter <= 0 {
		c.FailAfter = 2 * time.Second
	}
	if c.LeaseDuration <= 0 {
		c.LeaseDuration = c.FailAfter / 2
	}
	if c.LeaseDuration >= c.FailAfter {
		return fmt.Errorf("cluster: lease %v must be strictly shorter than fail-after %v (a deposed primary must stop serving before any successor can promote)",
			c.LeaseDuration, c.FailAfter)
	}
	if c.PullWait <= 0 {
		c.PullWait = 500 * time.Millisecond
	}
	// The pull long-poll is the lease's heartbeat carrier: an idle
	// caught-up follower touches this node once per PullWait. Clamp it
	// under half the lease so a healthy-but-idle cluster never lets the
	// lease flap between polls.
	if limit := c.LeaseDuration / 2; c.PullWait > limit {
		c.PullWait = max(limit, 10*time.Millisecond)
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Shards <= 0 {
		return fmt.Errorf("cluster: shards must be positive")
	}
	if c.Log == nil || c.Backend == nil {
		return fmt.Errorf("cluster: Log and Backend are required")
	}
	for _, p := range c.Peers {
		if p.ID == "" || p.ClientAddr == "" || p.ReplAddr == "" {
			return fmt.Errorf("cluster: peer %+v needs id, client addr and repl addr", p)
		}
	}
	if !slices.ContainsFunc(c.Peers, func(p Peer) bool { return p.ID == c.NodeID }) {
		return fmt.Errorf("cluster: node id %q not in peer list", c.NodeID)
	}
	c.Quorum = min(max(c.Quorum, 1), len(c.Peers))
	return nil
}

// Node runs one kexserved's share of the cluster: a replication
// listener serving pulls from its WAL, one pull loop per peer feeding
// the local table, a failure detector over pull outcomes, and the
// per-shard role cells the server consults per request.
type Node struct {
	cfg    Config
	ring   *Ring
	peers  map[string]Peer
	others []Peer // every peer but this node
	quorum *quorumTracker

	ln net.Listener

	mu        sync.Mutex
	roles     []shardRole // one cell per shard: what this node is for it
	lastSeen  map[string]time.Time
	contacted map[string]bool   // peers actually heard from this incarnation
	pins      map[string]int    // follower node ID -> WAL pin handle
	resume    map[string]uint64 // peer node ID -> pull resume position
	acked     map[string]uint64 // peer node ID -> last LSN this node vouched for
	gateHeld  bool              // last promotion attempt was quorum-gated (log once)
	leaseWas  bool              // lease state at the last evaluation (edge detect)
	stopped   bool

	leaseExpirations atomic.Int64 // held -> expired transitions
	leaseDemotions   atomic.Int64 // shards self-demoted on lease expiry
	pullsServed      atomic.Int64 // replication pulls answered from the WAL
	recordsServed    atomic.Int64 // records those pulls shipped
	promotions       atomic.Int64 // shard takeovers completed (promote returned true)
	lastPromotion    atomic.Int64 // ns the latest promote spent on catch-up + epoch bump

	wake   chan struct{}            // touch -> membershipLoop: a predicate's input changed
	redial map[string]chan struct{} // serveRepl -> that peer's pullLoop: it is up, dial now
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// New validates the config, builds the ring, and binds the replication
// listener (so a misconfigured address fails at startup, not at first
// failover). Start launches the loops.
func New(cfg Config) (*Node, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ids := make([]string, len(cfg.Peers))
	peers := make(map[string]Peer, len(cfg.Peers))
	var others []Peer
	for i, p := range cfg.Peers {
		ids[i] = p.ID
		peers[p.ID] = p
		if p.ID != cfg.NodeID {
			others = append(others, p)
		}
	}
	ring, err := NewRing(ids)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", peers[cfg.NodeID].ReplAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: replication listener: %w", err)
	}
	n := &Node{
		cfg:       cfg,
		ring:      ring,
		peers:     peers,
		others:    others,
		quorum:    newQuorumTracker(cfg.Quorum),
		ln:        ln,
		roles:     make([]shardRole, cfg.Shards),
		lastSeen:  make(map[string]time.Time),
		contacted: make(map[string]bool),
		pins:      make(map[string]int),
		resume:    make(map[string]uint64),
		acked:     make(map[string]uint64),
		wake:      make(chan struct{}, 1),
		redial:    make(map[string]chan struct{}, len(others)),
		stopCh:    make(chan struct{}),
	}
	now := time.Now()
	for _, p := range others {
		n.lastSeen[p.ID] = now // grace: nobody is suspect before FailAfter
		n.redial[p.ID] = make(chan struct{}, 1)
	}
	return n, nil
}

// ReplAddr is the bound replication listener address (useful when the
// configured address had port 0).
func (n *Node) ReplAddr() string { return n.ln.Addr().String() }

// Quorum is the effective ack quorum.
func (n *Node) Quorum() int { return n.cfg.Quorum }

// Start launches the accept loop (first: members starting together must
// answer each other's catch-up), catches up from any reachable peer ahead
// of local state, then starts the pull loops and the membership loop. It
// serves nothing yet: every shard, the boot-time claim of ring-owned ones
// included, is served through promote, so a node that cannot see a
// quorum serves nothing and a partitioned minority inflates no history.
func (n *Node) Start() {
	n.wg.Add(2)
	go n.acceptLoop()
	owned := n.ownedShards(func(string) bool { return true })
	n.catchUpFromPeers(owned)
	n.cfg.Logf("cluster: node %s started; claiming %d/%d ring-owned shards via promotion at quorum %d",
		n.cfg.NodeID, len(owned), n.cfg.Shards, n.cfg.Quorum)

	go n.membershipLoop()
	for _, p := range n.others {
		n.wg.Add(1)
		go n.pullLoop(p)
	}
}

// Stop tears the node down: listener closed, loops drained, quorum
// waiters failed.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.mu.Unlock()
	close(n.stopCh)
	n.ln.Close()
	n.quorum.close(errors.New("cluster: node stopped"))
	n.wg.Wait()
}

// Owns reports whether shard is primary here under a held lease. The
// read and admit paths consult it, so an isolated primary stops serving
// the instant its lease lapses, before the membership loop deposes it.
func (n *Node) Owns(shard uint32) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return int(shard) < len(n.roles) && n.roles[shard].role == primary && n.leaseHeldLocked(time.Now())
}

// leaseWitnessesLocked counts this node plus every peer contacted this
// incarnation within LeaseDuration; boot grace stamps do not count.
func (n *Node) leaseWitnessesLocked(now time.Time) int {
	cutoff := now.Add(-n.cfg.LeaseDuration)
	w := 1
	for id := range n.contacted {
		if n.lastSeen[id].After(cutoff) {
			w++
		}
	}
	return w
}

// leaseHeldLocked reports whether a quorum witnesses this node; at
// quorum 1 vacuously, as the ack path depends on no peers either.
func (n *Node) leaseHeldLocked(now time.Time) bool {
	if n.cfg.Quorum <= 1 {
		return true
	}
	return n.leaseWitnessesLocked(now) >= n.cfg.Quorum
}

// LeaseHeld reports whether this node's leader lease is currently
// witnessed by a quorum.
func (n *Node) LeaseHeld() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaseHeldLocked(time.Now())
}

// LeaseDuration is the effective lease interval.
func (n *Node) LeaseDuration() time.Duration { return n.cfg.LeaseDuration }

// LeaseExpirations counts held->expired lease transitions.
func (n *Node) LeaseExpirations() int64 { return n.leaseExpirations.Load() }

// LeaseDemotions counts shards self-demoted on lease expiry.
func (n *Node) LeaseDemotions() int64 { return n.leaseDemotions.Load() }

// Promotions counts the shard takeovers this node has completed.
func (n *Node) Promotions() int64 { return n.promotions.Load() }

// PullsServed counts replication pulls this node has answered.
func (n *Node) PullsServed() int64 { return n.pullsServed.Load() }

// RecordsServed counts the records those pulls shipped.
func (n *Node) RecordsServed() int64 { return n.recordsServed.Load() }

// Timings reports every peer's time since last contact (since this
// node's start for one not heard from), how long until the Quorum-th
// youngest lease witness ages out (0 when not held, or vacuous at quorum
// 1), and the latest promote's catch-up plus epoch bump (0 before one).
func (n *Node) Timings() (ages map[string]time.Duration, margin, promotion time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := time.Now()
	ages = make(map[string]time.Duration, len(n.others))
	var heard []time.Duration
	for _, p := range n.others {
		ages[p.ID] = now.Sub(n.lastSeen[p.ID])
		if n.contacted[p.ID] {
			heard = append(heard, ages[p.ID])
		}
	}
	slices.Sort(heard)
	if q := n.cfg.Quorum; q > 1 && len(heard) >= q-1 && heard[q-2] < n.cfg.LeaseDuration {
		margin = n.cfg.LeaseDuration - heard[q-2]
	}
	return ages, margin, time.Duration(n.lastPromotion.Load())
}

// PrimaryAddr returns the client address of the node believed to own
// shard, for the NotPrimary redirect hint. It is "" when unknown, and
// when that is this node but it is not serving: an isolated node's ring
// collapses to itself, and the refusal carries a Retry-After instead.
func (n *Node) PrimaryAddr(shard uint32) string {
	owner := n.ring.OwnerAmong(shard, n.aliveFn())
	if owner == n.cfg.NodeID && !n.Owns(shard) {
		return ""
	}
	if p, ok := n.peers[owner]; ok {
		return p.ClientAddr
	}
	return ""
}

// quorumTimeout bounds the ack-path quorum wait.
const quorumTimeout = 5 * time.Second

// WaitQuorum blocks until the configured quorum has fsynced lsn (this
// node counts once; the caller waits after local durability). It waits
// in slices and fails with ErrLeaseLost the moment the lease lapses, so
// an isolated primary's writes refuse within ~LeaseDuration, and checks
// the lease once more when satisfied: a late ack raced by an expiry is
// no client ack.
func (n *Node) WaitQuorum(lsn uint64) error {
	if n.cfg.Quorum <= 1 {
		return nil
	}
	slice := max(n.cfg.LeaseDuration/4, 10*time.Millisecond)
	deadline := time.Now().Add(quorumTimeout)
	for {
		if !n.LeaseHeld() {
			return fmt.Errorf("%w: cannot vouch for LSN %d", ErrLeaseLost, lsn)
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("cluster: quorum %d not reached for LSN %d within %v", n.cfg.Quorum, lsn, quorumTimeout)
		}
		err := n.quorum.wait(lsn, min(slice, remain))
		if err == nil {
			if !n.LeaseHeld() {
				return fmt.Errorf("%w: cannot vouch for LSN %d", ErrLeaseLost, lsn)
			}
			return nil
		}
		if !errors.Is(err, errQuorumTimeout) {
			return err
		}
	}
}

// ReplicaLag returns the worst-case replication lag in LSNs across
// followers not currently suspected dead (0 with no live followers).
func (n *Node) ReplicaLag() uint64 {
	alive := n.aliveFn()
	end := n.cfg.Log.End()
	var worst uint64
	for _, p := range n.others {
		if !alive(p.ID) {
			continue
		}
		if a := n.quorum.ackOf(p.ID); end > a && end-a > worst {
			worst = end - a
		}
	}
	return worst
}

// aliveFn snapshots the failure detector as of now.
func (n *Node) aliveFn() func(string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.aliveAt(maps.Clone(n.lastSeen), time.Now())
}

// aliveAt is the failure detector's one rule: this node is always
// alive, a peer is alive while its last contact is within FailAfter —
// suspect at exactly seen+FailAfter, not before.
func (n *Node) aliveAt(seen map[string]time.Time, now time.Time) func(string) bool {
	cutoff := now.Add(-n.cfg.FailAfter)
	return func(id string) bool {
		return id == n.cfg.NodeID || seen[id].After(cutoff)
	}
}

// ownedShards lists the shards the ring assigns to this node under the
// given aliveness.
func (n *Node) ownedShards(alive func(string) bool) []uint32 {
	var out []uint32
	for s := uint32(0); s < uint32(n.cfg.Shards); s++ {
		if n.ring.OwnerAmong(s, alive) == n.cfg.NodeID {
			out = append(out, s)
		}
	}
	return out
}

// touch marks a configured peer as contacted now. Unlike the boot-time
// grace stamp this is REAL contact, the only kind the promotion gate and
// the lease count, so a minority cannot vote absent peers "alive" into its
// quorum; strangers and this node's own ID are ignored. It wakes the
// membership loop when it changes evaluate's answer: a first contact, or
// one from a peer no longer witnessing the lease.
func (n *Node) touch(id string) {
	if _, ok := n.peers[id]; !ok || id == n.cfg.NodeID {
		return
	}
	n.mu.Lock()
	now := time.Now()
	news := !n.contacted[id] || !n.lastSeen[id].After(now.Add(-n.cfg.LeaseDuration))
	n.lastSeen[id], n.contacted[id] = now, true
	n.mu.Unlock()
	if news {
		nudge(n.wake)
	}
}

// nudge leaves a token in a one-slot signal channel unless one is there.
func nudge(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// decision is what one evaluation of the membership rules calls for.
type decision struct {
	held             bool      // a quorum witnesses this node's lease
	witnesses, reach int       // lease witnesses; members a write quorum could count (self included)
	demoted          []uint32  // served shards to drop: the lease lapsed
	lost             []uint32  // served shards to drop: their ring owner is back
	gained           []uint32  // ring-owned shards not served once the drops land
	gated            bool      // gained must wait: reach < quorum, or no lease
	unpin            []string  // suspects whose WAL retention pins to release
	next             time.Time // earliest instant an answer above changes with no message; zero: never
}

// evaluate is the failure detector and promotion gate as a function of
// contact times: ownership and the lease as of now, the shards to promote
// for (gained) and to stop serving at once (serving a returned owner's
// shards would fork its history). The caller holds mu; evaluate changes
// nothing and does no I/O.
func (n *Node) evaluate(now time.Time) decision {
	alive := n.aliveAt(n.lastSeen, now)
	d := decision{held: n.leaseHeldLocked(now), witnesses: n.leaseWitnessesLocked(now), reach: 1}
	// Lease sweep: Owns answers false the instant the lease lapses; this
	// deposes the shards so they re-promote through the one gated path.
	for s, c := range n.roles {
		if c.role != primary {
			continue
		}
		if !d.held {
			d.demoted = append(d.demoted, uint32(s))
		} else if n.ring.OwnerAmong(uint32(s), alive) != n.cfg.NodeID {
			d.lost = append(d.lost, uint32(s))
		}
	}
	for _, s := range n.ownedShards(alive) {
		if !d.held || n.roles[s].role != primary {
			d.gained = append(d.gained, s)
		}
	}
	// Promotion gate: a new epoch outranks everything, so promote only
	// while a write quorum (self plus contacted-and-alive peers) is
	// reachable AND the lease is held. The lease half closes the window
	// between expiry and FailAfter in which an isolated node's peers still
	// look alive: it must not depose on expiry only to re-promote at once.
	for id := range n.contacted {
		if alive(id) {
			d.reach++
		}
	}
	d.gated = d.reach < n.cfg.Quorum || !d.held
	// A dead follower must not hold WAL retention forever. It re-pins at
	// its ack when it comes back.
	for id := range n.pins {
		if !alive(id) {
			d.unpin = append(d.unpin, id)
		}
	}
	// Silence changes an answer at two instants per peer: its witness ages
	// out, and it turns suspect. Every other change is a touch.
	soonest := func(t time.Time) {
		if t.After(now) && (d.next.IsZero() || t.Before(d.next)) {
			d.next = t
		}
	}
	for _, p := range n.others {
		soonest(n.lastSeen[p.ID].Add(n.cfg.FailAfter))
		if n.contacted[p.ID] {
			soonest(n.lastSeen[p.ID].Add(n.cfg.LeaseDuration))
		}
	}
	return d
}

// membershipLoop drives evaluate: once at Start, on every touch that
// can change its answer, and at the deadline it names — never on a
// period. It applies the decision, promotes when allowed, and sleeps.
func (n *Node) membershipLoop() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		d := n.evaluate(time.Now())
		for _, s := range append(d.demoted, d.lost...) { // one of the two is empty
			n.roles[s].step(deposed, 0)
		}
		if n.leaseWas && !d.held {
			n.leaseExpirations.Add(1)
		}
		n.leaseWas = d.held
		n.leaseDemotions.Add(int64(len(d.demoted)))
		waiting := len(d.gained) > 0 && d.gated
		logGate := waiting && !n.gateHeld
		n.gateHeld = waiting
		for _, id := range d.unpin {
			n.cfg.Log.Unpin(n.pins[id])
			delete(n.pins, id)
		}
		n.mu.Unlock()

		if len(d.demoted) > 0 {
			n.cfg.Logf("cluster: node %s lease expired (%d/%d witnesses); self-demoted from shards %v",
				n.cfg.NodeID, d.witnesses, n.cfg.Quorum, d.demoted)
		}
		if len(d.lost) > 0 {
			n.cfg.Logf("cluster: node %s demoted from shards %v (owner returned)", n.cfg.NodeID, d.lost)
		}
		if logGate {
			n.cfg.Logf("cluster: node %s sees %d/%d quorum members (lease held: %v); holding promotion of shards %v",
				n.cfg.NodeID, d.reach, n.cfg.Quorum, d.held, d.gained)
		}
		// The touch that lifts a gate retries a gated promotion; what moved
		// while one ran, on this goroutine, is a token in wake or a deadline
		// now due; a failed one retries after LeaseDuration.
		if len(d.gained) > 0 && !d.gated && !n.promote(d.gained) {
			if retry := time.Now().Add(n.cfg.LeaseDuration); d.next.IsZero() || retry.Before(d.next) {
				d.next = retry
			}
		}
		// A timer is never early: FailAfter - LeaseDuration stays whole. A
		// lone member has no deadline; due stays nil, never ready.
		var due <-chan time.Time
		if !d.next.IsZero() {
			due = time.After(time.Until(d.next))
		}
		select {
		case <-n.stopCh:
			return
		case <-n.wake:
		case <-due:
		}
	}
}

// promote takes over shards, a dead owner's or its own at boot: it
// catches up from every reachable peer, lets promotion choose the shards,
// bumps their epochs so every write it applies outranks the previous
// primary's stragglers, and serves them. It reports whether it did; a
// refusal or a failed bump is retried.
func (n *Node) promote(shards []uint32) bool {
	n.cfg.Logf("cluster: node %s promoting for shards %v", n.cfg.NodeID, shards)
	start := time.Now()
	mint, refusal := promotion(n.cfg.NodeID, shards, n.catchUpFromPeers(shards), n.cfg.Quorum, n.ring, n.aliveFn())
	if refusal != "" {
		n.cfg.Logf("cluster: node %s: %s; not promoting", n.cfg.NodeID, refusal)
		return false
	}
	if len(mint) == 0 {
		return true
	}
	err := n.cfg.Backend.BumpEpochs(mint)
	n.lastPromotion.Store(int64(time.Since(start)))
	if err != nil {
		// Without the fencing epoch the takeover is not safe to serve.
		n.cfg.Logf("cluster: node %s: epoch bump for shards %v failed, not serving: %v", n.cfg.NodeID, mint, err)
		return false
	}
	_, epochs := n.cfg.Backend.Frontier()
	var already []uint32 // primary → primary is no step: the loop promotes only shards it does not serve
	n.mu.Lock()
	for _, s := range mint {
		if !n.roles[s].step(primary, epochs[s]) {
			already = append(already, s)
		}
	}
	n.mu.Unlock()
	if len(already) > 0 {
		n.cfg.Logf("cluster: node %s: shards %v were already primary", n.cfg.NodeID, already)
	}
	n.promotions.Add(1)
	n.cfg.Logf("cluster: node %s now primary for shards %v", n.cfg.NodeID, mint)
	return true
}

// catchUpFromPeers asks every other member for its frontier and, when
// that is aheadOn the listed shards, for its image, which it installs. It
// returns the peers that answered: their frontier arrived and any image
// ahead installed. Only those are known to hold nothing this node lacks.
func (n *Node) catchUpFromPeers(shards []uint32) (answered []string) {
	localV, localE := n.cfg.Backend.Frontier()
	for _, p := range n.others {
		installed, err := n.catchUpFrom(p, shards, localV, localE)
		if err != nil {
			n.cfg.Logf("cluster: node %s: %v", n.cfg.NodeID, err)
			continue
		}
		if installed {
			localV, localE = n.cfg.Backend.Frontier()
			n.cfg.Logf("cluster: node %s caught up from %s", n.cfg.NodeID, p.ID)
		}
		answered = append(answered, p.ID)
	}
	return answered
}

// catchUpFrom is catchUpFromPeers on one peer, over one connection. It
// reports whether an image was installed.
func (n *Node) catchUpFrom(p Peer, shards []uint32, localV, localE []uint64) (bool, error) {
	conn, err := n.dialRepl(p)
	var f wire.FrontierResponse
	if err == nil {
		defer conn.Close()
		var b []byte
		if b, err = replCall(conn, wire.EncodeFrontierRequest(), dialTimeout); err == nil {
			f, err = wire.ParseFrontierResponse(b)
		}
	}
	if err == nil && f.Status != wire.StatusOK {
		err = errors.New(f.Status.String())
	}
	if err != nil {
		return false, fmt.Errorf("frontier from %s unavailable: %w", p.ID, err)
	}
	n.touch(p.ID)
	if !aheadOn(shards, f.Vers, f.Epochs, localV, localE) {
		return false, nil
	}
	img, _, err := n.stateCatchUp(conn)
	if err != nil {
		return false, fmt.Errorf("state from %s unavailable: %w", p.ID, err)
	}
	if _, err := n.cfg.Backend.InstallState(img); err != nil {
		return false, fmt.Errorf("installing state from %s: %w", p.ID, err)
	}
	return true, nil
}

// dialTimeout bounds synchronous peer RPCs (frontier, state fetch).
const dialTimeout = 2 * time.Second

// dialRepl opens a replication connection and completes the handshake.
func (n *Node) dialRepl(p Peer) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", p.ReplAddr, dialTimeout)
	if err != nil {
		return nil, err
	}
	var w wire.ReplWelcome
	b, err := replCall(conn, wire.ReplHello{NodeID: n.cfg.NodeID}.Encode(), dialTimeout)
	if err == nil {
		w, err = wire.ParseReplWelcome(b)
	}
	switch {
	case err != nil:
	case w.Status != wire.StatusOK:
		err = fmt.Errorf("cluster: peer %s refused replication: %s", p.ID, w.Status)
	case int(w.Shards) != n.cfg.Shards:
		err = fmt.Errorf("cluster: peer %s has %d shards, this node %d — mismatched cluster config", p.ID, w.Shards, n.cfg.Shards)
	default:
		conn.SetReadDeadline(time.Time{})
		return conn, nil
	}
	conn.Close()
	return nil, err
}
