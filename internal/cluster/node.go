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
	// ErrReplDiverged marks a same-epoch content fork: the record's
	// version is inside local history but re-execution or the dedup
	// window disagrees with it. Within one epoch there is one writer,
	// so this is data loss or corruption — it needs an operator, not a
	// retry.
	ErrReplDiverged = errors.New("cluster: replicated history diverged from local state")
)

// Backend is what the cluster node needs from the server it serves:
// the apply side of replication and the state images promotion and
// catch-up ship around. Defined here (and implemented by
// internal/server) so cluster never imports server.
//
// All reconciliation is ordered by (epoch, version), lexicographically:
// a shard's epoch advances on every primary takeover, and a deposed
// primary's version counter keeps inflating with writes that were
// never quorum-acked — so a higher epoch at a LOWER version still
// supersedes. Comparing bare versions is exactly the bug this ordering
// exists to prevent.
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
	// QuorumTimeout bounds the ack-path quorum wait (default 5s).
	QuorumTimeout time.Duration
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
		c.PullWait = limit
		if c.PullWait < 10*time.Millisecond {
			c.PullWait = 10 * time.Millisecond
		}
	}
	if c.QuorumTimeout <= 0 {
		c.QuorumTimeout = 5 * time.Second
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
	found := false
	for _, p := range c.Peers {
		if p.ID == c.NodeID {
			found = true
		}
		if p.ID == "" || p.ClientAddr == "" || p.ReplAddr == "" {
			return fmt.Errorf("cluster: peer %+v needs id, client addr and repl addr", p)
		}
	}
	if !found {
		return fmt.Errorf("cluster: node id %q not in peer list", c.NodeID)
	}
	c.Quorum = min(max(c.Quorum, 1), len(c.Peers))
	return nil
}

// Node runs one kexserved's share of the cluster: a replication
// listener serving pulls from its WAL, one pull loop per peer feeding
// the local table, a failure detector over pull outcomes, and the
// shard-ownership map the server consults per request.
type Node struct {
	cfg    Config
	ring   *Ring
	peers  map[string]Peer
	others []Peer // every peer but this node
	quorum *quorumTracker

	ln net.Listener

	mu        sync.Mutex
	serving   map[uint32]bool   // shards this node currently serves
	minted    map[uint32]uint64 // shard -> epoch this node's latest promotion minted: its own records
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
		serving:   make(map[uint32]bool),
		minted:    make(map[uint32]uint64),
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

// Start brings the node to service: it launches the accept loop (first:
// members starting together must answer each other's catch-up), catches
// up from any reachable peer ahead of local state (a restarted node
// rejoining must not serve stale shards), then the per-peer pull loops
// and the failure detector. It does NOT serve anything yet — every
// serving transition, the boot-time claim of ring-owned shards included,
// goes through the membership loop's promote path, which is quorum-gated
// and bumps the shard epochs. One path means one set of rules: a node
// that cannot see a quorum serves nothing, so a partitioned minority
// cannot inflate a history it would later try to impose on the majority.
func (n *Node) Start() {
	n.wg.Add(2)
	go n.acceptLoop()
	owned := n.ownedShards(func(string) bool { return true })
	if len(n.others) > 0 {
		n.catchUpFromPeers(owned)
	}
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

// Owns reports whether this node currently serves shard. Serving is
// lease-gated: a primary whose quorum witness has gone quiet for a
// full LeaseDuration answers false here immediately, before the
// membership loop formally demotes it — the read path and the admit
// path both consult Owns, so an isolated primary stops admitting
// writes and serving unleased reads within one lease interval.
func (n *Node) Owns(shard uint32) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.serving[shard] && n.leaseHeldLocked(time.Now())
}

// leaseWitnessesLocked counts the nodes currently witnessing this
// node's lease: itself, plus every peer actually contacted this
// incarnation whose last contact is within LeaseDuration. Boot grace
// stamps don't count — an unwitnessed node holds no lease it didn't
// earn.
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

// leaseHeldLocked reports whether a quorum currently witnesses this
// node. At quorum 1 the lease is vacuously held: a lone member (or an
// explicitly unreplicated deployment) depends on no peers, exactly as
// its ack path does.
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

// PrimaryAddr returns the client address of the node currently
// believed to own shard ("" when unknown), for the NotPrimary redirect
// hint. An isolated node's ring collapses to itself — hinting its own
// address would bounce clients right back — so when the computed owner
// is this node but it is not actually serving (lease expired, or
// promotion gated), the hint is empty and the refusal carries a
// Retry-After instead.
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

// WaitQuorum blocks until the configured quorum has fsynced lsn (the
// local node counts once; the caller waits only after local
// durability). The wait re-checks the lease the same way the server's
// ack path re-checks epochs: it proceeds in short slices and fails
// fast with ErrLeaseLost the moment the lease lapses — an isolated
// primary's in-flight writes refuse within ~LeaseDuration instead of
// stalling the full QuorumTimeout for acks that can never arrive. The
// lease is re-checked once more after the tracker is satisfied, so a
// late ack raced by an expiry cannot sneak out as a client ack.
func (n *Node) WaitQuorum(lsn uint64) error {
	if n.cfg.Quorum <= 1 {
		return nil
	}
	slice := n.cfg.LeaseDuration / 4
	if slice < 10*time.Millisecond {
		slice = 10 * time.Millisecond
	}
	deadline := time.Now().Add(n.cfg.QuorumTimeout)
	for {
		if !n.LeaseHeld() {
			return fmt.Errorf("%w: cannot vouch for LSN %d", ErrLeaseLost, lsn)
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("cluster: quorum %d not reached for LSN %d within %v",
				n.cfg.Quorum, lsn, n.cfg.QuorumTimeout)
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

// touch marks a peer as contacted now. Unlike the boot-time grace
// stamp, a touch records REAL contact — the promotion quorum gate and
// the lease witness count only touched peers, so a freshly booted (or
// freshly partitioned-off) minority cannot vote absent peers "alive"
// into its quorum. IDs outside the membership (diagnostic probes, a
// misconfigured stranger) and this node's own ID are ignored: only a
// configured peer can witness a lease.
//
// A touch wakes the membership loop when it changes evaluate's answer:
// a first contact, or one from a peer no longer witnessing the lease.
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

// evaluate is the failure detector and promotion rule as a function of
// contact times: it recomputes shard ownership and the lease as of now
// and names the shards to promote for (gained) and to stop serving at
// once (a returning owner is ahead only of shards it just caught up;
// serving them here again would fork the history). The caller holds
// mu; evaluate changes nothing and does no I/O.
func (n *Node) evaluate(now time.Time) decision {
	alive := n.aliveAt(n.lastSeen, now)
	d := decision{held: n.leaseHeldLocked(now), witnesses: n.leaseWitnessesLocked(now), reach: 1}
	// Lease sweep: an expired-lease primary self-demotes every shard it
	// serves. Owns already answers false the instant the lease lapses;
	// this makes it formal (lifecycle callback, counters, one log line)
	// so the shards re-promote through the one gated path when the
	// quorum witness returns.
	for s := range n.serving {
		if !d.held {
			d.demoted = append(d.demoted, s)
		} else if n.ring.OwnerAmong(s, alive) != n.cfg.NodeID {
			d.lost = append(d.lost, s)
		}
	}
	for _, s := range n.ownedShards(alive) {
		if !d.held || !n.serving[s] {
			d.gained = append(d.gained, s)
		}
	}
	// Promotion quorum gate: taking over shards mints a new epoch, and a
	// new epoch outranks everything — so minting is allowed only when
	// this node can actually reach a write quorum (itself plus
	// contacted-and-alive peers) AND holds a live lease. The lease half
	// closes the window between lease expiry and FailAfter where an
	// isolated node's peers still look alive: it must not demote on
	// expiry only to re-promote at once. A partitioned minority stays a
	// follower; its stale serving set already drained via the lease
	// sweep or `lost`, or never formed. Quorum 1 passes vacuously,
	// preserving lone-member operation.
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
			delete(n.serving, s)
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

// promote takes over shards — a dead owner's, or this node's own at
// boot: it closes the quorum-exactness gap by catching up from every
// reachable peer, and goes on only if it and those that answered form a
// quorum (an acked record lives on a quorum, which meets this one;
// streams carry origin records only, so nothing else brings the record
// here), mints the shards' next epoch so every
// write it will apply outranks any straggler from the previous primary,
// then serves. The warm replica state makes this a frontier check plus
// at most one state fetch, not a cold replay. It reports whether the
// shards are now served; too few answers is a failure, retried.
func (n *Node) promote(shards []uint32) bool {
	n.cfg.Logf("cluster: node %s promoting for shards %v", n.cfg.NodeID, shards)
	start := time.Now()
	if answered := n.catchUpFromPeers(shards); answered+1 < n.cfg.Quorum {
		n.cfg.Logf("cluster: node %s: %d/%d peers answered its catch-up, need %d; not promoting",
			n.cfg.NodeID, answered, len(n.others), n.cfg.Quorum-1)
		return false
	}
	// A peer that answered the catch-up is alive: its shards are not ours.
	alive := n.aliveFn()
	if shards = slices.DeleteFunc(shards, func(s uint32) bool { return n.ring.OwnerAmong(s, alive) != n.cfg.NodeID }); len(shards) == 0 {
		return true
	}
	err := n.cfg.Backend.BumpEpochs(shards)
	n.lastPromotion.Store(int64(time.Since(start)))
	if err != nil {
		// Without the fencing epoch the takeover is not safe to serve.
		n.cfg.Logf("cluster: node %s: epoch bump for shards %v failed, not serving: %v", n.cfg.NodeID, shards, err)
		return false
	}
	_, epochs := n.cfg.Backend.Frontier()
	n.mu.Lock()
	for _, s := range shards {
		n.serving[s], n.minted[s] = true, epochs[s]
	}
	n.mu.Unlock()
	n.promotions.Add(1)
	n.cfg.Logf("cluster: node %s now primary for shards %v", n.cfg.NodeID, shards)
	return true
}

// catchUpFromPeers queries every reachable peer's frontier and
// installs a state image from each peer (epoch, version)-ahead of
// local state on any of the listed shards. The lexicographic order is
// the point: after a fork, the acknowledged history lives at a higher
// epoch but possibly a LOWER version than a deposed primary's
// never-acked tail — a bare version comparison would skip exactly the
// peer that holds the data. It reports how many peers answered: their
// frontier arrived and, when it was ahead, their image installed. Only
// those are known to hold nothing this node lacks.
func (n *Node) catchUpFromPeers(shards []uint32) (answered int) {
	localV, localE := n.cfg.Backend.Frontier()
	for _, p := range n.others {
		frontV, frontE, err := n.queryFrontier(p)
		if err != nil {
			n.cfg.Logf("cluster: node %s: frontier from %s unavailable: %v", n.cfg.NodeID, p.ID, err)
			continue
		}
		n.touch(p.ID)
		ahead := false
		for _, s := range shards {
			if int(s) >= len(frontV) {
				continue
			}
			if durable.Ahead(frontE[s], frontV[s], localE[s], localV[s]) {
				ahead = true
				break
			}
		}
		if !ahead {
			answered++
			continue
		}
		conn, _, err := n.dialRepl(p)
		var img map[uint32]durable.ShardState
		if err == nil {
			img, _, err = n.stateCatchUp(conn)
			conn.Close()
		}
		if err != nil {
			n.cfg.Logf("cluster: node %s: state from %s unavailable: %v", n.cfg.NodeID, p.ID, err)
			continue
		}
		if _, err := n.cfg.Backend.InstallState(img); err != nil {
			n.cfg.Logf("cluster: node %s: installing state from %s: %v", n.cfg.NodeID, p.ID, err)
			continue
		}
		localV, localE = n.cfg.Backend.Frontier()
		answered++
		n.cfg.Logf("cluster: node %s caught up from %s", n.cfg.NodeID, p.ID)
	}
	return answered
}

// dialTimeout bounds synchronous peer RPCs (frontier, state fetch).
const dialTimeout = 2 * time.Second

// dialRepl opens a replication connection and completes the handshake.
func (n *Node) dialRepl(p Peer) (net.Conn, wire.ReplWelcome, error) {
	conn, err := net.DialTimeout("tcp", p.ReplAddr, dialTimeout)
	if err != nil {
		return nil, wire.ReplWelcome{}, err
	}
	if err := wire.WriteReplFrame(conn, wire.ReplHello{NodeID: n.cfg.NodeID}.Encode()); err != nil {
		conn.Close()
		return nil, wire.ReplWelcome{}, err
	}
	conn.SetReadDeadline(time.Now().Add(dialTimeout))
	b, err := wire.ReadReplFrame(conn)
	if err != nil {
		conn.Close()
		return nil, wire.ReplWelcome{}, err
	}
	conn.SetReadDeadline(time.Time{})
	w, err := wire.ParseReplWelcome(b)
	if err != nil {
		conn.Close()
		return nil, wire.ReplWelcome{}, err
	}
	if w.Status != wire.StatusOK {
		conn.Close()
		return nil, wire.ReplWelcome{}, fmt.Errorf("cluster: peer %s refused replication: %s", p.ID, w.Status)
	}
	if int(w.Shards) != n.cfg.Shards {
		conn.Close()
		return nil, wire.ReplWelcome{}, fmt.Errorf("cluster: peer %s has %d shards, this node %d — mismatched cluster config", p.ID, w.Shards, n.cfg.Shards)
	}
	return conn, w, nil
}

// queryFrontier fetches a peer's per-shard (version, epoch) frontier.
func (n *Node) queryFrontier(p Peer) (vers, epochs []uint64, err error) {
	conn, _, err := n.dialRepl(p)
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	b, err := replCall(conn, wire.EncodeFrontierRequest(), dialTimeout)
	if err != nil {
		return nil, nil, err
	}
	f, err := wire.ParseFrontierResponse(b)
	if err != nil {
		return nil, nil, err
	}
	if f.Status != wire.StatusOK {
		return nil, nil, fmt.Errorf("cluster: peer %s frontier: %s", p.ID, f.Status)
	}
	return f.Vers, f.Epochs, nil
}
