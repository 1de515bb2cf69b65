package cluster

import (
	"errors"
	"testing"
	"time"

	"kexclusion/internal/durable"
)

// stubBackend satisfies Backend for config-level tests that never
// start the node.
type stubBackend struct{}

func (stubBackend) ApplyReplicated([]durable.Record) (uint64, durable.Verdict, error) {
	return 0, durable.Applied, nil
}
func (stubBackend) InstallState(map[uint32]durable.ShardState) (bool, error) {
	return true, nil
}
func (stubBackend) Frontier() (vers, epochs []uint64)         { return make([]uint64, 64), make([]uint64, 64) }
func (stubBackend) StateImage() map[uint32]durable.ShardState { return nil }
func (stubBackend) BumpEpochs([]uint32) error                 { return nil }

func leaseTestConfig() Config {
	return Config{
		NodeID: "a",
		Peers: []Peer{
			{ID: "a", ClientAddr: "127.0.0.1:1", ReplAddr: "127.0.0.1:2"},
			{ID: "b", ClientAddr: "127.0.0.1:3", ReplAddr: "127.0.0.1:4"},
			{ID: "c", ClientAddr: "127.0.0.1:5", ReplAddr: "127.0.0.1:6"},
		},
		Shards:  4,
		Quorum:  2,
		Log:     new(durable.Log),
		Backend: stubBackend{},
	}
}

// TestLeaseConfigDefaults pins the lease's derived shape: half the
// failure-detector bound by default, and a pull long-poll clamped
// under half the lease so idle heartbeat traffic always outpaces
// expiry.
func TestLeaseConfigDefaults(t *testing.T) {
	c := leaseTestConfig()
	c.FailAfter = 2 * time.Second
	if err := c.fill(); err != nil {
		t.Fatal(err)
	}
	if c.LeaseDuration != time.Second {
		t.Fatalf("default LeaseDuration = %v, want FailAfter/2 = 1s", c.LeaseDuration)
	}
	if c.PullWait > c.LeaseDuration/2 {
		t.Fatalf("PullWait %v not clamped under LeaseDuration/2 = %v", c.PullWait, c.LeaseDuration/2)
	}

	// An explicit pull wait longer than the heartbeat budget is pulled
	// down, never honored.
	c = leaseTestConfig()
	c.FailAfter = time.Second
	c.LeaseDuration = 400 * time.Millisecond
	c.PullWait = 10 * time.Second
	if err := c.fill(); err != nil {
		t.Fatal(err)
	}
	if c.PullWait != 200*time.Millisecond {
		t.Fatalf("PullWait = %v, want clamp to LeaseDuration/2 = 200ms", c.PullWait)
	}
}

// TestLeaseMustUndercutFailAfter pins the safety ordering: lease >=
// fail-after would let a usurper promote while the deposed primary
// still believes itself leased, i.e. split-brain by configuration.
func TestLeaseMustUndercutFailAfter(t *testing.T) {
	for _, lease := range []time.Duration{time.Second, 2 * time.Second} {
		c := leaseTestConfig()
		c.FailAfter = time.Second
		c.LeaseDuration = lease
		if err := c.fill(); err == nil {
			t.Fatalf("fill accepted lease %v >= fail-after %v", lease, c.FailAfter)
		}
	}
}

// TestLeaseVacuousAtQuorumOne: a lone member (quorum 1) depends on no
// peers for acks, so it must not depend on them for its lease either.
func TestLeaseVacuousAtQuorumOne(t *testing.T) {
	n := &Node{
		cfg:       Config{Quorum: 1, LeaseDuration: time.Millisecond},
		lastSeen:  map[string]time.Time{},
		contacted: map[string]bool{},
	}
	if !n.LeaseHeld() {
		t.Fatal("quorum-1 node does not hold its vacuous lease")
	}
}

// TestLeaseWitnessRules pins who counts as a lease witness: a peer
// contacted within LeaseDuration does; a stale contact does not; and a
// boot-grace lastSeen stamp with no real contact never does — a
// freshly booted minority holds no lease it didn't earn.
func TestLeaseWitnessRules(t *testing.T) {
	now := time.Now()
	n := &Node{
		cfg: Config{Quorum: 2, LeaseDuration: 100 * time.Millisecond},
		lastSeen: map[string]time.Time{
			"b": now, // boot grace only: never contacted
		},
		contacted: map[string]bool{},
	}
	if n.leaseHeldLocked(now) {
		t.Fatal("boot-grace stamp counted as a lease witness")
	}
	n.contacted["b"] = true
	if !n.leaseHeldLocked(now) {
		t.Fatal("fresh real contact did not witness the lease")
	}
	if n.leaseHeldLocked(now.Add(150 * time.Millisecond)) {
		t.Fatal("contact older than LeaseDuration still witnessed the lease")
	}
}

// TestWaitQuorumFailsFastOnLeaseLoss is the expiry-races-quorum-wait
// contract at the tracker level: a primary whose lease lapses while an
// op waits for follower acks must refuse with ErrLeaseLost in
// ~LeaseDuration, not stall out the full quorumTimeout — and certainly
// not ack.
func TestWaitQuorumFailsFastOnLeaseLoss(t *testing.T) {
	n := &Node{
		cfg: Config{
			NodeID:        "a",
			Quorum:        2,
			LeaseDuration: 100 * time.Millisecond,
		},
		quorum:    newQuorumTracker(2),
		lastSeen:  map[string]time.Time{"b": time.Now()},
		contacted: map[string]bool{"b": true},
	}
	start := time.Now()
	err := n.WaitQuorum(7) // no acks will ever arrive
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("WaitQuorum under a lapsing lease = %v, want ErrLeaseLost", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("WaitQuorum took %v to notice the lapsed lease (quorumTimeout is %v; the lease slice must fail fast)", el, quorumTimeout)
	}
}

// TestWaitQuorumRechecksLeaseAfterSatisfaction: a quorum that fills in
// while (or after) the lease lapses must still refuse — the late ack
// proves durability, not that this node is still the writer.
func TestWaitQuorumRechecksLeaseAfterSatisfaction(t *testing.T) {
	n := &Node{
		cfg: Config{
			NodeID:        "a",
			Quorum:        2,
			LeaseDuration: 50 * time.Millisecond,
		},
		quorum:    newQuorumTracker(2),
		lastSeen:  map[string]time.Time{"b": time.Now()},
		contacted: map[string]bool{"b": true},
	}
	// The ack arrives only after the lease has lapsed.
	go func() {
		time.Sleep(120 * time.Millisecond)
		n.quorum.recordAck("b", 7)
	}()
	if err := n.WaitQuorum(7); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("WaitQuorum with a post-expiry ack = %v, want ErrLeaseLost", err)
	}
}

// TestWaitQuorumStillSucceedsUnderLiveLease: the fail-fast slicing
// must not break the happy path — acks arriving under a live lease
// release the waiter.
func TestWaitQuorumStillSucceedsUnderLiveLease(t *testing.T) {
	n := &Node{
		cfg: Config{
			NodeID:        "a",
			Quorum:        2,
			LeaseDuration: 10 * time.Second,
		},
		quorum:    newQuorumTracker(2),
		lastSeen:  map[string]time.Time{"b": time.Now()},
		contacted: map[string]bool{"b": true},
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		n.quorum.recordAck("b", 7)
	}()
	if err := n.WaitQuorum(7); err != nil {
		t.Fatalf("WaitQuorum under a live lease = %v, want success", err)
	}
}
