package server_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"kexclusion/internal/wire"
)

// TestClusterLeaseExpiryRacesQuorumWait is the split-brain window at
// op granularity: a 2-of-2 cluster loses its follower while the
// primary has an op in flight. The quorum wait can never fill in, so
// the op must REFUSE — fast, via the lease lapsing mid-wait — and the
// primary must self-demote; what it must never do is ack. Pre-lease,
// the op stalled the full quorum timeout and the primary kept serving
// reads of a history it could no longer defend.
func TestClusterLeaseExpiryRacesQuorumWait(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node cluster test")
	}
	nodes := startTestCluster(t, 2, 1, 2)
	owner := ownerOf(t, nodes, 0)
	var follower *cnode
	for _, n := range nodes {
		if n != owner {
			follower = n
		}
	}

	c := dial(t, owner.addr)
	defer c.Close()
	if _, err := c.Add(0, 1); err != nil {
		t.Fatalf("Add with both members up: %v", err)
	}

	if err := follower.stop(); err != nil {
		t.Fatalf("stopping follower: %v", err)
	}

	// The next write has no quorum to wait for. FailAfter is 400ms and
	// the quorum timeout 5s; the 200ms lease must surface the refusal
	// well before either.
	start := time.Now()
	_, err := c.Add(0, 1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Add acked with the follower gone at quorum 2")
	}
	var we *wire.Error
	if !errors.As(err, &we) {
		t.Fatalf("Add = %v, want a wire error", err)
	}
	switch we.Status {
	case wire.StatusInternal:
		if !strings.Contains(we.Msg, "lease") {
			t.Fatalf("internal refusal %q does not mention the lease", we.Msg)
		}
	case wire.StatusNotPrimary:
		// Also legal: the membership sweep demoted before the op landed.
	default:
		t.Fatalf("refusal status %v, want internal (lease lost) or not_primary", we.Status)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("refusal took %v; the lease must fail the wait fast, not ride out the quorum timeout", elapsed)
	}

	// The primary is formally deposed: Owns flips, the sweep counts a
	// demotion, and stats say the lease is gone.
	deadline := time.Now().Add(5 * time.Second)
	for owner.srv.Node().Owns(0) {
		if time.Now().After(deadline) {
			t.Fatal("unwitnessed primary still claims shard 0")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for owner.srv.Node().LeaseDemotions() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease sweep never recorded a demotion")
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := owner.srv.Stats()
	if st.LeaseHeld {
		t.Fatal("stats still report the lease held")
	}
	if st.LeaseExpirations == 0 {
		t.Fatal("stats report zero lease expirations after a witnessed->unwitnessed transition")
	}

	// And subsequent ops refuse instantly as not_primary (no hint: the
	// ring collapsed to this node, so the refusal carries Retry-After
	// instead of a redirect target).
	if _, err := c.Add(0, 1); err == nil {
		t.Fatal("deposed primary acked a write")
	} else if errors.As(err, &we) && we.Status == wire.StatusNotPrimary {
		if we.Msg != "" {
			t.Fatalf("deposed lone survivor hinted %q, want no redirect target", we.Msg)
		}
		if we.RetryAfterMillis == 0 {
			t.Fatal("hintless not_primary refusal carries no Retry-After")
		}
	}
}

// TestClusterLoneMemberLeaseIndependence: a -quorum 1 member depends
// on no peers for acks, so its lease must be self-sufficient — it
// serves indefinitely with zero expirations, exactly like the
// unclustered server.
func TestClusterLoneMemberLeaseIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster test")
	}
	nodes := startTestCluster(t, 1, 1, 1)
	owner := ownerOf(t, nodes, 0)
	c := dial(t, owner.addr)
	defer c.Close()
	if _, err := c.Add(0, 1); err != nil {
		t.Fatalf("Add on lone member: %v", err)
	}
	// Sit out several lease intervals (FailAfter 400ms -> lease 200ms)
	// with no peer traffic at all.
	time.Sleep(3 * owner.srv.Node().LeaseDuration())
	if v, err := c.Add(0, 1); err != nil || v != 2 {
		t.Fatalf("Add after idle lease intervals = %d, %v; want 2", v, err)
	}
	st := owner.srv.Stats()
	if !st.LeaseHeld {
		t.Fatal("lone member lost its vacuous lease")
	}
	if st.LeaseExpirations != 0 || st.LeaseDemotions != 0 {
		t.Fatalf("lone member counted expirations=%d demotions=%d, want zero",
			st.LeaseExpirations, st.LeaseDemotions)
	}
}
