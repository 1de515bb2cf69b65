package server_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kexclusion/internal/cluster"
	"kexclusion/internal/netfault"
)

// TestClusterFailoverRecordOnOneStream is the case origin-only streams
// rest on: a record delivered on one stream only. The link from shard
// 0's primary to one follower is held — the follower's pulls reach the
// primary, the answers do not — while writes are acked through the other
// follower, which does not relay them: the held follower has none. Then
// the primary stops and the link heals. The successor (the held
// follower itself, or the other) must serve every acked write exactly
// once, and both survivors must reach the same (epoch, version), the
// held follower with at most one in-place resync from the successor and
// no session with it ending in error (the path that sleeps pullBackoff).
// In the last case the held heir's first catch-up query to the other
// survivor, the only member holding the acked writes, fails: the heir
// must not take over until that survivor answers.
func TestClusterFailoverRecordOnOneStream(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node cluster test")
	}
	t.Run("held follower is the heir", func(t *testing.T) { recordOnOneStream(t, true, false) })
	t.Run("held follower is not the heir", func(t *testing.T) { recordOnOneStream(t, false, false) })
	t.Run("held heir's frontier query fails once", func(t *testing.T) { recordOnOneStream(t, true, true) })
}

func recordOnOneStream(t *testing.T, heldIsHeir, frontierFailsOnce bool) {
	const acked = 20
	peers := testPeers(t, 3)
	ids := []string{peers[0].ID, peers[1].ID, peers[2].ID}
	ring, err := cluster.NewRing(ids)
	if err != nil {
		t.Fatal(err)
	}
	primary := slices.Index(ids, ring.Owner(0))
	heir := slices.Index(ids, ring.OwnerAmong(0, func(id string) bool { return id != ids[primary] }))
	held := heir
	if !heldIsHeir {
		held = 3 - primary - heir
	}
	other := 3 - primary - held

	link, err := netfault.New(peers[primary].ReplAddr, netfault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	otherLink, err := netfault.New(peers[other].ReplAddr, netfault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	defer otherLink.Close()
	heldPeers := slices.Clone(peers)
	heldPeers[primary].ReplAddr = link.Addr() // the held follower reaches the primary through the link
	heldPeers[other].ReplAddr = otherLink.Addr()

	var mu sync.Mutex
	var heldLog []string
	logf := func(format string, args ...any) {
		mu.Lock()
		heldLog = append(heldLog, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	dir := t.TempDir()
	nodes := make([]*cnode, len(peers))
	defer func() { stopAll(t, nodes) }()
	for i := range peers {
		if i == held {
			nodes[i] = bootNode(t, dir, heldPeers, i, 1, 2, logf)
		} else {
			nodes[i] = bootNode(t, dir, peers, i, 1, 2)
		}
	}
	if owner := ownerOf(t, nodes, 0); owner != nodes[primary] {
		t.Fatalf("%s serves shard 0, the ring names %s", owner.id, ids[primary])
	}
	waitReplicated(t, nodes) // every stream is up, the held one included

	link.SetPartition(netfault.Down)
	c := dial(t, nodes[primary].addr)
	for i := int64(1); i <= acked; i++ {
		if v, err := c.Add(0, 1); err != nil || v != i {
			t.Fatalf("Add %d through the primary = %d, %v", i, v, err)
		}
	}
	c.Close()
	// The held follower has pulled the other follower's whole log, where
	// every acked record sits — and has none of them: nothing relays.
	waitReplicated(t, []*cnode{nodes[other]})
	if vers, _ := nodes[held].srv.Frontier(); vers[0] != 0 {
		t.Fatalf("the held follower is at version %d: a record reached it on a second stream", vers[0])
	}

	mu.Lock()
	seen := len(heldLog)
	mu.Unlock()
	if frontierFailsOnce {
		otherLink.SetPartition(netfault.Both) // the next query waits out its deadline
	}
	if err := nodes[primary].stop(); err != nil {
		t.Fatal(err)
	}
	link.Heal()
	if frontierFailsOnce {
		awaitLine(t, &mu, &heldLog, seen, "frontier from "+ids[other]+" unavailable")
		otherLink.Heal()
	}
	if owner := ownerOf(t, nodes, 0); owner != nodes[heir] {
		t.Fatalf("%s took shard 0 over, the ring names %s", owner.id, ids[heir])
	}
	c = dial(t, nodes[heir].addr)
	defer c.Close()
	if v, err := c.Get(0); err != nil || v != acked {
		t.Fatalf("Get(0) on the successor = %d, %v; want every acked write once: %d", v, err, acked)
	}
	if v, err := c.Add(0, 1); err != nil || v != acked+1 {
		t.Fatalf("Add on the successor = %d, %v; want %d", v, err, acked+1)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		hv, he := nodes[heir].srv.Frontier()
		ov, oe := nodes[3-primary-heir].srv.Frontier()
		if hv[0] == acked+1 && ov[0] == hv[0] && oe[0] == he[0] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("frontiers never met: successor (v%d, e%d), other survivor (v%d, e%d)", hv[0], he[0], ov[0], oe[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	resyncs := 0
	for _, line := range heldLog {
		if strings.Contains(line, "in place") && strings.Contains(line, ids[heir]) {
			resyncs++
		}
		if strings.Contains(line, "applying batch from "+ids[heir]) {
			t.Errorf("a session with the successor ended in error: %s", line)
		}
	}
	if resyncs > 1 {
		t.Errorf("%d in-place resyncs from the successor, want at most one", resyncs)
	}
	t.Logf("the held follower resynced in place %d time(s)", resyncs)
}

// awaitLine waits until a line of *log past its first from entries
// contains want.
func awaitLine(t *testing.T, mu *sync.Mutex, log *[]string, from int, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		found := slices.ContainsFunc((*log)[from:], func(line string) bool { return strings.Contains(line, want) })
		mu.Unlock()
		if found {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no log line %q", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
