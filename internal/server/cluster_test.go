package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"kexclusion/internal/cluster"
	"kexclusion/internal/durable"
	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// cnode is one member of an in-process test cluster.
type cnode struct {
	id   string
	addr string // client address
	srv  *server.Server
	stop func() error
	dead bool
}

// reservePort grabs an ephemeral localhost port and releases it for
// immediate reuse. The tiny window before the server rebinds it is the
// standard test trade-off for needing every address in every node's
// config before any node exists.
func reservePort(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// testPeers reserves client and replication addresses for size members.
func testPeers(t testing.TB, size int) []cluster.Peer {
	t.Helper()
	peers := make([]cluster.Peer, size)
	for i := range peers {
		peers[i] = cluster.Peer{
			ID:         fmt.Sprintf("node-%d", i),
			ClientAddr: reservePort(t),
			ReplAddr:   reservePort(t),
		}
	}
	return peers
}

// bootNode builds member i of peers with a tight failure detector,
// binds it and starts serving; logf, when given, receives its log.
func bootNode(t testing.TB, dir string, peers []cluster.Peer, i, shards, quorum int, logf ...func(string, ...any)) *cnode {
	t.Helper()
	p := peers[i]
	cfg := server.Config{
		N:       4,
		K:       2,
		Shards:  shards,
		DataDir: filepath.Join(dir, p.ID),
		Fsync:   durable.SyncAlways,
		Cluster: &server.ClusterConfig{
			NodeID:        p.ID,
			Peers:         peers,
			Quorum:        quorum,
			FailAfter:     400 * time.Millisecond,
			PullWait:      50 * time.Millisecond,
			QuorumTimeout: 5 * time.Second,
		},
	}
	if len(logf) > 0 {
		cfg.Logf = logf[0]
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen(p.ClientAddr); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	n := &cnode{id: p.ID, addr: p.ClientAddr, srv: srv}
	n.stop = func() error {
		if n.dead {
			return nil
		}
		n.dead = true
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; serr != nil && err == nil {
			err = serr
		}
		return err
	}
	return n
}

// stopAll stops whatever the test has not already killed.
func stopAll(t testing.TB, nodes []*cnode) {
	for _, n := range nodes {
		if err := n.stop(); err != nil {
			t.Errorf("stopping %s: %v", n.id, err)
		}
	}
}

// startTestCluster boots a size-node cluster on ephemeral ports with a
// tight failure detector, and registers cleanup for whatever the test
// has not already killed.
func startTestCluster(t testing.TB, size, shards, quorum int) []*cnode {
	t.Helper()
	peers := testPeers(t, size)
	dir := t.TempDir()
	nodes := make([]*cnode, size)
	for i := range peers {
		nodes[i] = bootNode(t, dir, peers, i, shards, quorum)
	}
	t.Cleanup(func() { stopAll(t, nodes) })
	return nodes
}

// ownerOf finds the live node currently serving shard.
func ownerOf(t testing.TB, nodes []*cnode, shard uint32) *cnode {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range nodes {
			if !n.dead && n.srv.Node().Owns(shard) {
				return n
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("no live node serves shard %d", shard)
	return nil
}

// waitReplicated polls until every live node's followers have acked its
// whole WAL (worst-case replica lag zero everywhere).
func waitReplicated(t testing.TB, nodes []*cnode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		lag := int64(0)
		for _, n := range nodes {
			if n.dead {
				continue
			}
			if l := n.srv.Stats().ReplicaLagLSN; l > lag {
				lag = l
			}
		}
		if lag == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("replicas never caught up")
}

// TestClusterReplicationRedirectAndFailover is the end-to-end story:
// ops land on ring owners under a 2-of-3 quorum, misrouted ops bounce
// with the owner's address, and killing a primary moves its shards —
// with exact state — to a successor.
func TestClusterReplicationRedirectAndFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node cluster test")
	}
	const shards = 4
	nodes := startTestCluster(t, 3, shards, 2)

	// A misrouted op is refused with the owner's client address, before
	// it touches the object.
	owner0 := ownerOf(t, nodes, 0)
	var wrong *cnode
	for _, n := range nodes {
		if n != owner0 {
			wrong = n
			break
		}
	}
	cw := dial(t, wrong.addr)
	var we *wire.Error
	if _, err := cw.Add(0, 1); !errors.As(err, &we) || we.Status != wire.StatusNotPrimary {
		t.Fatalf("Add on non-owner = %v, want not_primary", err)
	}
	if we.Msg != owner0.addr {
		t.Fatalf("redirect hint %q, want owner %q", we.Msg, owner0.addr)
	}
	if got := wrong.srv.Stats().NotPrimaryRedirects; got < 1 {
		t.Fatalf("NotPrimaryRedirects = %d after a redirect", got)
	}
	cw.Close()

	// Write through each shard's owner; every ack waited for the 2-of-3
	// quorum, so by the time Add returns the record is on two disks.
	want := make(map[uint32]int64)
	conns := make(map[*cnode]*client.Client)
	for s := uint32(0); s < shards; s++ {
		o := ownerOf(t, nodes, s)
		c, ok := conns[o]
		if !ok {
			c = dial(t, o.addr)
			conns[o] = c
		}
		for i := int64(1); i <= 5; i++ {
			v, err := c.Add(s, i)
			if err != nil {
				t.Fatalf("Add(%d, %d) on %s: %v", s, i, o.id, err)
			}
			want[s] += i
			if v != want[s] {
				t.Fatalf("Add(%d) = %d, want %d", s, v, want[s])
			}
		}
		if acks := o.srv.Stats().QuorumAcks; acks < 5 {
			t.Fatalf("%s QuorumAcks = %d after 5 quorum-gated ops", o.id, acks)
		}
	}
	for _, c := range conns {
		c.Close()
	}
	waitReplicated(t, nodes)

	// Kill shard 0's primary. Its shards must fall to live successors
	// carrying the exact acked state.
	victim := ownerOf(t, nodes, 0)
	if err := victim.stop(); err != nil {
		t.Fatalf("stopping %s: %v", victim.id, err)
	}
	heir := ownerOf(t, nodes, 0)
	if heir == victim {
		t.Fatal("dead node still listed as owner")
	}
	ch := dial(t, heir.addr)
	defer ch.Close()
	if v, err := ch.Get(0); err != nil || v != want[0] {
		t.Fatalf("Get(0) on successor %s = %d, %v; want %d", heir.id, v, err, want[0])
	}
	// The survivor pair still clears the 2-of-3 quorum, so writes keep
	// flowing after the failover.
	if v, err := ch.Add(0, 7); err != nil || v != want[0]+7 {
		t.Fatalf("post-failover Add = %d, %v; want %d", v, err, want[0]+7)
	}
	if heir.srv.Node().Promotions() < 1 {
		t.Fatalf("successor %s reports no promotions", heir.id)
	}

	// The remaining non-owner redirects to the new primary once its
	// failure detector has caught up.
	var other *cnode
	for _, n := range nodes {
		if n != heir && !n.dead {
			other = n
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if hint := other.srv.Node().PrimaryAddr(0); hint == heir.addr {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s never redirected shard 0 to %s", other.id, heir.id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterPromotionGatedBelowQuorum is the minority-takeover guard:
// a member that has never reached a quorum of the cluster (here: one
// node of three at quorum 2, peers never started) must not promote
// itself for ANY shard, no matter how long its failure detector has
// considered the absent peers dead. Pre-fix, such a node declared its
// peers suspect after FailAfter and took over every shard — the exact
// split-brain seed the review flagged.
func TestClusterPromotionGatedBelowQuorum(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node cluster test")
	}
	peers := []cluster.Peer{
		{ID: "a", ClientAddr: reservePort(t), ReplAddr: reservePort(t)},
		{ID: "b", ClientAddr: reservePort(t), ReplAddr: reservePort(t)},
		{ID: "c", ClientAddr: reservePort(t), ReplAddr: reservePort(t)},
	}
	const shards = 4
	srv, err := server.New(server.Config{
		N: 4, K: 2, Shards: shards,
		DataDir: filepath.Join(t.TempDir(), "a"),
		Fsync:   durable.SyncAlways,
		Cluster: &server.ClusterConfig{
			NodeID: "a", Peers: peers, Quorum: 2,
			FailAfter: 400 * time.Millisecond, PullWait: 50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen(peers[0].ClientAddr); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	// Watch for several failure-detector periods: plenty of time for the
	// pre-fix behavior (suspect peers, promote) to manifest.
	deadline := time.Now().Add(4 * 400 * time.Millisecond)
	for time.Now().Before(deadline) {
		for s := uint32(0); s < shards; s++ {
			if srv.Node().Owns(s) {
				t.Fatalf("isolated minority promoted itself for shard %d", s)
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if p := srv.Node().Promotions(); p != 0 {
		t.Fatalf("isolated minority completed %d promotions", p)
	}
}

// TestClusterQuorumOneDoesNotWaitForFollowers pins the -quorum 1 mode:
// acks release on local durability alone, so a cluster of one live
// primary (followers never started) still serves.
func TestClusterQuorumOneDoesNotWaitForFollowers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node cluster test")
	}
	peers := []cluster.Peer{
		{ID: "a", ClientAddr: reservePort(t), ReplAddr: reservePort(t)},
		{ID: "b", ClientAddr: reservePort(t), ReplAddr: reservePort(t)},
		{ID: "c", ClientAddr: reservePort(t), ReplAddr: reservePort(t)},
	}
	srv, err := server.New(server.Config{
		N: 4, K: 2, Shards: 1,
		DataDir: filepath.Join(t.TempDir(), "a"),
		Fsync:   durable.SyncAlways,
		Cluster: &server.ClusterConfig{
			NodeID: "a", Peers: peers, Quorum: 1,
			FailAfter: 400 * time.Millisecond, PullWait: 50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen(peers[0].ClientAddr); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	// Shard 0 may be placed on an absent peer; once the failure detector
	// marks both peers suspect, the lone member promotes itself for
	// every shard.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Node().Owns(0) {
		if time.Now().After(deadline) {
			t.Fatal("lone member never took over shard 0 from its absent peers")
		}
		time.Sleep(20 * time.Millisecond)
	}
	c := dial(t, peers[0].ClientAddr)
	defer c.Close()
	if v, err := c.Add(0, 1); err != nil || v != 1 {
		t.Fatalf("Add on lone primary at quorum 1 = %d, %v", v, err)
	}
}

// TestClusterServesOnContactAndRedialsOnHello is the wiring test for
// the event-driven control plane, over real sockets. Both bounds are
// below what a polling loop can reach by construction: at FailAfter
// 400ms a FailAfter/4 tick first looks 100ms after Start, and a pull
// loop whose dial was refused sleeps out a 200ms backoff. node-0 starts
// alone and is refused by both peers; node-1 and node-2 follow.
//
//   - Every shard is served within 100ms of the last boot, node-2's own
//     included: the contact that completes a quorum is what promotes.
//   - node-2 has answered two pulls within 50ms of its boot. Nothing is
//     written, so its log does not grow and a follower's first pull
//     parks for the 50ms PullWait: two pulls are node-0's and node-1's,
//     and node-0's pull loop did not wait out its backoff — node-2's
//     hello ended it.
//
// The bounds are structural, the machine is shared: the best of three
// boots has to meet them.
func TestClusterServesOnContactAndRedialsOnHello(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node cluster test")
	}
	var serve, session time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		serve, session = bootStaggered(t)
		if serve < 100*time.Millisecond && session < 50*time.Millisecond {
			return
		}
		t.Logf("boot %d: every shard served after %v, node-2 pulled from by both peers after %v", attempt, serve, session)
	}
	t.Fatalf("at best: every shard served %v after the last boot (want < 100ms), node-0 and node-1 pulling from node-2 after %v (want < 50ms)", serve, session)
}

// bootStaggered boots node-0, lets its first dials be refused, boots
// node-1 and node-2, and reports how long after node-2's boot every
// shard was served and node-2 had answered two pulls.
func bootStaggered(t *testing.T) (serve, session time.Duration) {
	const shards = 16
	peers := testPeers(t, 3)
	dir := t.TempDir()
	var nodes []*cnode
	defer func() { stopAll(t, nodes) }()
	nodes = append(nodes, bootNode(t, dir, peers, 0, shards, 2))
	time.Sleep(30 * time.Millisecond)
	nodes = append(nodes, bootNode(t, dir, peers, 1, shards, 2))
	nodes = append(nodes, bootNode(t, dir, peers, 2, shards, 2))
	booted := time.Now()
	for serve == 0 || session == 0 {
		if time.Since(booted) > 10*time.Second {
			t.Fatalf("10s after boot: every shard served after %v, two pulls at node-2 after %v (0 = never)", serve, session)
		}
		served := 0
		for s := uint32(0); s < shards; s++ {
			for _, n := range nodes {
				if n.srv.Node().Owns(s) {
					served++
				}
			}
		}
		if serve == 0 && served == shards {
			if nodes[2].srv.Node().Promotions() == 0 {
				t.Fatal("the ring gives node-2 no shard: the serve bound would not cover the last member's own promotion")
			}
			serve = time.Since(booted)
		}
		if session == 0 && nodes[2].srv.Node().PullsServed() >= 2 {
			session = time.Since(booted)
		}
		time.Sleep(time.Millisecond)
	}
	return serve, session
}
