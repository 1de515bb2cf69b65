package cluster

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"kexclusion/internal/durable"
)

// TestStartConcurrentMembers: members whose Starts overlap answer each
// other's start-up catch-up at once. Start queries every peer's frontier
// before it returns; while the accept loop was launched only after that
// query, three members starting together each waited out dialTimeout
// on a peer's unanswered handshake.
func TestStartConcurrentMembers(t *testing.T) {
	peers := make([]Peer, 3)
	for i, id := range []string{"a", "b", "c"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = Peer{ID: id, ClientAddr: "127.0.0.1:1", ReplAddr: ln.Addr().String()}
		ln.Close() // New binds it again
	}
	nodes := make([]*Node, len(peers))
	for i, p := range peers {
		log, _, err := durable.Open(durable.Options{Dir: t.TempDir(), Policy: durable.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { log.Close() })
		n, err := New(Config{NodeID: p.ID, Peers: peers, Shards: 1, Quorum: 2, Log: log, Backend: stubBackend{}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop) // before the log closes: cleanups run last-in first-out
		nodes[i] = n
	}

	took := make(chan time.Duration, len(nodes))
	for _, n := range nodes {
		go func() {
			start := time.Now()
			n.Start()
			took <- time.Since(start)
		}()
	}
	for range nodes {
		if d := <-took; d > dialTimeout/4 {
			t.Errorf("Start returned after %v; a member starting beside its peers must not wait out their handshakes (dialTimeout %v)", d, dialTimeout)
		}
	}
}

// TestPromoteNeedsAnsweringQuorum: streams carry origin records only, so
// a write acked through the dead primary and one follower may live on
// that follower alone. A promotion whose catch-up did not hear from
// enough peers to complete a quorum must not mint: it fails, and the
// membership loop retries it.
func TestPromoteNeedsAnsweringQuorum(t *testing.T) {
	peers := make([]Peer, 2)
	for i, id := range []string{"a", "b"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = Peer{ID: id, ClientAddr: "127.0.0.1:1", ReplAddr: ln.Addr().String()}
		ln.Close() // b is never bound: its frontier query fails
	}
	log, _, err := durable.Open(durable.Options{Dir: t.TempDir(), Policy: durable.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	backend := &bumpRecorder{}
	a, err := New(Config{NodeID: "a", Peers: peers, Shards: 1, Quorum: 2, Log: log, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	if a.promote([]uint32{0}) {
		t.Fatal("promote succeeded with no peer answering its catch-up at quorum 2")
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if len(backend.minted) > 0 || a.Owns(0) {
		t.Fatalf("a failed promotion minted %v, serves shard 0: %v", backend.minted, a.Owns(0))
	}
}

// bumpRecorder records the shards BumpEpochs mints for.
type bumpRecorder struct {
	stubBackend
	mu     sync.Mutex
	minted []uint32
}

func (b *bumpRecorder) BumpEpochs(shards []uint32) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.minted = append(b.minted, shards...)
	return nil
}

// TestPromoteLeavesAnsweringOwnersShards: a member back from a partition
// can evaluate while one peer has not been heard from yet, and claim
// that peer's shards. Its catch-up then reaches the peer, which is alive
// and serving them: the promotion must mint only the shards it owns with
// that peer counted alive, not a second epoch line for the peer's.
func TestPromoteLeavesAnsweringOwnersShards(t *testing.T) {
	const shards = 8
	peers := make([]Peer, 2)
	for i, id := range []string{"a", "b"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = Peer{ID: id, ClientAddr: "127.0.0.1:1", ReplAddr: ln.Addr().String()}
		ln.Close()
	}
	backend := &bumpRecorder{}
	nodes := make([]*Node, 2)
	for i, p := range peers {
		log, _, err := durable.Open(durable.Options{Dir: t.TempDir(), Policy: durable.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { log.Close() })
		var be Backend = stubBackend{}
		if i == 0 {
			be = backend
		}
		if nodes[i], err = New(Config{NodeID: p.ID, Peers: peers, Shards: shards, Quorum: 2, Log: log, Backend: be}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nodes[i].Stop)
	}
	a, b := nodes[0], nodes[1]
	b.wg.Add(1)
	go b.acceptLoop() // b answers, but a has not heard from it in an hour
	a.mu.Lock()
	a.lastSeen["b"] = time.Now().Add(-time.Hour)
	a.mu.Unlock()

	all := make([]uint32, shards)
	for s := range all {
		all[s] = uint32(s)
	}
	own := a.ownedShards(func(string) bool { return true })
	if len(own) == 0 || len(own) == shards {
		t.Fatalf("the ring gives a %d of %d shards; the test needs b to own some", len(own), shards)
	}
	if !a.promote(all) {
		t.Fatal("promote failed")
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if !slices.Equal(backend.minted, own) {
		t.Fatalf("minted epochs for shards %v, want a's own %v: b answered the catch-up", backend.minted, own)
	}
	for _, s := range all {
		if a.Owns(s) != slices.Contains(own, s) {
			t.Fatalf("a serves shard %d: %v, owns it: %v", s, a.Owns(s), slices.Contains(own, s))
		}
	}
}
