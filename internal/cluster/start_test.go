package cluster

import (
	"errors"
	"net"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"kexclusion/internal/durable"
)

// newNodes reserves a replication address for each of ids and builds a
// Node on the first bind of them, at quorum 2, each with its own log and
// backend(id); the rest stay unbound and refuse dials. A reserved port can
// go to a parallel test before New binds it again: when New fails with
// EADDRINUSE, everything starts over on fresh ports, up to 3 attempts.
func newNodes(t *testing.T, ids []string, bind, shards int, backend func(id string) Backend) []*Node {
	t.Helper()
	for attempt := 1; ; attempt++ {
		peers := make([]Peer, len(ids))
		for i, id := range ids {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			peers[i] = Peer{ID: id, ClientAddr: "127.0.0.1:1", ReplAddr: ln.Addr().String()}
			ln.Close()
		}
		var nodes []*Node
		var err error
		for _, p := range peers[:bind] {
			log, _, lerr := durable.Open(durable.Options{Dir: t.TempDir(), Policy: durable.SyncNever})
			if lerr != nil {
				t.Fatal(lerr)
			}
			t.Cleanup(func() { log.Close() })
			var n *Node
			if n, err = New(Config{NodeID: p.ID, Peers: peers, Shards: shards, Quorum: 2, Log: log, Backend: backend(p.ID)}); err != nil {
				break
			}
			t.Cleanup(n.Stop) // before the log closes: cleanups run last-in first-out
			nodes = append(nodes, n)
		}
		if err == nil {
			return nodes
		}
		if !errors.Is(err, syscall.EADDRINUSE) || attempt == 3 {
			t.Fatal(err)
		}
	}
}

// TestStartConcurrentMembers: members whose Starts overlap answer each
// other's start-up catch-up at once. Start queries every peer's frontier
// before it returns; while the accept loop was launched only after that
// query, three members starting together each waited out dialTimeout
// on a peer's unanswered handshake.
func TestStartConcurrentMembers(t *testing.T) {
	nodes := newNodes(t, []string{"a", "b", "c"}, 3, 1, func(string) Backend { return stubBackend{} })
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

// TestCatchUpAnswered is what only the I/O half of a promotion can show:
// a peer whose frontier query is refused is not in answered, and a peer
// that answers is, its image installed when its frontier is ahead. What
// a promotion then decides from answered is TestPromotion's.
func TestCatchUpAnswered(t *testing.T) {
	a := &installRecorder{}
	nodes := newNodes(t, []string{"a", "b", "c"}, 2, 1, func(id string) Backend {
		if id == "a" {
			return a
		}
		return aheadBackend{}
	})
	b := nodes[1]
	b.wg.Add(1)
	go b.acceptLoop() // c is never bound: its frontier query is refused
	if got := nodes[0].catchUpFromPeers([]uint32{0}); !slices.Equal(got, []string{"b"}) {
		t.Fatalf("answered = %v, want [b]", got)
	}
	if got := a.installs.Load(); got != 1 {
		t.Fatalf("%d images installed, want b's one: its frontier is ahead", got)
	}
}

// installRecorder counts the images installed.
type installRecorder struct {
	stubBackend
	installs atomic.Int32
}

func (r *installRecorder) InstallState(map[uint32]durable.ShardState) (bool, error) {
	r.installs.Add(1)
	return true, nil
}

// aheadBackend's frontier is one version ahead of stubBackend's on
// every shard.
type aheadBackend struct{ stubBackend }

func (aheadBackend) Frontier() (vers, epochs []uint64) {
	vers, epochs = stubBackend{}.Frontier()
	for i := range vers {
		vers[i] = 1
	}
	return vers, epochs
}
