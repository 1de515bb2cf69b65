package server_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// startServer builds, binds and serves a server on an ephemeral port,
// returning its address and a stop function that asserts a clean drain.
func startServer(t testing.TB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-served; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return srv, addr.String()
}

func dial(t testing.TB, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		cfg  server.Config
		want string
	}{
		{server.Config{N: 4, K: 0, Shards: 1}, "k must be at least 1"},
		{server.Config{N: 2, K: 4, Shards: 1}, "n >= k"},
		{server.Config{N: 4, K: 2, Shards: 0}, "shards must be at least 1"},
		{server.Config{N: 4, K: 2, Shards: 1, Impl: "nonesuch"}, "unknown implementation"},
		{server.Config{N: 4, K: 1, Shards: 1, Impl: "mcs"}, "not (k-1)-resilient"},
		{server.Config{N: 4, K: 2, Shards: 1, IdleTimeout: -time.Second}, "idle timeout"},
		{server.Config{N: 4, K: 2, Shards: 1, OpTimeout: -time.Second}, "op timeout"},
	}
	for _, tc := range cases {
		_, err := server.New(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%+v): got %v, want error containing %q", tc.cfg, err, tc.want)
		}
	}
	if _, err := server.New(server.Config{N: 4, K: 4, Shards: 1}); err != nil {
		t.Errorf("n == k rejected: %v", err)
	}
}

func TestBasicOps(t *testing.T) {
	srv, addr := startServer(t, server.Config{N: 4, K: 2, Shards: 2})
	c := dial(t, addr)
	defer c.Close()

	if c.Identity() < 0 || c.Identity() >= 4 {
		t.Fatalf("identity %d out of range", c.Identity())
	}
	if h := c.Hello(); h.N != 4 || h.K != 2 || h.Shards != 2 {
		t.Fatalf("hello shape %+v", h)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Add(0, 5); err != nil || v != 5 {
		t.Fatalf("Add = %d, %v", v, err)
	}
	if v, err := c.Add(0, -2); err != nil || v != 3 {
		t.Fatalf("Add = %d, %v", v, err)
	}
	if err := c.Set(1, 100); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get(1); err != nil || v != 100 {
		t.Fatalf("Get = %d, %v", v, err)
	}
	if v, err := c.Get(0); err != nil || v != 3 {
		t.Fatalf("shards not independent: Get(0) = %d, %v", v, err)
	}

	// Out-of-range shard surfaces as a typed error, session stays usable.
	var we *wire.Error
	if _, err := c.Get(99); !errors.As(err, &we) || we.Status != wire.StatusBadShard {
		t.Fatalf("Get(99) = %v, want bad_shard", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("session unusable after bad shard: %v", err)
	}

	// Stats endpoint: both the wire form and the server's own snapshot.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 4 || st.K != 2 || st.Shards != 2 || st.Impl != "fastpath" {
		t.Fatalf("stats shape %+v", st)
	}
	if st.ActiveSessions != 1 || st.Admitted != 1 {
		t.Fatalf("session counters %+v", st)
	}
	// Shard 0 took a slot for its two adds; the three gets (the refused
	// one included) took none.
	if len(st.PerShard) != 2 || st.PerShard[0].AppliedOps != 2 || st.ReadFastpath != 3 {
		t.Fatalf("per-shard metrics %+v, read_fastpath %d", st.PerShard, st.ReadFastpath)
	}
	if got := srv.Stats(); got.Admitted != st.Admitted {
		t.Fatalf("server/wire stats disagree: %+v vs %+v", got, st)
	}
}

func TestConcurrentClients(t *testing.T) {
	const (
		n, k, shards = 8, 3, 4
		clients      = 8
		opsPer       = 50
	)
	// AdmitTimeout lets the verification dial below park briefly: it
	// races the server noticing the eight workers' EOFs, and with
	// immediate-reject admission that race occasionally loses.
	_, addr := startServer(t, server.Config{N: n, K: k, Shards: shards, AdmitTimeout: 5 * time.Second})

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			shard := uint32(i % shards)
			for j := 0; j < opsPer; j++ {
				if _, err := c.Add(shard, 1); err != nil {
					t.Errorf("client %d op %d: %v", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	c := dial(t, addr)
	defer c.Close()
	total := int64(0)
	for sh := uint32(0); sh < shards; sh++ {
		v, err := c.Get(sh)
		if err != nil {
			t.Fatal(err)
		}
		total += v
	}
	if want := int64(clients * opsPer); total != want {
		t.Fatalf("lost updates: total %d, want %d", total, want)
	}
}

func TestAdmissionBackpressure(t *testing.T) {
	_, addr := startServer(t, server.Config{N: 2, K: 1, Shards: 1})
	c1 := dial(t, addr)
	defer c1.Close()
	c2 := dial(t, addr)

	// Connection N+1 is rejected with busy, not a hang or a panic.
	_, err := client.Dial(addr)
	var we *wire.Error
	if !errors.As(err, &we) || we.Status != wire.StatusBusy {
		t.Fatalf("connection N+1: got %v, want busy", err)
	}

	// Close one session; its identity frees and a new client admits.
	c2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := client.Dial(addr)
		if err == nil {
			c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("identity never freed after clean close: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAdmissionParking(t *testing.T) {
	_, addr := startServer(t, server.Config{N: 1, K: 1, Shards: 1, AdmitTimeout: 5 * time.Second})
	c1 := dial(t, addr)

	// Free the only identity shortly; the parked dial should then admit
	// well within the window instead of being bounced.
	go func() {
		time.Sleep(50 * time.Millisecond)
		c1.Close()
	}()
	start := time.Now()
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("parked connection not admitted: %v", err)
	}
	defer c2.Close()
	if time.Since(start) > 4*time.Second {
		t.Fatalf("parking took %v, want prompt admission after release", time.Since(start))
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestHardCloseInsideCore is the acceptance test: a client's socket is
// hard-closed (RST) while its session is inside the wait-free core —
// holding a k-assignment slot and a name — and the server must (a) keep
// serving every other client, and (b) eventually reclaim the dead
// session's identity.
func TestHardCloseInsideCore(t *testing.T) {
	const n, k = 4, 2
	gate := make(chan struct{})
	entered := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	cfg := server.Config{
		N: n, K: k, Shards: 1,
		// The first Add to pass through the core stalls on the gate.
		ApplyGate: func(shard uint32, kind wire.Kind) {
			if kind == wire.KindAdd && armed.CompareAndSwap(true, false) {
				close(entered)
				<-gate
			}
		},
	}
	srv, addr := startServer(t, cfg)

	victim := dial(t, addr)
	victimDone := make(chan error, 1)
	go func() {
		_, err := victim.Add(0, 1)
		victimDone <- err
	}()
	<-entered // the victim's session now holds a slot inside the core

	// Crash fault: kill the socket while the operation is in flight.
	if err := victim.HardClose(); err != nil {
		t.Fatal(err)
	}

	// Liveness: with one of k=2 slots held by a dead session, other
	// clients still make bounded progress through the same shard.
	c1, c2 := dial(t, addr), dial(t, addr)
	defer c1.Close()
	defer c2.Close()
	for i := 0; i < 20; i++ {
		if _, err := c1.Add(0, 1); err != nil {
			t.Fatalf("c1 op %d while dead session holds a slot: %v", i, err)
		}
		if _, err := c2.Add(0, 1); err != nil {
			t.Fatalf("c2 op %d while dead session holds a slot: %v", i, err)
		}
	}

	// The victim's client must observe the crash, not a result.
	if err := <-victimDone; err == nil {
		t.Fatal("victim's Add returned a response over a hard-closed socket")
	}

	// Let the stalled operation finish: the server completes it
	// (operations received before the disconnect still linearize),
	// discovers the dead socket, and reclaims the identity.
	close(gate)

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.ActiveSessions == 2 && st.Reclaimed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim identity never reclaimed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The reclaimed identity is reusable: fill the pool to exactly N.
	var extra []*client.Client
	defer func() {
		for _, c := range extra {
			c.Close()
		}
	}()
	for len(extra) < n-2 {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatalf("pool not refillable after reclaim: %v", err)
		}
		extra = append(extra, c)
	}

	// The victim's in-flight Add completed server-side before reclaim:
	// 1 (victim) + 40 (c1+c2).
	if v, err := c1.Get(0); err != nil || v != 41 {
		t.Fatalf("counter = %d, %v; want 41 (victim's op linearized before teardown)", v, err)
	}
}

func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	cfg := server.Config{
		N: 4, K: 2, Shards: 1,
		ApplyGate: func(shard uint32, kind wire.Kind) {
			if kind == wire.KindAdd {
				once.Do(func() { close(started) })
				<-release
			}
		},
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()

	c := dial(t, addr.String())
	defer c.Close()
	idle := dial(t, addr.String())
	defer idle.Close()

	opDone := make(chan error, 1)
	var got int64
	go func() {
		v, err := c.Add(0, 7)
		got = v
		opDone <- err
	}()
	<-started

	// Drain while the Add is in flight; release the gate shortly after
	// so the in-flight operation can complete inside the deadline.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}

	// The in-flight operation completed with its response delivered.
	if err := <-opDone; err != nil || got != 7 {
		t.Fatalf("in-flight op during drain: v=%d err=%v", got, err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}

	// New connections are refused outright.
	if _, err := client.Dial(addr.String()); err == nil {
		t.Fatal("dial succeeded after drain")
	}
	if st := srv.Stats(); !st.Draining || st.ActiveSessions != 0 {
		t.Fatalf("post-drain stats %+v", st)
	}
}

func TestDrainDeadline(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	cfg := server.Config{
		N: 2, K: 1, Shards: 1,
		ApplyGate: func(shard uint32, kind wire.Kind) {
			if kind == wire.KindAdd {
				once.Do(func() { close(started) })
				<-release
			}
		},
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		close(release) // let the stalled session finish and tear down
		<-served
	}()

	c := dial(t, addr.String())
	defer c.Close()
	go c.Add(0, 1)
	<-started

	// The gate never releases within the deadline: Shutdown must give
	// up with ctx's error instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("Shutdown took %v past its deadline", time.Since(start))
	}
}

func TestStatsJSONDeterministicSchema(t *testing.T) {
	srv, err := server.New(server.Config{N: 2, K: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := srv.Stats().JSON()
	for _, key := range []string{`"n"`, `"k"`, `"shards"`, `"impl"`, `"active_sessions"`, `"per_shard"`, `"idle_reclaims"`, `"op_deadlines"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("stats JSON missing %s: %s", key, b)
		}
	}
	if _, err := wire.ParseStats(b); err != nil {
		t.Fatal(err)
	}
}

func TestServeBeforeListen(t *testing.T) {
	srv, err := server.New(server.Config{N: 2, K: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err == nil {
		t.Fatal("Serve before Listen succeeded")
	}
}

func TestRegistryImplChoices(t *testing.T) {
	// Every resilient, shape-flexible registry implementation can guard
	// the admission edge.
	for _, impl := range []string{"inductive", "tree", "fastpath", "graceful", "localspin", "lsfastpath", "counting", "chansem"} {
		impl := impl
		t.Run(impl, func(t *testing.T) {
			_, addr := startServer(t, server.Config{N: 3, K: 2, Shards: 1, Impl: impl})
			c := dial(t, addr)
			defer c.Close()
			if v, err := c.Add(0, 3); err != nil || v != 3 {
				t.Fatalf("Add = %d, %v", v, err)
			}
			if st, err := c.Stats(); err != nil || st.Impl != impl {
				t.Fatalf("stats impl = %+v, %v", st, err)
			}
		})
	}
}
