package server_test

import (
	"encoding/binary"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"kexclusion/internal/server"
	"kexclusion/internal/wire"
)

// rawDial performs the admission handshake without the client package,
// returning the naked connection for protocol-abuse tests.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello, err := wire.ReadHello(conn)
	if err != nil {
		conn.Close()
		t.Fatalf("handshake: %v", err)
	}
	if hello.Status != wire.StatusOK {
		conn.Close()
		t.Fatalf("handshake status %v", hello.Status)
	}
	conn.SetDeadline(time.Time{})
	return conn
}

// awaitStats polls the server until cond holds or the deadline passes.
func awaitStats(t *testing.T, srv *server.Server, what string, cond func(wire.Stats) bool) wire.Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never observed: %+v", what, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestIdleWatchdogReclaimsSilentSession is the acceptance test for the
// session watchdog: a client that goes silent (a partition, a stalled
// process, a pulled cable) loses its identity within the watchdog
// bound, every other client keeps completing operations throughout, and
// the reclaimed identity is leasable again.
func TestIdleWatchdogReclaimsSilentSession(t *testing.T) {
	const idle = 150 * time.Millisecond
	srv, addr := startServer(t, server.Config{N: 2, K: 1, Shards: 1, IdleTimeout: idle})

	silent := dial(t, addr) // goes quiet after the handshake
	busy := dial(t, addr)
	defer busy.Close()

	// The busy client must not notice its neighbor's silence: keep it
	// completing ops across the whole watchdog window.
	stop := make(chan struct{})
	busyErr := make(chan error, 1)
	go func() {
		defer close(busyErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := busy.Add(0, 1); err != nil {
				busyErr <- err
				return
			}
		}
	}()

	start := time.Now()
	// The reclaim counter moves before the session's deferred release, so
	// the settled state is both together.
	awaitStats(t, srv, "idle reclaim with one session left", func(st wire.Stats) bool {
		return st.IdleReclaims >= 1 && st.ActiveSessions == 1
	})
	// "Within the watchdog bound": generous multiple for a loaded CI
	// box, but far from unbounded.
	if elapsed := time.Since(start); elapsed > 20*idle {
		t.Fatalf("reclaim took %v, bound is the %v watchdog", elapsed, idle)
	}

	close(stop)
	if err, ok := <-busyErr; ok && err != nil {
		t.Fatalf("busy client broken by neighbor's reclaim: %v", err)
	}

	// The reclaimed identity is leasable again: with N=2 and the busy
	// session still admitted, this dial only succeeds on the freed one.
	again := dial(t, addr)
	if err := again.Ping(); err != nil {
		t.Fatalf("re-leased identity unusable: %v", err)
	}
	again.Close()

	// The silenced client's next operation observes the teardown.
	if err := silent.Ping(); err == nil {
		t.Fatal("silent client's session survived the watchdog")
	}
}

// TestIdleWatchdogMidFrameStall covers the sharper form of silence: the
// client sends part of a frame and stalls. The read deadline spans the
// whole frame, so the watchdog still fires and reclaims the identity.
func TestIdleWatchdogMidFrameStall(t *testing.T) {
	const idle = 150 * time.Millisecond
	srv, addr := startServer(t, server.Config{N: 1, K: 1, Shards: 1, IdleTimeout: idle})

	conn := rawDial(t, addr)
	defer conn.Close()
	// Announce a 10-byte frame, deliver 3 bytes, go quiet.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 10)
	conn.Write(hdr[:])
	conn.Write([]byte{1, 2, 3})

	awaitStats(t, srv, "mid-frame reclaim", func(st wire.Stats) bool {
		return st.IdleReclaims >= 1 && st.ActiveSessions == 0
	})

	// N=1: only a genuinely reclaimed identity admits the next client.
	c := dial(t, addr)
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedFrameTypedReply: a peer announcing a frame beyond
// MaxFrame gets a typed refusal before the hangup — not a bare reset —
// and its identity is reclaimed, not leaked.
func TestOversizedFrameTypedReply(t *testing.T) {
	srv, addr := startServer(t, server.Config{N: 1, K: 1, Shards: 1})

	conn := rawDial(t, addr)
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], wire.MaxFrame+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := wire.ReadResponse(conn)
	if err != nil {
		t.Fatalf("no typed reply before hangup: %v", err)
	}
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("status %v, want bad_request", resp.Status)
	}
	// After the refusal the server hangs up...
	if _, err := wire.ReadResponse(conn); err == nil {
		t.Fatal("connection still open after oversized frame")
	}
	// ...and the identity is back in the pool (N=1 proves it).
	awaitStats(t, srv, "oversize reclaim", func(st wire.Stats) bool {
		return st.ActiveSessions == 0 && st.Reclaimed >= 1
	})
	c := dial(t, addr)
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestOpDeadlineTimeout: with every slot held, an operation that cannot
// be admitted within the per-op deadline withdraws and answers
// StatusTimeout — not applied, so a retry cannot double-apply.
func TestOpDeadlineTimeout(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	srv, addr := startServer(t, server.Config{
		N: 2, K: 1, Shards: 1,
		OpTimeout: 100 * time.Millisecond,
		ApplyGate: func(shard uint32, kind wire.Kind) {
			if kind == wire.KindAdd && armed.CompareAndSwap(true, false) {
				close(entered)
				<-gate
			}
		},
	})

	holder := dial(t, addr)
	defer holder.Close()
	waiter := dial(t, addr)
	defer waiter.Close()

	holderDone := make(chan error, 1)
	go func() {
		_, err := holder.Add(0, 1)
		holderDone <- err
	}()
	<-entered // the holder is now parked inside the core, owning the only slot

	// The waiter's Add cannot get the slot: it must come back as a
	// typed timeout within the deadline, not hang.
	_, err := waiter.Add(0, 10)
	var we *wire.Error
	if !errors.As(err, &we) || we.Status != wire.StatusTimeout {
		t.Fatalf("contended op under deadline: got %v, want status timeout", err)
	}
	if st := srv.Stats(); st.OpDeadlines < 1 {
		t.Fatalf("op deadline not counted: %+v", st)
	}

	// Free the slot; the holder's op completes untouched by its
	// neighbor's withdrawal, and the retry now applies exactly once.
	close(gate)
	if err := <-holderDone; err != nil {
		t.Fatal(err)
	}
	v, err := waiter.Add(0, 10)
	if err != nil {
		t.Fatalf("retry after timeout: %v", err)
	}
	if v != 11 {
		t.Fatalf("counter = %d, want 11: the timed-out attempt must not have applied", v)
	}
}

// TestIdleWatchdogSparesSlowOps: the watchdog bounds socket silence,
// never time spent inside the wait-free core — an operation slower than
// the idle timeout completes and the session survives.
func TestIdleWatchdogSparesSlowOps(t *testing.T) {
	const idle = 100 * time.Millisecond
	var armed atomic.Bool
	armed.Store(true)
	srv, addr := startServer(t, server.Config{
		N: 2, K: 1, Shards: 1,
		IdleTimeout: idle,
		ApplyGate: func(shard uint32, kind wire.Kind) {
			if kind == wire.KindAdd && armed.CompareAndSwap(true, false) {
				time.Sleep(3 * idle)
			}
		},
	})

	c := dial(t, addr)
	defer c.Close()
	if v, err := c.Add(0, 5); err != nil || v != 5 {
		t.Fatalf("slow op under watchdog: v=%d err=%v", v, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("session reclaimed despite in-flight op: %v", err)
	}
	if st := srv.Stats(); st.IdleReclaims != 0 {
		t.Fatalf("slow op counted as idleness: %+v", st)
	}
}

// TestBusyHelloRetryAfter: the admission rejection carries the parking
// window as its Retry-After hint.
func TestBusyHelloRetryAfter(t *testing.T) {
	const park = 20 * time.Millisecond
	_, addr := startServer(t, server.Config{N: 1, K: 1, Shards: 1, AdmitTimeout: park})
	c := dial(t, addr)
	defer c.Close()

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	hello, err := wire.ReadHello(conn)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Status != wire.StatusBusy {
		t.Fatalf("status %v, want busy", hello.Status)
	}
	if want := uint32(park / time.Millisecond); hello.RetryAfterMillis != want {
		t.Fatalf("RetryAfterMillis = %d, want %d", hello.RetryAfterMillis, want)
	}
}
