// Package server is kexserved's engine: a TCP object server that puts
// the paper's k-assignment at the admission edge.
//
// The mapping from the paper's model to the network is direct. A
// connected client is a process: admission leases it one of N long-lived
// process identities (sessionManager), every object operation it issues
// runs under that identity through a (N, k)-assignment-wrapped wait-free
// core (table), and an abrupt disconnect is a crash fault. Concretely, a
// client that vanishes while its operation is inside the wait-free core
// is indistinguishable from the paper's stopped process: the in-flight
// operation still completes server-side (operations execute in the
// session's own goroutine, which does not die with the socket), the
// undeliverable reply is discarded, and the identity is reclaimed into
// the pool — so the wrapper absorbs the failure and every other client
// keeps its (k-1)-resilience guarantee of bounded-step progress.
//
// Graceful drain mirrors the same discipline: stop admitting, let every
// in-flight Apply finish (it is wait-free, hence bounded), and only
// force-close sockets when the caller's deadline expires.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"kexclusion/internal/cluster"
	"kexclusion/internal/core"
	"kexclusion/internal/durable"
	"kexclusion/internal/object"
	"kexclusion/internal/wire"
)

// Config shapes a Server.
type Config struct {
	// N is the number of process identities (max concurrent sessions).
	N int
	// K is the resiliency level: at most K sessions inside each shard's
	// wait-free core, tolerating K-1 crashed/disconnected holders.
	K int
	// Shards is the number of independent objects in the table.
	Shards int
	// Impl names the k-exclusion from core.Registry guarding each shard
	// ("" selects fastpath, the paper's Theorem 9 composition). The
	// implementation must be (k-1)-resilient: a non-resilient gate (mcs)
	// would let one disconnected client wedge a shard for everyone,
	// which is exactly the failure mode this server exists to rule out.
	Impl string
	// AdmitTimeout is how long connection N+1 is parked waiting for an
	// identity before being rejected with wire.StatusBusy. Zero rejects
	// immediately.
	AdmitTimeout time.Duration
	// IdleTimeout is the session watchdog: a session silent for this
	// long between requests — including one that stalls mid-frame or
	// stops draining its responses — is torn down and its identity
	// reclaimed into the pool. An in-flight operation always completes
	// first (the watchdog arms around socket waits, never inside the
	// wait-free core). Zero disables the watchdog; a partitioned client
	// then holds its identity until the TCP stack gives up.
	IdleTimeout time.Duration
	// OpTimeout is the per-operation deadline: a mutation still waiting
	// for a k-assignment slot when it expires withdraws from the entry
	// section and is answered with wire.StatusTimeout — not applied, safe
	// to retry. A pipelined run of mutations waits for one slot under one
	// deadline and withdraws whole. Reads take no slot. Zero runs
	// mutations without a deadline.
	OpTimeout time.Duration
	// ApplyGate, when non-nil, is called inside every mutation — while
	// the session holds a k-assignment slot and a name in the wait-free
	// core. Reads never see it: they take no slot. It exists for
	// crash-fault tests and chaos tooling (stall a session here, then
	// kill its socket); leave nil in production.
	ApplyGate func(shard uint32, kind wire.Kind)
	// DataDir, when non-empty, makes the object table durable: New
	// recovers the table from the directory's snapshot+WAL, every
	// mutation is written ahead and acknowledged only at the configured
	// durability point, and op IDs are deduplicated across restarts.
	// Empty runs the table in memory (op IDs still deduplicate within
	// the process lifetime).
	DataDir string
	// Fsync selects when an acknowledgement implies the record has been
	// fsynced (see durable.SyncPolicy); only meaningful with DataDir.
	Fsync durable.SyncPolicy
	// FsyncInterval bounds how long durable.SyncInterval leaves an
	// un-awaited record un-synced (default 50ms).
	FsyncInterval time.Duration
	// SnapshotEvery writes a table snapshot (and prunes the log) after
	// this many applied mutations. Default 1024; negative disables
	// automatic snapshots.
	SnapshotEvery int
	// DedupWindow bounds each shard's op-ID dedup table to this many
	// sessions (oldest evicted first). Default 1024; negative means
	// unbounded.
	DedupWindow int
	// Shed is the load-shedding policy: queue-depth watermarks that
	// flip the server degraded and shed new admissions, plus an
	// in-flight operation ceiling. The zero value disables shedding.
	Shed ShedPolicy
	// Lifecycle, when non-nil, is the externally created phase cell the
	// server drives (see NewLifecycle). Pass one when an ops endpoint
	// must answer readiness probes while New is still recovering the
	// data directory; nil makes New create its own.
	Lifecycle *Lifecycle
	// Cluster, when non-nil, runs this server as a member of a
	// replicated cluster: WAL batches ship to peers, client acks wait
	// for the configured quorum, and the placement ring decides which
	// shards this node serves (others answer StatusNotPrimary with a
	// redirect hint). Requires DataDir.
	Cluster *ClusterConfig
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// Server is a TCP kexserved instance. Construct with New, bind with
// Listen, run with Serve, stop with Shutdown.
type Server struct {
	cfg  Config
	impl core.Constructor
	tab  *table
	sm   *sessionManager
	lc   *Lifecycle
	shed *shedder

	ln      net.Listener
	drainCh chan struct{}
	wg      sync.WaitGroup

	idleReclaims atomic.Int64
	opDeadlines  atomic.Int64

	readFastpath atomic.Int64
	batchAtomic  atomic.Int64
	objRegOps    atomic.Int64
	objMapOps    atomic.Int64
	objQueueOps  atomic.Int64
	objSnapOps   atomic.Int64

	log      *durable.Log // nil without DataDir
	recovery durable.Recovery
	logOnce  sync.Once

	node       *cluster.Node // nil off-cluster
	replMu     sync.Mutex    // serializes replicated applies and state installs
	notPrimary atomic.Int64
	quorumAcks atomic.Int64

	sinceSnap   atomic.Int64
	snapRunning atomic.Bool
	snaps       atomic.Int64
	snapWg      sync.WaitGroup
}

// New validates cfg and builds the server (table and session manager
// included; no sockets yet).
func New(cfg Config) (*Server, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("server: k must be at least 1, got %d", cfg.K)
	}
	if cfg.N < cfg.K {
		return nil, fmt.Errorf("server: need n >= k, got n=%d k=%d", cfg.N, cfg.K)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("server: shards must be at least 1, got %d", cfg.Shards)
	}
	if cfg.IdleTimeout < 0 {
		return nil, fmt.Errorf("server: idle timeout must be non-negative, got %v", cfg.IdleTimeout)
	}
	if cfg.OpTimeout < 0 {
		return nil, fmt.Errorf("server: op timeout must be non-negative, got %v", cfg.OpTimeout)
	}
	if cfg.Impl == "" {
		cfg.Impl = "fastpath"
	}
	impl, err := core.ByName(cfg.Impl)
	if err != nil {
		return nil, err
	}
	if !impl.Resilient {
		return nil, fmt.Errorf("server: %s is not (k-1)-resilient — a disconnected client would wedge a shard for every other client; pick a resilient implementation (e.g. fastpath)", impl.Name)
	}
	if impl.FixedK != 0 && cfg.K != impl.FixedK {
		return nil, fmt.Errorf("server: %s supports only k=%d, got k=%d", impl.Name, impl.FixedK, cfg.K)
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 1024
	}
	if cfg.DedupWindow == 0 {
		cfg.DedupWindow = 1024
	}
	if err := cfg.Shed.Validate(cfg.AdmitTimeout); err != nil {
		return nil, err
	}
	lc := cfg.Lifecycle
	if lc == nil {
		lc = NewLifecycle()
	}

	s := &Server{
		cfg:     cfg,
		impl:    impl,
		sm:      newSessionManager(cfg.N, cfg.AdmitTimeout),
		lc:      lc,
		shed:    newShedder(cfg.Shed, lc, cfg.AdmitTimeout),
		drainCh: make(chan struct{}),
	}
	tc := tableConfig{window: cfg.DedupWindow}
	if cfg.DataDir != "" {
		// The recovery window gets its own phase so readiness probes
		// report an honest not-ready while the snapshot + WAL tail
		// replay (the window rolling restarts care about).
		lc.advance(PhaseRecovering)
		log, rec, err := durable.Open(durable.Options{
			Dir:         cfg.DataDir,
			Policy:      cfg.Fsync,
			Interval:    cfg.FsyncInterval,
			DedupWindow: cfg.DedupWindow,
			Logf:        cfg.Logf,
		})
		if err != nil {
			return nil, fmt.Errorf("server: opening data dir: %w", err)
		}
		for id := range rec.Shards {
			if int(id) >= cfg.Shards {
				log.Close()
				return nil, fmt.Errorf("server: data dir %s holds shard %d but the server is configured with %d shards — restart with the original shard count", cfg.DataDir, id, cfg.Shards)
			}
		}
		s.log, s.recovery = log, rec
		tc.log, tc.recovered = log, rec.Shards
	}
	// In cluster mode the table gets one extra process slot: identity N
	// is the replication apply loop, one more sequential process in the
	// paper's model (its applies are serialized by replMu).
	procs := cfg.N
	if cfg.Cluster != nil {
		procs++
	}
	s.tab = newTable(procs, cfg.K, cfg.Shards, impl, tc)
	if cfg.Cluster != nil {
		if err := s.newClusterNode(cfg.Cluster); err != nil {
			s.closeLog()
			return nil, err
		}
	}
	return s, nil
}

// Recovery reports what New reconstructed from the data directory (the
// zero value without one).
func (s *Server) Recovery() durable.Recovery { return s.recovery }

// maybeSnapshot counts applied mutations and, every SnapshotEvery of
// them, writes a table snapshot in the background (never two at once —
// an overrun round just rolls its count into the next).
func (s *Server) maybeSnapshot() {
	if s.sinceSnap.Add(1) < int64(s.cfg.SnapshotEvery) {
		return
	}
	if !s.snapRunning.CompareAndSwap(false, true) {
		return
	}
	// Subtract the round's quota rather than zeroing: mutations counted
	// between the Add above and this line belong to the NEXT round, and
	// a Store(0) would silently discard them — under load the cadence
	// would drift late by however many ops raced in.
	s.sinceSnap.Add(-int64(s.cfg.SnapshotEvery))
	s.snaps.Add(1)
	s.snapWg.Add(1)
	go func() {
		defer s.snapWg.Done()
		defer s.snapRunning.Store(false)
		if err := s.log.WriteSnapshot(s.tab.peekAll); err != nil {
			s.logf("snapshot failed: %v", err)
		}
	}()
}

// closeLog finishes the durability layer exactly once: waits out any
// in-flight snapshot, then closes the WAL (final fsync included).
func (s *Server) closeLog() {
	s.logOnce.Do(func() {
		if s.log == nil {
			return
		}
		s.snapWg.Wait()
		if err := s.log.Close(); err != nil {
			s.logf("closing log: %v", err)
		}
	})
}

// Listen binds the TCP address (use port 0 for an ephemeral port) and
// returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Addr reports the bound address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until the listener closes. It returns nil
// after a graceful Shutdown and the accept error otherwise. Transient
// accept failures — EMFILE when the fd table fills under load,
// ECONNABORTED when a peer resets mid-handshake — are retried with
// capped exponential backoff (the net/http pattern) instead of killing
// the listener: a loaded server must shed the connection, not the
// accept loop.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("server: Serve before Listen")
	}
	if s.node != nil {
		// Bring replication up before serving clients: the start-time
		// catch-up (a rejoining node must not serve stale shards) and
		// the pull loops both precede the first client ack.
		s.node.Start()
	}
	s.lc.advance(PhaseRunning)
	var delay time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.draining() {
				return nil
			}
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				if delay == 0 {
					delay = 5 * time.Millisecond
				} else if delay *= 2; delay > time.Second {
					delay = time.Second
				}
				s.logf("accept error (retrying in %v): %v", delay, err)
				select {
				case <-time.After(delay):
				case <-s.drainCh:
					return nil
				}
				continue
			}
			return err
		}
		delay = 0
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Phase reports the server's current lifecycle phase.
func (s *Server) Phase() Phase { return s.lc.Phase() }

// draining reports whether graceful shutdown has begun (the phase is
// draining or beyond). Every admission and watchdog decision consults
// this, so "the server is going away" has one source of truth.
func (s *Server) draining() bool { return s.lc.Phase() >= PhaseDraining }

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe(addr string) error {
	if _, err := s.Listen(addr); err != nil {
		return err
	}
	return s.Serve()
}

// Shutdown drains gracefully: stop accepting, reject parked admissions,
// wake sessions blocked reading, and wait for every in-flight operation
// to complete and its session to tear down. If ctx expires first, the
// remaining sockets are force-closed and ctx's error returned; a session
// stalled inside the wait-free core (only possible via ApplyGate) is
// abandoned to finish on its own — the identity-reclaim path still runs
// when it does.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.lc.advance(PhaseDraining) {
		close(s.drainCh)
		if s.ln != nil {
			s.ln.Close()
		}
		if s.node != nil {
			// Stop replication first: quorum waiters fail fast (their
			// sessions answer StatusInternal and clients retry
			// elsewhere) instead of holding the drain for a timeout.
			s.node.Stop()
		}
		s.sm.abortReads()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.closeLog()
		s.lc.advance(PhaseStopped)
		return nil
	case <-ctx.Done():
		s.sm.forceClose()
		select {
		case <-done:
		case <-time.After(100 * time.Millisecond):
		}
		// Sessions abandoned inside the core may still try to append;
		// they will get errors from the closed log, which is the honest
		// outcome of a forced shutdown.
		s.closeLog()
		s.lc.advance(PhaseStopped)
		return ctx.Err()
	}
}

// Stats snapshots the server: shape, session-manager counters, and one
// metrics snapshot per shard.
func (s *Server) Stats() wire.Stats {
	st := wire.Stats{
		N:                   s.cfg.N,
		K:                   s.cfg.K,
		Shards:              s.cfg.Shards,
		Impl:                s.impl.Name,
		ActiveSessions:      s.sm.activeCount(),
		AdmitQueue:          s.sm.parkedCount(),
		InflightOps:         s.shed.inflight.Load(),
		Admitted:            s.sm.admitted.Load(),
		Rejected:            s.sm.rejected.Load(),
		Reclaimed:           s.sm.reclaimed.Load(),
		IdleReclaims:        s.idleReclaims.Load(),
		OpDeadlines:         s.opDeadlines.Load(),
		AppliedDupes:        s.tab.dupes.Load(),
		ApplyRunOps:         s.tab.runOps.Load(),
		ApplyRuns:           s.tab.runs.Load(),
		BatchAtomic:         s.batchAtomic.Load(),
		ReadFastpath:        s.readFastpath.Load(),
		ObjRegisterOps:      s.objRegOps.Load(),
		ObjMapOps:           s.objMapOps.Load(),
		ObjQueueOps:         s.objQueueOps.Load(),
		ObjSnapshotOps:      s.objSnapOps.Load(),
		NotPrimaryRedirects: s.notPrimary.Load(),
		QuorumAcks:          s.quorumAcks.Load(),
		RecoveredOps:        int64(s.recovery.RecoveredOps),
		RestartCount:        int64(s.recovery.RestartCount),
		ShedAdmissions:      s.shed.shedAdmissions.Load(),
		ShedOps:             s.shed.shedOps.Load(),
		Phase:               s.lc.Phase().String(),
		Draining:            s.draining(),
		PerShard:            s.tab.snapshots(),
	}
	if s.log != nil {
		st.WALFsyncNanos = int64(s.log.SyncNanos())
		st.WALFsyncs = int64(s.log.Syncs())
		st.WALReadBytes = int64(s.log.ReadBytes())
	}
	if s.node != nil {
		st.ReplPullsServed = s.node.PullsServed()
		st.ReplRecordsServed = s.node.RecordsServed()
		st.ReplicaLagLSN = int64(s.node.ReplicaLag())
		st.LeaseHeld = s.node.LeaseHeld()
		st.LeaseExpirations = s.node.LeaseExpirations()
		st.LeaseDemotions = s.node.LeaseDemotions()
		st.PeerContactAge, st.LeaseMargin, st.LastPromotion = s.node.Timings()
	} else {
		st.LeaseHeld = true // vacuous off-cluster: nobody can depose us
	}
	return st
}

// logf emits a lifecycle line when a logger is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// handle runs one connection: admission, hello, then the request loop.
// Operations execute sequentially in this goroutine — one process
// identity is one sequential process, exactly the paper's model.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	if tcp, ok := conn.(*net.TCPConn); ok {
		tcp.SetNoDelay(true)
	}

	// Every pre-admission Hello write arms the write deadline first: a
	// peer that connects and then reads nothing must not be able to pin
	// this goroutine through a full TCP buffer — during drain, that
	// would hold Shutdown hostage to a stranger's socket.
	bw := bufio.NewWriter(conn)
	if s.draining() {
		s.armWrite(conn)
		wire.WriteHello(bw, wire.Hello{Status: wire.StatusBusy, Msg: "server draining"})
		bw.Flush()
		return
	}
	// Shed before parking: a connection refused here never joins the
	// admission queue, which is what lets the queue drain back below the
	// low watermark.
	if hint, ok := s.shed.admit(s.sm.parkedCount()); !ok {
		s.armWrite(conn)
		wire.WriteHello(bw, wire.Hello{
			Status:           wire.StatusBusy,
			RetryAfterMillis: hint,
			Msg:              "server degraded: admission queue past the shed watermark",
		})
		bw.Flush()
		s.logf("shed %s: admission queue past watermark", conn.RemoteAddr())
		return
	}
	sess, ok := s.sm.admit(conn, s.drainCh)
	if !ok {
		// The Retry-After hint is the admission parking window: the
		// rejected client already waited that long for an identity to
		// free, so one more window is the natural next probe — combined
		// with the idle watchdog, which bounds how long a dead session
		// can sit on an identity, a freed slot is plausible by then.
		s.armWrite(conn)
		wire.WriteHello(bw, wire.Hello{
			Status:           wire.StatusBusy,
			RetryAfterMillis: uint32(s.cfg.AdmitTimeout / time.Millisecond),
			Msg:              fmt.Sprintf("all %d identities leased; retry later", s.cfg.N),
		})
		bw.Flush()
		s.logf("reject %s: pool exhausted", conn.RemoteAddr())
		return
	}
	p := sess.lease.ID()
	// Teardown doubles as the crash-reclaim hook: whether the loop ends
	// by clean close, abrupt disconnect, or drain, the identity goes
	// back to the pool only after any in-flight Apply has completed, so
	// a new owner of p can never race the dead session inside the core.
	defer s.sm.release(sess)
	defer s.logf("session p=%d %s: closed", p, conn.RemoteAddr())
	s.logf("session p=%d %s: admitted", p, conn.RemoteAddr())

	// Re-check after registering: Shutdown advances the phase before
	// sweeping read deadlines, so a session that misses the phase here was
	// already registered when the sweep ran and will be woken by it.
	if s.draining() {
		s.armWrite(conn)
		wire.WriteHello(bw, wire.Hello{Status: wire.StatusBusy, Msg: "server draining"})
		bw.Flush()
		return
	}

	hello := wire.Hello{
		Status:   wire.StatusOK,
		Identity: uint32(p),
		N:        uint32(s.cfg.N),
		K:        uint32(s.cfg.K),
		Shards:   uint32(s.cfg.Shards),
	}
	s.armWrite(conn)
	if err := wire.WriteHello(bw, hello); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}

	// The session loop is a read-many/apply/flush-once cycle: block for
	// the first frame (the idle watchdog spans exactly this wait), then
	// drain every complete frame the client pipelined behind it, apply
	// the whole pipeline — one shed admission, one durability wait, one
	// group-commit fsync — and coalesce all responses into one flush.
	br := bufio.NewReaderSize(conn, readBufSize)
	for {
		if s.cfg.IdleTimeout > 0 {
			// Arm the idle watchdog for this wait. Shutdown's deadline
			// sweep can race the rearm, so re-expire after checking the
			// drain flag: whichever order the two stores land in, a
			// draining server never leaves a session armed with a fresh
			// deadline.
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
			if s.draining() {
				conn.SetReadDeadline(time.Now())
			}
		}
		frame, err := wire.ReadRequestFrame(br)
		if err != nil {
			switch {
			case errors.Is(err, wire.ErrFrameTooLarge):
				// A typed refusal, then hang up: the framing itself is
				// still intact (only the announced length is absurd), so
				// the client gets a diagnosis instead of a bare reset.
				// The deferred release reclaims the identity as usual.
				s.armWrite(conn)
				wire.WriteResponse(bw, errResponse(0, wire.StatusBadRequest, err.Error()))
				bw.Flush()
				s.logf("session p=%d %s: %v", p, conn.RemoteAddr(), err)
			case errors.Is(err, os.ErrDeadlineExceeded) && !s.draining():
				// Silence — no request, a frame stalled halfway, or a
				// peer beyond a partition. The identity goes back to the
				// pool via the deferred release.
				s.idleReclaims.Add(1)
				s.logf("session p=%d %s: idle for %v, reclaiming identity", p, conn.RemoteAddr(), s.cfg.IdleTimeout)
			}
			// Otherwise EOF, reset, or the drain path expiring our read
			// deadline: either way the session is over.
			return
		}
		frames := []wire.ReqFrame{frame}
		total := len(frame.Reqs)
		// Drain the pipeline: only frames already complete in the read
		// buffer — never a blocking read, so the watchdog semantics stay
		// per-batch (armed around the one socket wait above). A frame
		// that is half-arrived, or an oversized announcement, is left
		// for the next cycle's blocking path to handle.
		for total < maxPipelineOps && completeFrameBuffered(br) {
			more, err := wire.ReadRequestFrame(br)
			if err != nil {
				return
			}
			frames = append(frames, more)
			total += len(more.Reqs)
		}

		resps, closing := s.serveCycle(p, frames, total)
		s.armWrite(conn)
		i, werr := 0, error(nil)
		for _, f := range frames {
			// The answer mirrors the request shape: a single-op frame
			// carries exactly one request.
			if f.Batched {
				werr = wire.WriteBatchResponses(bw, resps[i:i+len(f.Reqs)])
			} else {
				werr = wire.WriteResponse(bw, resps[i])
			}
			i += len(f.Reqs)
			if werr != nil {
				return
			}
		}
		if err := bw.Flush(); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// The peer stopped draining its responses: same verdict
				// as read-side silence.
				s.idleReclaims.Add(1)
				s.logf("session p=%d %s: response write stalled, reclaiming identity", p, conn.RemoteAddr())
			}
			return
		}
		if closing {
			return
		}
	}
}

// maxPipelineOps caps how many operations one read/apply/flush cycle
// drains; a client pipelining deeper simply spans two cycles. Bounds
// both the response buffering and how long a cycle can defer the next
// watchdog arming.
const maxPipelineOps = 1024

// readBufSize sizes each session's read buffer: large enough to hold a
// healthy pipeline of batch frames, small enough to not matter per
// connection.
const readBufSize = 64 << 10

// completeFrameBuffered reports whether the reader already holds one
// entire frame, so reading it cannot block. Oversized announcements
// report false: the blocking path owns the typed refusal.
func completeFrameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return false
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > wire.MaxFrame {
		return false
	}
	return br.Buffered() >= 4+int(n)
}

// cycle is the ack ledger of one served pipeline: the responses in
// request order, which of them presume durability, and the frontier
// they presume. applyRun and applyAtomicStart write it through await;
// serveCycle settles it once — one durability wait, one quorum wait —
// after the whole pipeline has applied and appended.
type cycle struct {
	resps   []wire.Response
	waiting []pendingAck
	// maxLsn is the durability frontier: every waiting response is
	// contingent on it being covered.
	maxLsn uint64
	// fresh counts newly applied (non-duplicate) mutations that reached
	// the log, charged to the snapshot cadence once the wait succeeds.
	fresh int
}

// pendingAck is one response withheld until the frontier is covered;
// shard and epoch feed the post-quorum fencing recheck in cluster mode.
type pendingAck struct {
	idx   int
	shard uint32
	epoch uint64
}

// await marks the i-th response of the operation now being applied —
// its responses land at the end of c.resps — as contingent on lsn.
func (c *cycle) await(i int, shard uint32, epoch, lsn uint64) {
	c.waiting = append(c.waiting, pendingAck{idx: len(c.resps) + i, shard: shard, epoch: epoch})
	c.maxLsn = max(c.maxLsn, lsn)
}

// refuse downgrades every waiting response: none of them may be sent as
// the ack it was.
func (c *cycle) refuse(reason string) {
	for _, w := range c.waiting {
		c.resps[w.idx] = errResponse(c.resps[w.idx].ID, wire.StatusInternal, reason)
	}
}

// serveCycle answers one drained pipeline: control operations inline,
// object operations batch-applied — admitted under the shed ceiling as
// one unit, their WAL appends funneled into a single group-commit wait
// so one fsync acknowledges the whole pipeline. Responses come back in
// request order, one per request. closing reports that the connection
// should end after the responses are flushed (drain answered).
func (s *Server) serveCycle(p int, frames []wire.ReqFrame, total int) (resps []wire.Response, closing bool) {
	c := cycle{resps: make([]wire.Response, 0, total)}
	if s.draining() {
		for _, f := range frames {
			for _, req := range f.Reqs {
				c.resps = append(c.resps, errResponse(req.ID, wire.StatusDraining, "server draining"))
			}
		}
		return c.resps, true
	}

	objOps := 0
	for _, f := range frames {
		for _, req := range f.Reqs {
			if req.Kind != wire.KindPing && req.Kind != wire.KindStats {
				objOps++
			}
		}
	}
	shedHint, admitted := uint32(0), true
	if objOps > 0 {
		shedHint, admitted = s.shed.opBeginN(objOps)
	}

	// Mutations are applied in runs (see applyRun); anything else ends the
	// run first — a read must see the writes before it, and a 0xC2 group
	// is its own unit.
	var run []wire.Request
	for _, f := range frames {
		if f.Atomic && !admitted {
			for _, req := range f.Reqs {
				c.resps = append(c.resps, busyResponse(req.ID, shedHint))
			}
			continue
		}
		if f.Atomic {
			// An atomic group is one unit: validated, committed and logged
			// under one record by applyAtomicGroup; its durability wait
			// joins the pipeline's single finishWait below.
			s.applyRun(p, &run, &c)
			aresps := s.applyAtomicGroup(p, f.Reqs, &c)
			for i, req := range f.Reqs {
				s.countObjOp(req, aresps[i])
			}
			c.resps = append(c.resps, aresps...)
			continue
		}
		for _, req := range f.Reqs {
			_, mutation := durableOp(req)
			joins := mutation && admitted && !s.refuses(req.Shard)
			if len(run) > 0 && (!joins || req.Shard != run[0].Shard || len(run) == durable.DedupDepth) {
				s.applyRun(p, &run, &c)
			}
			if joins {
				run = append(run, req)
				continue
			}
			var resp wire.Response
			switch {
			case req.Kind == wire.KindPing:
				resp = wire.Response{ID: req.ID, Status: wire.StatusOK}
			case req.Kind == wire.KindStats:
				resp = wire.Response{ID: req.ID, Status: wire.StatusOK, Data: s.Stats().JSON()}
			case !admitted:
				resp = busyResponse(req.ID, shedHint)
			case s.refuses(req.Shard):
				s.notPrimary.Add(1)
				resp = s.notPrimaryResponse(req.ID, req.Shard)
			case req.Kind.IsRead():
				// The one read path, a root get included: answered from
				// the shard's committed state, no slot, no WAL, no quorum,
				// so it never times out or queues behind a stalled holder.
				// The Owns gate above already ran, so in cluster mode only
				// the shard's primary serves it (staleness bounded by one
				// lease interval, the §12 argument).
				s.readFastpath.Add(1)
				resp = s.tab.readFast(req)
				s.countObjOp(req, resp)
			default:
				resp = errResponse(req.ID, wire.StatusBadRequest, fmt.Sprintf("unknown kind %s", req.Kind))
			}
			c.resps = append(c.resps, resp)
		}
	}
	s.applyRun(p, &run, &c)
	if len(c.waiting) > 0 {
		if err := s.tab.finishWait(c.maxLsn); err != nil {
			// No response whose ack presumed durability may be sent:
			// the log is poisoned, so the honest answer is an internal
			// error for each — and no snapshot cadence is charged.
			c.refuse(err.Error())
			c.fresh = 0
		} else if s.node != nil {
			// The quorum gate: local durability covered maxLsn, now the
			// configured quorum must too — one wait for the whole
			// pipeline, the replication analogue of the group commit.
			// On timeout the ops ARE applied and locally durable, but
			// under-replicated; StatusInternal makes the client retry,
			// and dedup re-serves the original results exactly once.
			if err := s.node.WaitQuorum(c.maxLsn); err != nil {
				c.refuse(err.Error())
			} else {
				// Fencing recheck: quorum acks vouch for LSN prefixes, not
				// histories. If a shard's epoch moved while this pipeline
				// waited (a state install superseded a fork this node was
				// serving), an op applied at the old epoch may be fenced
				// data — withhold its ack and let the retry settle against
				// the installed history.
				acked := 0
				for _, w := range c.waiting {
					if st := s.tab.shards[w.shard].obj.Peek(); st.Epoch != w.epoch {
						c.resps[w.idx] = errResponse(c.resps[w.idx].ID, wire.StatusInternal,
							"shard re-installed at a new epoch during the quorum wait; retry")
						continue
					}
					acked++
				}
				s.quorumAcks.Add(int64(acked))
			}
		}
	}
	if s.log != nil && s.cfg.SnapshotEvery > 0 {
		for i := 0; i < c.fresh; i++ {
			s.maybeSnapshot()
		}
	}
	if objOps > 0 && admitted {
		s.shed.opEndN(objOps)
	}
	return c.resps, false
}

// notPrimaryResponse refuses an op on a shard this node does not serve,
// before touching the object, and hints the owning primary's client
// address in Data. The op was not applied, so the client retries the
// same op ID at the hinted address and dedup keeps it exactly once.
// When this node knows no better primary (its own lease expired,
// typically mid-partition), the hint is empty and Value carries a
// Retry-After of one lease interval — the earliest a usurper can exist.
func (s *Server) notPrimaryResponse(id uint64, shard uint32) wire.Response {
	resp := wire.Response{ID: id, Status: wire.StatusNotPrimary, Data: []byte(s.node.PrimaryAddr(shard))}
	if len(resp.Data) == 0 {
		resp.Value = int64(s.node.LeaseDuration() / time.Millisecond)
	}
	return resp
}

// refuses reports whether an op on shard belongs to another member.
func (s *Server) refuses(shard uint32) bool {
	return s.node != nil && int(shard) < s.cfg.Shards && !s.node.Owns(shard)
}

// applyRun applies the run cut so far, if any — a maximal stretch of
// consecutive mutations on one shard, at most durable.DedupDepth, applied
// as ONE operation (table.applyRun) under one per-op deadline — and
// starts the next. A run's slice is never reused: a helper still holding
// its announced closure may read it.
func (s *Server) applyRun(p int, run *[]wire.Request, c *cycle) {
	if len(*run) == 0 {
		return
	}
	ctx := context.Background()
	if s.cfg.OpTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.OpTimeout)
		defer cancel()
	}
	resps := s.tab.applyRun(ctx, p, *run, s.cfg.ApplyGate, c)
	for i, req := range *run {
		if resps[i].Status == wire.StatusTimeout {
			s.opDeadlines.Add(1)
		}
		s.countObjOp(req, resps[i])
	}
	c.resps, *run = append(c.resps, resps...), nil
}

// countObjOp charges a completed (StatusOK) object operation to
// its object class's counter; creates count toward the class being
// created.
func (s *Server) countObjOp(req wire.Request, resp wire.Response) {
	if !req.Kind.IsObject() || resp.Status != wire.StatusOK {
		return
	}
	switch req.Kind {
	case wire.KindCreate:
		switch object.Type(req.Arg) {
		case object.TypeRegister:
			s.objRegOps.Add(1)
		case object.TypeMap:
			s.objMapOps.Add(1)
		case object.TypeQueue:
			s.objQueueOps.Add(1)
		case object.TypeSnapshot:
			s.objSnapOps.Add(1)
		}
	case wire.KindRegGet, wire.KindRegAdd, wire.KindRegSet:
		s.objRegOps.Add(1)
	case wire.KindMapGet, wire.KindMapPut, wire.KindMapCAS, wire.KindMapDel:
		s.objMapOps.Add(1)
	case wire.KindQEnq, wire.KindQDeq, wire.KindQLen:
		s.objQueueOps.Add(1)
	case wire.KindSnapUpdate, wire.KindSnapScan:
		s.objSnapOps.Add(1)
	}
}

// armWrite bounds the next response write by the idle watchdog, so a
// peer that stops reading cannot pin a session (and its identity)
// through a full TCP buffer.
func (s *Server) armWrite(conn net.Conn) {
	if s.cfg.IdleTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
}
