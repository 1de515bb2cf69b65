// Command kexserved serves the paper's resilient shared objects over
// TCP, putting k-assignment at the admission edge: each accepted
// connection leases one of N process identities, every operation runs
// through the (N, k)-assignment wrapper of its shard (at most k sessions
// inside any shard's wait-free core), and a client that disconnects
// mid-operation is absorbed as one of the paper's crash faults — the
// server reclaims its identity and stays live for everyone else.
//
// Usage:
//
//	kexserved                                    serve on 127.0.0.1:4750
//	kexserved -addr :4750 -n 64 -k 8 -shards 16  choose the shape
//	kexserved -impl localspin                    pick the k-exclusion (see -list)
//	kexserved -admit-timeout 2s                  park connection N+1 before rejecting
//	kexserved -idle-timeout 30s                  reclaim identities from silent sessions
//	kexserved -op-timeout 5s                     bound each op's wait for a slot
//	kexserved -json                              dump final stats JSON on exit
//	kexserved -data-dir /var/lib/kex             durable: WAL + snapshots, recover on boot
//	kexserved -data-dir d -fsync interval        also sync un-awaited records (see -fsync-interval)
//	kexserved -data-dir d -snapshot-every 4096   snapshot cadence in applied ops
//	kexserved -ops-addr 127.0.0.1:9750           /healthz, /readyz, /metrics (Prometheus)
//	kexserved -shed-high 64 -shed-low 8          shed admissions past the queue watermark
//	kexserved -max-inflight 256                  ceiling on concurrently executing ops
//	kexserved -node-id a -peers a=HOST:4750/HOST:4850,b=...   join a replicated cluster
//	kexserved -quorum majority                   acks wait for this many nodes' fsyncs
//	kexserved -lease 500ms                       leader lease window (< -fail-after)
//
// With -peers (requires -data-dir and -node-id), the server is one
// member of a statically configured cluster: the consistent-hash ring
// over the peer list decides which shards it serves (ops for other
// shards answer not_primary with the owner's address), its WAL batches
// replicate to every peer, mutations are acknowledged only after
// -quorum members (itself included, "majority" by default, "all" or an
// integer accepted) have fsynced them, and when a peer stops answering
// its shards fail over to live ring successors. Each peer is
// id=client-addr/repl-addr; the repl address is a second listener for
// peer replication traffic. A primary serves its shards only while it
// holds a leader lease — quorum-many peers (itself included) heard
// from within -lease — so a partitioned primary stops admitting before
// its successor can promote (-lease must be shorter than -fail-after).
//
// With -ops-addr, the ops listener binds BEFORE recovery begins, so a
// rolling-restart orchestrator watching /readyz sees an honest
// not-ready ("recovering") for the whole replay window, then "running"
// only once the server actually serves.
//
// With -data-dir, mutations are acknowledged only after they are
// durable under the chosen -fsync policy, and a restart replays the
// newest snapshot plus the log tail — acknowledged writes survive even
// SIGKILL, and retried ops (clients attach session × seq op IDs)
// deduplicate instead of double-applying.
//
// SIGINT/SIGTERM drains gracefully: stop accepting, finish in-flight
// operations, then exit (bounded by -drain-timeout).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kexclusion/internal/cluster"
	"kexclusion/internal/core"
	"kexclusion/internal/durable"
	"kexclusion/internal/server"
)

// parsePeers decodes the -peers membership list: comma-separated
// id=client-addr/repl-addr entries.
func parsePeers(spec string) ([]cluster.Peer, error) {
	var peers []cluster.Peer
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		id, addrs, ok := strings.Cut(item, "=")
		if !ok || id == "" {
			return nil, fmt.Errorf("-peers entry %q: want id=client-addr/repl-addr", item)
		}
		clientAddr, replAddr, ok := strings.Cut(addrs, "/")
		if !ok || clientAddr == "" || replAddr == "" {
			return nil, fmt.Errorf("-peers entry %q: want id=client-addr/repl-addr", item)
		}
		peers = append(peers, cluster.Peer{ID: id, ClientAddr: clientAddr, ReplAddr: replAddr})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return peers, nil
}

// parseQuorum maps the -quorum spelling to a node count (0 = majority,
// resolved by the server).
func parseQuorum(spec string, n int) (int, error) {
	switch spec {
	case "", "majority":
		return 0, nil
	case "all":
		return n, nil
	}
	v, err := strconv.Atoi(spec)
	if err != nil {
		return 0, fmt.Errorf("-quorum %q: want majority, all, or an integer", spec)
	}
	if v < 1 || v > n {
		return 0, fmt.Errorf("-quorum %d out of range [1, %d peers]", v, n)
	}
	return v, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kexserved:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kexserved", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:4750", "TCP listen address (port 0 for ephemeral)")
		n            = fs.Int("n", 64, "process identities (max concurrent sessions)")
		k            = fs.Int("k", 8, "resiliency level: slots per shard, tolerating k-1 dead holders")
		shards       = fs.Int("shards", 8, "independent objects in the table")
		implName     = fs.String("impl", "fastpath", "k-exclusion implementation from the registry (see -list)")
		list         = fs.Bool("list", false, "list usable implementations and exit")
		admitTimeout = fs.Duration("admit-timeout", 0, "how long to park connection N+1 for a free identity before rejecting (0 = reject immediately); also the Retry-After hint sent with busy rejections")
		idleTimeout  = fs.Duration("idle-timeout", 0, "session watchdog: reclaim the identity of a connection silent this long (0 = never; a partitioned client then pins its identity)")
		opTimeout    = fs.Duration("op-timeout", 0, "per-operation deadline: an op still waiting for a slot withdraws and answers status timeout (0 = wait forever)")
		drainTimeout = fs.Duration("drain-timeout", 5*time.Second, "bound on graceful drain after SIGTERM/SIGINT")
		statsJSON    = fs.Bool("json", false, "print the final stats snapshot as JSON on exit")
		quiet        = fs.Bool("quiet", false, "suppress per-session log lines")

		opsAddr     = fs.String("ops-addr", "", "operational HTTP listen address for /healthz, /readyz and /metrics (empty = no ops listener)")
		shedHigh    = fs.Int("shed-high", 0, "admission-queue depth that flips the server degraded and sheds new connections (0 = disabled; requires -admit-timeout)")
		shedLow     = fs.Int("shed-low", 0, "admission-queue depth at which a degraded server recovers (must be < -shed-high)")
		maxInflight = fs.Int("max-inflight", 0, "ceiling on concurrently executing object operations; ops past it answer busy with a Retry-After hint (0 = unlimited)")

		nodeID     = fs.String("node-id", "", "this member's ID in -peers (cluster mode)")
		peersSpec  = fs.String("peers", "", "full cluster membership as id=client-addr/repl-addr,... (empty = standalone)")
		quorumSpec = fs.String("quorum", "majority", "ack quorum in cluster mode: majority, all, or an integer count of nodes (this one included)")
		failAfter  = fs.Duration("fail-after", 2*time.Second, "cluster failure detector: a peer is suspected dead, and its shards fail over, exactly this long after its last contact")
		lease      = fs.Duration("lease", 0, "leader lease: a primary admits ops only while a quorum of peers witnessed it this recently; must be < -fail-after (0 = fail-after/2)")

		dataDir       = fs.String("data-dir", "", "durability directory for the WAL and snapshots (empty = in-memory only)")
		fsync         = fs.String("fsync", "always", "WAL sync policy: always (acks wait for a group-committed fsync), interval (the same, plus a ticker for un-awaited records), never (OS decides)")
		fsyncInterval = fs.Duration("fsync-interval", 50*time.Millisecond, "bound on how long an un-awaited record may stay un-synced when -fsync interval")
		snapshotEvery = fs.Int("snapshot-every", 1024, "write a snapshot every this many applied ops (0 = default, negative = never)")
		dedupWindow   = fs.Int("dedup-window", 1024, "retained op IDs per shard for exactly-once retries (0 = default, negative = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, c := range core.Registry() {
			if c.Resilient && c.FixedK == 0 {
				fmt.Fprintf(out, "%-11s %s\n", c.Name, c.Doc)
			}
		}
		return nil
	}
	// Validate the flag shape here so a bad invocation gets a usage
	// error, not a panic from deep inside construction.
	if *k < 1 {
		return fmt.Errorf("need k >= 1, got k=%d", *k)
	}
	if *n < *k {
		return fmt.Errorf("need n >= k, got n=%d k=%d", *n, *k)
	}
	if *shards < 1 {
		return fmt.Errorf("need shards >= 1, got shards=%d", *shards)
	}
	if *idleTimeout < 0 {
		return fmt.Errorf("need idle-timeout >= 0, got %v", *idleTimeout)
	}
	if *opTimeout < 0 {
		return fmt.Errorf("need op-timeout >= 0, got %v", *opTimeout)
	}
	if *opTimeout > 0 && *idleTimeout > 0 && *opTimeout > *idleTimeout {
		return fmt.Errorf("op-timeout %v exceeds idle-timeout %v: a waiting op would outlive its own session watchdog", *opTimeout, *idleTimeout)
	}
	policy, err := durable.ParseSyncPolicy(*fsync)
	if err != nil {
		return err
	}
	// Durability knobs without a directory are a misconfiguration the
	// operator should hear about, not silently ignore. (-dedup-window is
	// exempt: the dedup window works in memory too.)
	if *dataDir == "" && (*fsync != "always" || *snapshotEvery != 1024) {
		return fmt.Errorf("-fsync and -snapshot-every need -data-dir")
	}
	if *fsyncInterval <= 0 {
		return fmt.Errorf("need fsync-interval > 0, got %v", *fsyncInterval)
	}

	shed := server.ShedPolicy{QueueHigh: *shedHigh, QueueLow: *shedLow, MaxInFlight: *maxInflight}
	if err := shed.Validate(*admitTimeout); err != nil {
		return err
	}

	var clusterCfg *server.ClusterConfig
	if *peersSpec != "" || *nodeID != "" {
		if *peersSpec == "" || *nodeID == "" {
			return fmt.Errorf("cluster mode needs both -node-id and -peers")
		}
		if *dataDir == "" {
			return fmt.Errorf("cluster mode needs -data-dir (the WAL is the replication stream)")
		}
		peers, err := parsePeers(*peersSpec)
		if err != nil {
			return err
		}
		quorum, err := parseQuorum(*quorumSpec, len(peers))
		if err != nil {
			return err
		}
		if *failAfter <= 0 {
			return fmt.Errorf("need fail-after > 0, got %v", *failAfter)
		}
		if *lease < 0 || *lease >= *failAfter {
			return fmt.Errorf("need 0 <= lease < fail-after (%v), got %v: a deposed primary's lease must expire before any successor can promote", *failAfter, *lease)
		}
		clusterCfg = &server.ClusterConfig{
			NodeID:    *nodeID,
			Peers:     peers,
			Quorum:    quorum,
			FailAfter: *failAfter,
			Lease:     *lease,
		}
	}

	cfg := server.Config{
		N: *n, K: *k, Shards: *shards,
		Impl:          *implName,
		AdmitTimeout:  *admitTimeout,
		IdleTimeout:   *idleTimeout,
		OpTimeout:     *opTimeout,
		DataDir:       *dataDir,
		Fsync:         policy,
		FsyncInterval: *fsyncInterval,
		SnapshotEvery: *snapshotEvery,
		DedupWindow:   *dedupWindow,
		Shed:          shed,
		Cluster:       clusterCfg,
		Lifecycle:     server.NewLifecycle(),
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(out, "kexserved: "+format+"\n", args...)
		}
	}

	// Bind the ops listener before server.New: recovery (snapshot + WAL
	// replay) happens inside New, and that window is exactly when a
	// readiness probe must be answerable with "recovering".
	var ops *server.Ops
	if *opsAddr != "" {
		ops = server.NewOps(cfg.Lifecycle)
		bound, err := ops.ListenAndServe(*opsAddr)
		if err != nil {
			return fmt.Errorf("binding ops listener: %w", err)
		}
		defer ops.Close()
		fmt.Fprintf(out, "kexserved: ops listening on %s\n", bound)
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if ops != nil {
		ops.Attach(srv)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "kexserved: listening on %s (n=%d k=%d shards=%d impl=%s)\n",
		bound, *n, *k, *shards, *implName)
	if *dataDir != "" {
		rec := srv.Recovery()
		fmt.Fprintf(out, "kexserved: durable in %s (fsync=%s): recovered %d ops, restart %d, dropped %d torn bytes\n",
			*dataDir, policy, rec.RecoveredOps, rec.RestartCount, rec.DroppedBytes)
	}
	if clusterCfg != nil {
		fmt.Fprintf(out, "kexserved: cluster node %s of %d peers, quorum %d, lease %v, replication on %s\n",
			*nodeID, len(clusterCfg.Peers), srv.Node().Quorum(), srv.Node().LeaseDuration(), srv.Node().ReplAddr())
	}

	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-served:
		return err
	case got := <-sig:
		fmt.Fprintf(out, "kexserved: %s: draining (timeout %s)\n", got, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		drainErr := srv.Shutdown(ctx)
		<-served
		if *statsJSON {
			fmt.Fprintf(out, "%s\n", srv.Stats().JSON())
		}
		if drainErr != nil {
			return fmt.Errorf("drain incomplete: %w", drainErr)
		}
		fmt.Fprintln(out, "kexserved: drained cleanly")
		return nil
	}
}
