package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kexclusion/internal/netfault"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// clusterConfig is the -cluster mode's shape, pre-validated by run.
type clusterConfig struct {
	impl      string
	n, k      int
	ops       int
	seed      int64
	deadline  time.Duration
	asJSON    bool
	servedBin string
	dataDir   string
	fsync     string
	failAfter time.Duration
	lease     time.Duration // 0 = the spawned servers' default (fail-after/2)
}

// effLease is the lease interval the spawned members actually run
// with: the -lease flag, or the kexserved default of fail-after/2.
func (c clusterConfig) effLease() time.Duration {
	if c.lease > 0 {
		return c.lease
	}
	return c.failAfter / 2
}

// clusterNodes is the membership size: three is the smallest cluster
// where a majority quorum (2) survives one crash.
const clusterNodes = 3

// clusterShards spreads placement across the ring; the exactly-once
// contract is checked on shard 0's counter.
const clusterShards = 4

// reserveAddr grabs an ephemeral localhost port and releases it for the
// spawned server to rebind: every member's address must appear in every
// member's -peers before any member exists.
func reserveAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// retryBind runs boot until it succeeds or fails for another reason
// than a taken port, three attempts at most. reserveAddr releases each
// port before its member binds it, so another listener (a chaos
// proxy's, say) can take it first and the member exits with "address
// already in use". Every attempt reserves fresh ports, and must first
// stop what the failed one started; members reuse their data
// directories, as a crash-restart would.
func retryBind(boot func() error) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = boot(); err == nil || !strings.Contains(err.Error(), syscall.EADDRINUSE.Error()) {
			return err
		}
	}
	return err
}

// killAll SIGKILLs and reaps every member started so far.
func killAll(members []*served) {
	for _, s := range members {
		if s != nil {
			s.kill()
		}
	}
}

// closeAll closes every proxy opened so far.
func closeAll(proxies []*netfault.Proxy) {
	for _, px := range proxies {
		if px != nil {
			px.Close()
		}
	}
}

// probeOwner asks all three members who owns shard 0, through their
// proxies, and returns the owner's index only when the view has
// converged: exactly one member serves the shard and both others
// redirect to that member's advertised address. A transient boot-time
// view (a member briefly self-promoted over peers it has not met yet)
// fails the round and is retried.
func probeOwner(proxies []*netfault.Proxy) (int, error) {
	owner := -1
	hints := make([]string, len(proxies))
	for i, px := range proxies {
		c, err := client.DialTimeout(px.Addr(), time.Second)
		if err != nil {
			return -1, fmt.Errorf("member %d unreachable: %w", i, err)
		}
		_, gerr := c.Get(0)
		c.Close()
		if gerr == nil {
			if owner >= 0 {
				return -1, fmt.Errorf("members %d and %d both claim shard 0", owner, i)
			}
			owner = i
			continue
		}
		if np := isNotPrimaryErr(gerr); np != nil {
			hints[i] = np.Msg
			continue
		}
		return -1, fmt.Errorf("member %d: %w", i, gerr)
	}
	if owner < 0 {
		return -1, fmt.Errorf("no member claims shard 0")
	}
	for i, h := range hints {
		if i != owner && h != proxies[owner].Addr() {
			return -1, fmt.Errorf("member %d redirects to %q, not the claimed owner", i, h)
		}
	}
	return owner, nil
}

// verdictDial connects a verdict read with a bounded retry budget: right
// after the workers close, a member may not have reclaimed their
// identities yet and refuse the dial busy ("all identities leased") —
// a race of the harness, not a fault of the server.
func verdictDial(addr string, seed int64) (*client.Client, error) {
	return client.DialRetry(addr, client.RetryPolicy{
		Seed:        seed,
		MaxAttempts: 20,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    250 * time.Millisecond,
	})
}

// isNotPrimaryErr extracts a cluster redirect from err (nil otherwise).
func isNotPrimaryErr(err error) *wire.Error {
	var we *wire.Error
	if errors.As(err, &we) && we.Status == wire.StatusNotPrimary {
		return we
	}
	return nil
}

// runCluster drives the failover contract end to end against real
// processes: a three-node replicated cluster boots behind per-member
// chaos proxies (the advertised peer addresses ARE the proxies, so
// every redirect a client follows routes through one), n reconnecting
// clients write shard 0 through its primary, the primary is SIGKILLed
// at half-load, and the clients heal onto the promoted ring successor —
// redirect rotation forward, fallback to their home member when the
// rotated address dies. After the failover verdict the victim is
// restarted from its own data directory and must re-converge without
// moving the counter.
//
// The contract checked: the final counter equals EXACTLY n×ops. Every
// acknowledged write waited for the majority quorum (two disks), the
// successor catches up from the surviving quorum member before serving,
// and re-issued in-flight writes carry their original op IDs into the
// replicated dedup window — so the crash neither loses an acked write
// nor doubles a retried one.
func runCluster(out io.Writer, cfg clusterConfig) error {
	dir := cfg.dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "kexchaos-cluster-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	var (
		realAddrs []string
		proxies   []*netfault.Proxy
		members   []*served
		// Per-member arg lists are kept so the rejoin phase can restart
		// the killed primary with its exact original identity and data.
		memberArgs [][]string
	)
	// kill is idempotent; survivors are drained below first.
	defer func() { killAll(members); closeAll(proxies) }()
	err := retryBind(func() error {
		killAll(members)
		closeAll(proxies)
		realAddrs = make([]string, clusterNodes)
		replAddrs := make([]string, clusterNodes)
		proxies = make([]*netfault.Proxy, clusterNodes)
		members = make([]*served, clusterNodes)
		memberArgs = make([][]string, clusterNodes)
		var err error
		for i := range realAddrs {
			if realAddrs[i], err = reserveAddr(); err != nil {
				return err
			}
			if replAddrs[i], err = reserveAddr(); err != nil {
				return err
			}
		}
		for i := range proxies {
			// Clean relays (empty fault plans): the injected fault in this
			// mode is the SIGKILL; the proxies put the network hop every
			// redirect crosses under the harness's control.
			if proxies[i], err = netfault.New(realAddrs[i], netfault.Plan{Seed: cfg.seed + int64(i)}); err != nil {
				return err
			}
		}

		entries := make([]string, clusterNodes)
		for i := range entries {
			entries[i] = fmt.Sprintf("node-%d=%s/%s", i, proxies[i].Addr(), replAddrs[i])
		}
		peerSpec := strings.Join(entries, ",")
		for i := range members {
			memberArgs[i] = []string{
				"-addr", realAddrs[i], "-n", fmt.Sprint(cfg.n), "-k", fmt.Sprint(cfg.k),
				"-shards", fmt.Sprint(clusterShards), "-impl", cfg.impl, "-quiet",
				"-data-dir", filepath.Join(dir, fmt.Sprintf("node-%d", i)),
				"-fsync", cfg.fsync,
				"-node-id", fmt.Sprintf("node-%d", i), "-peers", peerSpec,
				"-quorum", "majority", "-fail-after", cfg.failAfter.String(),
				"-lease", cfg.effLease().String()}
			if members[i], err = startServedArgs(cfg.servedBin, memberArgs[i]...); err != nil {
				return fmt.Errorf("member %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Wait for a converged ownership view before choosing the victim:
	// killing a member that was about to demote would test nothing.
	primary := -1
	probeDeadline := time.Now().Add(15 * time.Second)
	var probeErr error
	for primary < 0 {
		if time.Now().After(probeDeadline) {
			return fmt.Errorf("cluster never converged on a shard 0 owner: %v", probeErr)
		}
		if primary, probeErr = probeOwner(proxies); probeErr != nil {
			primary = -1
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Every client homes at a follower: its first shard 0 op redirects
	// to the primary (exercising rotation), and after the kill its
	// fallback address is a member that stays alive.
	var followers []int
	for i := range members {
		if i != primary {
			followers = append(followers, i)
		}
	}
	conns := make([]*client.Client, cfg.n)
	for i := range conns {
		home := proxies[followers[i%len(followers)]].Addr()
		c, err := client.DialRetry(home, client.RetryPolicy{
			Seed:        cfg.seed + int64(i) + 1,
			MaxAttempts: 20,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    500 * time.Millisecond,
		})
		if err != nil {
			return fmt.Errorf("client %d admission: %w", i, err)
		}
		c.SetOpTimeout(2 * time.Second)
		defer c.Close()
		// Deterministic, per-client-distinct op-ID identities keep the
		// run reproducible; |1 keeps them nonzero.
		c.SetSession(uint64(cfg.seed+int64(i))<<1 | 1)
		conns[i] = c
	}

	// Workers count acknowledged writes; the coordinator SIGKILLs the
	// primary once half the total load is acked, so the crash lands on
	// a quorum-replicated prefix with live traffic on top of it. From
	// that ack on, workers issue nothing new until the primary is dead:
	// however fast the first half went, the rest of the load is the
	// failover's alone.
	var acked atomic.Int64
	// killedAt and heirAck (UnixNano, 0 = not yet) bracket the figure the
	// scenario exists to bound: victim SIGKILL to the first acknowledgement
	// of a write issued after it, which only the heir can have given.
	var killedAt, heirAck atomic.Int64
	killAt := int64(cfg.n*cfg.ops) / 2
	reached := make(chan struct{}) // closed by the ack that reaches killAt
	dead := make(chan struct{})    // closed once the primary is killed
	if killAt == 0 {
		close(reached)
	}
	errs := make([]error, cfg.n)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			for op := 0; op < cfg.ops; op++ {
				if acked.Load() >= killAt {
					<-dead
				}
				issued := time.Now().UnixNano()
				if _, err := c.Add(0, 1); err != nil {
					errs[i] = fmt.Errorf("op %d: %w", op, err)
					return
				}
				if k := killedAt.Load(); k != 0 && issued >= k {
					heirAck.CompareAndSwap(0, time.Now().UnixNano())
				}
				if acked.Add(1) == killAt {
					close(reached)
				}
			}
		}(i, c)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	killed := make(chan error, 1)
	go func() {
		select {
		case <-reached:
		case <-done:
			// Workers can only all stop short of the threshold by
			// erroring out: the ones that reach it wait for the kill.
			killed <- fmt.Errorf("workers stopped at %d/%d acked writes before the kill threshold", acked.Load(), killAt)
			return
		}
		// The crash fault: the primary dies and STAYS dead. Progress from
		// here on is the failover's alone.
		members[primary].kill()
		killedAt.Store(time.Now().UnixNano())
		close(dead)
		killed <- nil
	}()

	select {
	case <-done:
	case <-time.After(cfg.deadline):
		return fmt.Errorf("loss of progress: clients still running after the %v deadline", cfg.deadline)
	}
	if err := <-killed; err != nil {
		return fmt.Errorf("kill coordinator: %w", err)
	}

	counter, err := conns[0].Get(0)
	if err != nil {
		return fmt.Errorf("verdict read: %w", err)
	}
	// Release the workers' identity leases before the verdict dials:
	// the survivors' n identities may be fully leased to them.
	var dupeAcks, redirects int64
	for _, c := range conns {
		dupeAcks += c.DupeAcks()
		redirects += c.Redirects()
		c.Close()
	}
	survivorStats := make(map[string]wire.Stats, len(followers))
	for _, i := range followers {
		c, err := verdictDial(realAddrs[i], cfg.seed)
		if err != nil {
			return fmt.Errorf("verdict stats from member %d: %w", i, err)
		}
		st, serr := c.Stats()
		c.Close()
		if serr != nil {
			return fmt.Errorf("verdict stats from member %d: %w", i, serr)
		}
		survivorStats[fmt.Sprintf("node-%d", i)] = st
	}

	completed, failures := 0, 0
	for i, e := range errs {
		if e == nil {
			completed++
		} else {
			failures++
			fmt.Fprintf(out, "client %d failed: %v\n", i, e)
		}
	}
	var quorumAcks int64
	for _, st := range survivorStats {
		quorumAcks += st.QuorumAcks
	}
	want := int64(cfg.n * cfg.ops)
	if counter != want {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: counter=%d, want exactly %d (lost or doubled acknowledged writes across the failover)\n",
			counter, want)
	}
	if quorumAcks == 0 {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: quorum_acks=0 on both survivors: no ack waited for the replication quorum\n")
	}
	if redirects == 0 {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: redirects=0: follower-homed clients never saw a not_primary redirect\n")
	}

	// Rejoin: the failover verdict above is half the contract — the
	// killed primary must also come back cleanly. Restart it from its
	// own data directory with its exact original identity: it catches
	// up from the survivors (any unreplicated fork tail in its WAL is
	// fenced beneath the heir's higher epoch), re-claims its ring-owned
	// shards through the one gated promotion path, and the counter must
	// not move — the fork neither leaks back in nor eats an acked write.
	rejoined, rerr := startServedArgs(cfg.servedBin, memberArgs[primary]...)
	if rerr != nil {
		return fmt.Errorf("rejoin: restarting node-%d: %w", primary, rerr)
	}
	members[primary] = rejoined
	reconvergeDeadline := time.Now().Add(20 * time.Second)
	converged := -1
	var convErr error
	for converged < 0 && !time.Now().After(reconvergeDeadline) {
		if converged, convErr = probeOwner(proxies); convErr != nil {
			converged = -1
			time.Sleep(50 * time.Millisecond)
		}
	}
	if converged < 0 {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: cluster never re-converged after node-%d rejoined: %v\n", primary, convErr)
	} else {
		c, cerr := verdictDial(proxies[converged].Addr(), cfg.seed)
		if cerr != nil {
			return fmt.Errorf("rejoin verdict read: %w", cerr)
		}
		after, gerr := c.Get(0)
		c.Close()
		if gerr != nil {
			return fmt.Errorf("rejoin verdict read: %w", gerr)
		}
		if after != want {
			failures++
			fmt.Fprintf(out, "CONTRACT VIOLATION: counter=%d after node-%d rejoined, want %d (a fenced fork leaked back in or an acked write vanished)\n",
				after, primary, want)
		}
	}

	// Drain every member cleanly so their WAL closes are orderly.
	for i := range members {
		members[i].cmd.Process.Signal(syscall.SIGTERM)
	}
	for i := range members {
		select {
		case <-members[i].exited:
		case <-time.After(10 * time.Second):
			members[i].kill()
		}
	}

	if cfg.asJSON {
		b, err := json.MarshalIndent(struct {
			Completed int                   `json:"completed_clients"`
			Clients   int                   `json:"clients"`
			Counter   int64                 `json:"counter"`
			Want      int64                 `json:"want_counter"`
			DupeAcks  int64                 `json:"dupe_acks"`
			Redirects int64                 `json:"redirects"`
			Failures  int                   `json:"violations"`
			Survivors map[string]wire.Stats `json:"survivors"`
		}{completed, cfg.n, counter, want, dupeAcks, redirects, failures, survivorStats}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", b)
	} else {
		fmt.Fprintf(out, "cluster chaos: impl=%s n=%d k=%d ops=%d fsync=%s seed=%d members=%d quorum=majority\n",
			cfg.impl, cfg.n, cfg.k, cfg.ops, cfg.fsync, cfg.seed, clusterNodes)
		fmt.Fprintf(out, "clients: %d/%d completed; counter=%d (want %d) dupe_acks=%d redirects=%d\n",
			completed, cfg.n, counter, want, dupeAcks, redirects)
		for _, i := range followers {
			st := survivorStats[fmt.Sprintf("node-%d", i)]
			fmt.Fprintf(out, "survivor node-%d: quorum_acks=%d notprimary_redirects=%d replica_lag_lsn=%d\n",
				i, st.QuorumAcks, st.NotPrimaryRedirects, st.ReplicaLagLSN)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d contract violation(s)", failures)
	}
	if !cfg.asJSON {
		// Real time on whatever machine runs this: printed, never gated.
		promoted := "never: no write was issued after the kill"
		if h := heirAck.Load(); h != 0 {
			promoted = fmt.Sprintf("%dms", time.Duration(h-killedAt.Load()).Milliseconds())
		}
		fmt.Fprintf(out, "verdict: failover (%d acknowledged writes survived a primary SIGKILL exactly once; node-%d rejoined fenced and re-converged) promoted_after=%s\n",
			want, primary, promoted)
	}
	return nil
}
