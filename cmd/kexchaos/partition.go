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

// runPartition drives the leader-lease contract end to end against a
// real network partition, not a kill: a three-node cluster boots with
// every inter-member replication link routed through its own netfault
// proxy (one proxy per directed pair, so the harness can cut exactly
// the victim's links and nobody else's), n reconnecting clients write
// shard 0 through its primary, and at half-load every replication link
// touching the primary is partitioned in both directions — the member
// stays alive, its clients stay connected, only its quorum witness
// goes dark.
//
// The contract checked, in order:
//
//  1. Split-brain window: a probe client hammering the isolated
//     primary must see it STOP admitting (not_primary refusals)
//     within 2x the lease interval — asserted against the wall clock,
//     not eyeballed. The probe writes are Add(0, 0): harmless even if
//     one lands on the doomed fork before the lease lapses.
//  2. The majority keeps serving: the load completes against the
//     promoted heir while the victim is still isolated.
//  3. Heal: the partitions lift (held bytes flow again — nothing was
//     dropped), the victim catches up, its fork is fenced beneath the
//     heir's epoch, ownership re-converges, and the counter is EXACTLY
//     n x ops — zero acks lost or doubled across partition and heal.
//  4. The victim's own counters prove the mechanism: nonzero
//     lease_demotions (it self-demoted, it wasn't told), and after a
//     settle write on every shard all three frontiers are identical —
//     zero post-heal divergence.
func runPartition(out io.Writer, cfg clusterConfig) error {
	lease := cfg.effLease()
	dir := cfg.dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "kexchaos-partition-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	var (
		realAddrs, replAddrs []string
		proxies              []*netfault.Proxy
		// One replication proxy per directed pair: repl[i][j] is the
		// path member i uses to pull from member j. Isolating member v
		// means partitioning repl[v][*] (v's pulls of others) and
		// repl[*][v] (others' pulls of v) — the full quorum-witness
		// surface, while client links stay up.
		repl    [][]*netfault.Proxy
		members []*served
	)
	closeRepl := func() {
		for _, row := range repl {
			closeAll(row)
		}
	}
	defer func() { killAll(members); closeAll(proxies); closeRepl() }()
	err := retryBind(func() error {
		killAll(members)
		closeAll(proxies)
		closeRepl()
		realAddrs = make([]string, clusterNodes)
		replAddrs = make([]string, clusterNodes)
		proxies = make([]*netfault.Proxy, clusterNodes)
		repl = make([][]*netfault.Proxy, clusterNodes)
		members = make([]*served, clusterNodes)
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
			if proxies[i], err = netfault.New(realAddrs[i], netfault.Plan{Seed: cfg.seed + int64(i)}); err != nil {
				return err
			}
		}
		for i := range repl {
			repl[i] = make([]*netfault.Proxy, clusterNodes)
			for j := range repl[i] {
				if i == j {
					continue
				}
				if repl[i][j], err = netfault.New(replAddrs[j], netfault.Plan{Seed: cfg.seed + int64(10+i*clusterNodes+j)}); err != nil {
					return err
				}
			}
		}

		// Each member gets its own -peers spec: its own entry binds the
		// real repl address, every other entry routes through this
		// member's directed proxy for that peer. Peer IDs (which build
		// the ring) are identical everywhere; only the dial paths differ.
		for i := range members {
			entries := make([]string, clusterNodes)
			for j := range entries {
				ra := replAddrs[j]
				if i != j {
					ra = repl[i][j].Addr()
				}
				entries[j] = fmt.Sprintf("node-%d=%s/%s", j, proxies[j].Addr(), ra)
			}
			if members[i], err = startServedArgs(cfg.servedBin,
				// Two spare identities past the load clients: the probe that
				// hammers the isolated primary, and the settle/verdict client.
				"-addr", realAddrs[i], "-n", fmt.Sprint(cfg.n+2), "-k", fmt.Sprint(cfg.k),
				"-shards", fmt.Sprint(clusterShards), "-impl", cfg.impl, "-quiet",
				"-data-dir", filepath.Join(dir, fmt.Sprintf("node-%d", i)),
				"-fsync", cfg.fsync,
				"-node-id", fmt.Sprintf("node-%d", i), "-peers", strings.Join(entries, ","),
				"-quorum", "majority", "-fail-after", cfg.failAfter.String(),
				"-lease", lease.String()); err != nil {
				return fmt.Errorf("member %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

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
			MaxAttempts: 30,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    500 * time.Millisecond,
		})
		if err != nil {
			return fmt.Errorf("client %d admission: %w", i, err)
		}
		c.SetOpTimeout(2 * time.Second)
		defer c.Close()
		c.SetSession(uint64(cfg.seed+int64(i))<<1 | 1)
		conns[i] = c
	}

	var acked atomic.Int64
	killAt := int64(cfg.n*cfg.ops) / 2
	errs := make([]error, cfg.n)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			for op := 0; op < cfg.ops; op++ {
				if _, err := c.Add(0, 1); err != nil {
					errs[i] = fmt.Errorf("op %d: %w", op, err)
					return
				}
				acked.Add(1)
			}
		}(i, c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// The coordinator: at half-load, cut every replication link
	// touching the primary (both directions — symmetric isolation),
	// then probe the isolated member until it refuses.
	type probeVerdict struct {
		err          error
		refusalAfter time.Duration
	}
	probed := make(chan probeVerdict, 1)
	go func() {
		for acked.Load() < killAt {
			select {
			case <-done:
				probed <- probeVerdict{err: fmt.Errorf("workers stopped at %d/%d acked writes before the partition threshold", acked.Load(), killAt)}
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
		for j := range members {
			if j == primary {
				continue
			}
			repl[primary][j].SetPartition(netfault.Both)
			repl[j][primary].SetPartition(netfault.Both)
		}
		partitionedAt := time.Now()
		probed <- probeVerdict{err: probeIsolated(proxies[primary].Addr(), cfg.seed, partitionedAt, lease),
			refusalAfter: time.Since(partitionedAt)}
	}()

	select {
	case <-done:
	case <-time.After(cfg.deadline):
		return fmt.Errorf("loss of progress: clients still running after the %v deadline", cfg.deadline)
	}
	verdict := <-probed

	failures := 0
	if verdict.err != nil {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: %v\n", verdict.err)
	}

	// Heal. The held bytes deliver, the victim's pulls resume, it
	// catches up past the heir's epoch and re-claims its ring shards
	// through the gated promotion path.
	for j := range members {
		if j == primary {
			continue
		}
		repl[primary][j].Heal()
		repl[j][primary].Heal()
	}
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
		fmt.Fprintf(out, "CONTRACT VIOLATION: cluster never re-converged after the heal: %v\n", convErr)
	}

	completed := 0
	for i, e := range errs {
		if e == nil {
			completed++
		} else {
			failures++
			fmt.Fprintf(out, "client %d failed: %v\n", i, e)
		}
	}

	// Settle writes: BumpEpochs fences locally via snapshot, so a
	// follower adopts a promotion's epoch only when the first record AT
	// that epoch replicates. One delta-0 write per shard (counters
	// untouched) pushes every shard's current epoch through replication
	// so the frontier-equality check below can demand exact agreement.
	settle, err := client.DialRetry(proxies[0].Addr(), client.RetryPolicy{
		Seed: cfg.seed + 1000, MaxAttempts: 30, BaseDelay: 10 * time.Millisecond, MaxDelay: 500 * time.Millisecond,
	})
	if err != nil {
		return fmt.Errorf("settle client admission: %w", err)
	}
	settle.SetOpTimeout(2 * time.Second)
	defer settle.Close()
	settle.SetSession(uint64(cfg.seed)<<1 | (1 << 20) | 1)
	for s := uint32(0); s < clusterShards; s++ {
		if _, err := settle.Add(s, 0); err != nil {
			return fmt.Errorf("settle write on shard %d: %w", s, err)
		}
	}
	counter, err := settle.Get(0)
	if err != nil {
		return fmt.Errorf("verdict read: %w", err)
	}
	want := int64(cfg.n * cfg.ops)
	if counter != want {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: counter=%d, want exactly %d (lost or doubled acknowledged writes across partition and heal)\n",
			counter, want)
	}

	var dupeAcks, redirects int64
	for _, c := range conns {
		dupeAcks += c.DupeAcks()
		redirects += c.Redirects()
		c.Close()
	}
	if redirects == 0 {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: redirects=0: follower-homed clients never saw a not_primary redirect\n")
	}

	memberStats := make(map[string]wire.Stats, clusterNodes)
	for i := range members {
		c, err := client.DialTimeout(realAddrs[i], 2*time.Second)
		if err != nil {
			return fmt.Errorf("verdict stats from member %d: %w", i, err)
		}
		st, serr := c.Stats()
		c.Close()
		if serr != nil {
			return fmt.Errorf("verdict stats from member %d: %w", i, serr)
		}
		memberStats[fmt.Sprintf("node-%d", i)] = st
	}
	victim := memberStats[fmt.Sprintf("node-%d", primary)]
	if victim.LeaseDemotions == 0 {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: lease_demotions=0 on the isolated member: it never self-demoted\n")
	}
	if victim.LeaseExpirations == 0 {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: lease_expirations=0 on the isolated member: its lease never lapsed\n")
	}

	// Zero post-heal divergence: every member's (version, epoch)
	// frontier must be byte-identical, polled briefly because the last
	// settle record is still in flight to the slowest follower.
	frontierDeadline := time.Now().Add(10 * time.Second)
	var frontierErr error
	for {
		frontierErr = frontiersEqual(replAddrs)
		if frontierErr == nil || time.Now().After(frontierDeadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if frontierErr != nil {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: post-heal divergence: %v\n", frontierErr)
	}

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
			Completed      int                   `json:"completed_clients"`
			Clients        int                   `json:"clients"`
			Counter        int64                 `json:"counter"`
			Want           int64                 `json:"want_counter"`
			DupeAcks       int64                 `json:"dupe_acks"`
			Redirects      int64                 `json:"redirects"`
			RefusalAfterMS int64                 `json:"refusal_after_ms"`
			LeaseMS        int64                 `json:"lease_ms"`
			Failures       int                   `json:"violations"`
			Members        map[string]wire.Stats `json:"members"`
		}{completed, cfg.n, counter, want, dupeAcks, redirects,
			verdict.refusalAfter.Milliseconds(), lease.Milliseconds(), failures, memberStats}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", b)
	} else {
		fmt.Fprintf(out, "partition chaos: impl=%s n=%d k=%d ops=%d fsync=%s seed=%d members=%d quorum=majority lease=%v\n",
			cfg.impl, cfg.n, cfg.k, cfg.ops, cfg.fsync, cfg.seed, clusterNodes, lease)
		fmt.Fprintf(out, "clients: %d/%d completed; counter=%d (want %d) dupe_acks=%d redirects=%d refusal_after=%v\n",
			completed, cfg.n, counter, want, dupeAcks, redirects, verdict.refusalAfter.Round(time.Millisecond))
		for i := range members {
			st := memberStats[fmt.Sprintf("node-%d", i)]
			fmt.Fprintf(out, "member node-%d: lease_held=%v lease_expirations=%d lease_demotions=%d quorum_acks=%d notprimary_redirects=%d\n",
				i, st.LeaseHeld, st.LeaseExpirations, st.LeaseDemotions, st.QuorumAcks, st.NotPrimaryRedirects)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d contract violation(s)", failures)
	}
	if !cfg.asJSON {
		fmt.Fprintf(out, "verdict: partitioned (node-%d stopped admitting %v after isolation, bound 2x lease %v; %d acknowledged writes survived exactly once; frontiers re-converged)\n",
			primary, verdict.refusalAfter.Round(time.Millisecond), 2*lease, want)
	}
	return nil
}

// probeIsolated hammers the isolated primary with delta-0 writes until
// it answers not_primary, asserting the first refusal lands within 2x
// the lease interval of the partition. Internal answers (a quorum wait
// the lease failed fast) mean the member is still admitting; transport
// failures redial — the member is alive, only its peers are dark.
func probeIsolated(addr string, seed int64, partitionedAt time.Time, lease time.Duration) error {
	bound := 2 * lease
	deadline := partitionedAt.Add(bound + 3*time.Second)
	session := uint64(seed)<<1 | (1 << 21) | 1
	var pc *client.Client
	defer func() {
		if pc != nil {
			pc.Close()
		}
	}()
	seq := uint64(0)
	for time.Now().Before(deadline) {
		if pc == nil {
			c, err := client.DialTimeout(addr, time.Second)
			if err != nil {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			c.SetOpTimeout(2*lease + time.Second)
			c.SetSession(session)
			pc = c
		}
		seq++
		_, err := pc.AddOp(0, 0, seq)
		if err == nil {
			continue // still admitting: the lease has not lapsed yet
		}
		if isNotPrimaryErr(err) != nil {
			if since := time.Since(partitionedAt); since > bound {
				return fmt.Errorf("isolated primary kept admitting for %v, bound 2x lease = %v", since, bound)
			}
			return nil
		}
		var we *wire.Error
		if !errors.As(err, &we) {
			pc.Close()
			pc = nil // transport hiccup: redial and keep probing
		}
	}
	return fmt.Errorf("isolated primary never answered not_primary within %v (still split-brain serving)", bound+3*time.Second)
}

// frontiersEqual dials every member's replication listener directly
// (the probe's hello ID is outside the membership, so it cannot count
// as a lease witness) and compares their per-shard (version, epoch)
// frontiers for exact equality.
func frontiersEqual(replAddrs []string) error {
	var refV, refE []uint64
	for i, addr := range replAddrs {
		v, e, err := fetchFrontier(addr)
		if err != nil {
			return fmt.Errorf("member %d frontier: %w", i, err)
		}
		if i == 0 {
			refV, refE = v, e
			continue
		}
		for s := range refV {
			if v[s] != refV[s] || e[s] != refE[s] {
				return fmt.Errorf("member %d shard %d at (ver %d, epoch %d), member 0 at (ver %d, epoch %d)",
					i, s, v[s], e[s], refV[s], refE[s])
			}
		}
	}
	return nil
}

// fetchFrontier speaks just enough of the repl dialect to read one
// member's frontier.
func fetchFrontier(addr string) (vers, epochs []uint64, err error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if err := wire.WriteReplFrame(conn, wire.ReplHello{NodeID: "kexchaos-probe"}.Encode()); err != nil {
		return nil, nil, err
	}
	b, err := wire.ReadReplFrame(conn)
	if err != nil {
		return nil, nil, err
	}
	w, err := wire.ParseReplWelcome(b)
	if err != nil {
		return nil, nil, err
	}
	if w.Status != wire.StatusOK {
		return nil, nil, fmt.Errorf("replication handshake refused: %s", w.Status)
	}
	if err := wire.WriteReplFrame(conn, wire.EncodeFrontierRequest()); err != nil {
		return nil, nil, err
	}
	b, err = wire.ReadReplFrame(conn)
	if err != nil {
		return nil, nil, err
	}
	f, err := wire.ParseFrontierResponse(b)
	if err != nil {
		return nil, nil, err
	}
	if f.Status != wire.StatusOK {
		return nil, nil, fmt.Errorf("frontier refused: %s", f.Status)
	}
	return f.Vers, f.Epochs, nil
}
