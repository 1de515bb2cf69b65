package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kexclusion/internal/cluster"
	"kexclusion/internal/durable"
	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// clusterBenchConfig shapes one -cluster sweep: the same pipelined
// write workload against a fresh in-process three-node cluster at each
// ack quorum — 1 (local durability only), majority (2), and all (3) —
// so the report prices exactly what each added replication ack costs
// the hot path.
type clusterBenchConfig struct {
	Nodes      int
	Conns      int
	Depth      int
	OpsPerConn int
	Shards     int
	K          int
}

// clusterRow is one measured cell. The JSON field set is the
// BENCH_cluster schema — append fields if needed, never rename or
// remove.
type clusterRow struct {
	Quorum    string  `json:"quorum"` // the spelling: 1, majority, all
	Acks      int     `json:"acks"`   // the resolved node count
	Conns     int     `json:"conns"`
	Depth     int     `json:"depth"`
	Ops       int     `json:"ops"`
	Errors    int     `json:"errors"`
	ElapsedMS float64 `json:"elapsed_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// clusterSlowdown compares a quorum cell against the quorum-1 baseline.
type clusterSlowdown struct {
	Quorum   string  `json:"quorum"`
	Slowdown float64 `json:"slowdown"` // baseline ops/sec ÷ this cell's
}

type clusterReport struct {
	Schema     string            `json:"schema"`
	Nodes      int               `json:"nodes"`
	OpsPerConn int               `json:"ops_per_conn"`
	Shards     int               `json:"shards"`
	K          int               `json:"k"`
	Rows       []clusterRow      `json:"rows"`
	Slowdowns  []clusterSlowdown `json:"slowdowns"`
	// Verdict is "replicated" when every cell completed its full load
	// error-free at its quorum, else "errors". Relative throughput is
	// reported, not gated: CI machines are too noisy to fail on it.
	Verdict string `json:"verdict"`
}

const clusterSchema = "kexbench/cluster/v1"

// reserveAddr grabs an ephemeral localhost port and releases it for a
// server to rebind: every member's address must be in every member's
// peer list before any member exists.
func reserveAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// runClusterBench sweeps the ack quorum and emits the report.
func runClusterBench(cfg clusterBenchConfig, out io.Writer, asJSON bool) error {
	rep := clusterReport{Schema: clusterSchema, Nodes: cfg.Nodes,
		OpsPerConn: cfg.OpsPerConn, Shards: cfg.Shards, K: cfg.K}
	quorums := []struct {
		label string
		acks  int
	}{
		{"1", 1},
		{"majority", cfg.Nodes/2 + 1},
		{"all", cfg.Nodes},
	}
	for _, q := range quorums {
		row, err := clusterCell(cfg, q.label, q.acks)
		if err != nil {
			return fmt.Errorf("cell quorum=%s: %w", q.label, err)
		}
		rep.Rows = append(rep.Rows, row)
	}

	rep.Verdict = "replicated"
	var base float64
	for _, r := range rep.Rows {
		if r.Errors > 0 {
			rep.Verdict = "errors"
		}
		if r.Quorum == "1" {
			base = r.OpsPerSec
		}
	}
	for _, r := range rep.Rows {
		if r.Quorum == "1" || base <= 0 || r.OpsPerSec <= 0 {
			continue
		}
		rep.Slowdowns = append(rep.Slowdowns, clusterSlowdown{Quorum: r.Quorum, Slowdown: base / r.OpsPerSec})
	}

	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(out, "cluster quorum sweep (%d nodes, %d conns x %d ops, depth %d, %d shards, k=%d)\n",
		cfg.Nodes, cfg.Conns, cfg.OpsPerConn, cfg.Depth, cfg.Shards, cfg.K)
	fmt.Fprintf(out, "%-10s %6s %6s %10s %8s %12s\n", "quorum", "acks", "conns", "ops", "errs", "ops/sec")
	for _, r := range rep.Rows {
		fmt.Fprintf(out, "%-10s %6d %6d %10d %8d %12.0f\n", r.Quorum, r.Acks, r.Conns, r.Ops, r.Errors, r.OpsPerSec)
	}
	for _, s := range rep.Slowdowns {
		fmt.Fprintf(out, "slowdown: quorum=%s vs 1: %.2fx\n", s.Quorum, s.Slowdown)
	}
	fmt.Fprintf(out, "verdict: %s\n", rep.Verdict)
	return nil
}

// clusterCell boots a fresh in-process cluster at the given ack quorum,
// drives the pipelined write load at shard 0's primary, and tears the
// cluster down.
func clusterCell(cfg clusterBenchConfig, label string, acks int) (clusterRow, error) {
	dir, err := os.MkdirTemp("", "kexbench-cluster-")
	if err != nil {
		return clusterRow{}, err
	}
	defer os.RemoveAll(dir)

	peers := make([]cluster.Peer, cfg.Nodes)
	for i := range peers {
		peers[i].ID = fmt.Sprintf("node-%d", i)
		if peers[i].ClientAddr, err = reserveAddr(); err != nil {
			return clusterRow{}, err
		}
		if peers[i].ReplAddr, err = reserveAddr(); err != nil {
			return clusterRow{}, err
		}
	}

	n := cfg.Conns + 2 // headroom so admission never sheds the drivers
	k := cfg.K
	if k > n {
		k = n
	}
	servers := make([]*server.Server, cfg.Nodes)
	defer func() {
		for _, s := range servers {
			if s != nil {
				ctx, cancel := shutdownCtx()
				s.Shutdown(ctx)
				cancel()
			}
		}
	}()
	for i, p := range peers {
		srv, err := server.New(server.Config{
			N: n, K: k, Shards: cfg.Shards,
			AdmitTimeout: 5 * time.Second,
			DataDir:      filepath.Join(dir, p.ID),
			Fsync:        durable.SyncAlways,
			Cluster: &server.ClusterConfig{
				NodeID: p.ID, Peers: peers, Quorum: acks,
				PullWait: 50 * time.Millisecond,
			},
			Logf: func(string, ...any) {},
		})
		if err != nil {
			return clusterRow{}, err
		}
		if _, err := srv.Listen(p.ClientAddr); err != nil {
			return clusterRow{}, err
		}
		go srv.Serve()
		servers[i] = srv
	}

	// Find shard 0's primary; the ring is up as soon as every member is
	// serving its owned shards.
	owner := -1
	deadline := time.Now().Add(10 * time.Second)
	for owner < 0 {
		if time.Now().After(deadline) {
			return clusterRow{}, fmt.Errorf("no member claimed shard 0")
		}
		for i, s := range servers {
			if s.Node().Owns(0) {
				owner = i
				break
			}
		}
		if owner < 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}

	conns := make([]*client.Client, cfg.Conns)
	for i := range conns {
		c, err := client.DialRetry(peers[owner].ClientAddr, client.RetryPolicy{
			Seed: int64(i) + 1, MaxAttempts: 8, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond,
		})
		if err != nil {
			return clusterRow{}, err
		}
		c.SetOpTimeout(30 * time.Second)
		defer c.Close()
		c.SetSession(uint64(i)<<1 | 1)
		conns[i] = c
	}

	var wg sync.WaitGroup
	errCounts := make([]int, cfg.Conns)
	start := time.Now()
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			pend := make([]*client.Pending, 0, cfg.Depth)
			drain := func() {
				for _, op := range pend {
					if _, err := op.Wait(); err != nil {
						errCounts[i]++
					}
				}
				pend = pend[:0]
			}
			for op := 0; op < cfg.OpsPerConn; op++ {
				p, err := c.Go(wire.KindAdd, 0, 1, c.NextSeq())
				if err != nil {
					errCounts[i]++
					continue
				}
				if pend = append(pend, p); len(pend) >= cfg.Depth {
					drain()
				}
			}
			drain()
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := cfg.Conns * cfg.OpsPerConn
	nerr := 0
	for _, e := range errCounts {
		nerr += e
	}
	row := clusterRow{
		Quorum: label, Acks: acks, Conns: cfg.Conns, Depth: cfg.Depth,
		Ops: total, Errors: nerr,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
	}
	if elapsed > 0 {
		row.OpsPerSec = float64(total-nerr) / elapsed.Seconds()
	}
	return row, nil
}
