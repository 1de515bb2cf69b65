package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"kexclusion/internal/netfault"
	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// netConfig is the -net mode's shape, pre-validated by run.
type netConfig struct {
	impl     string
	n, k     int
	ops      int
	kindsCSV string
	seed     int64
	idle     time.Duration
	deadline time.Duration
	asJSON   bool
}

// runNet drives the robustness stack end to end through real sockets:
// a live server with its session watchdog armed, a netfault chaos proxy
// in front of it, and n reconnecting clients — one per process
// identity, so a client whose link breaks can only be re-admitted after
// the watchdog reclaims its old identity. Victim connections (the ones
// the seeded plan arms a rule on) run idempotent reads, which the retry
// discipline may re-issue across transport loss; healthy connections
// run writes, each of which must land on the counter exactly once.
//
// The contract checked: every client completes its workload despite the
// injected link faults, the counter equals exactly the healthy writes,
// and an injected partition is detected by the watchdog (not merely
// ridden out by a client-side timeout).
func runNet(out io.Writer, cfg netConfig) error {
	kinds, err := netfault.ParseActions(cfg.kindsCSV)
	if err != nil {
		return err
	}

	srv, err := server.New(server.Config{
		N: cfg.n, K: cfg.k, Shards: 1,
		Impl: cfg.impl,
		// Park redials for one watchdog period: a victim that lost its
		// identity to a fault re-admits as soon as the reclaim frees it.
		AdmitTimeout: cfg.idle,
		IdleTimeout:  cfg.idle,
	})
	if err != nil {
		return err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	}()

	plan := netfault.NewPlan(cfg.seed, cfg.n, kinds...)
	px, err := netfault.New(addr.String(), plan)
	if err != nil {
		return err
	}
	defer px.Close()

	victim := make(map[int]bool, len(plan.Rules))
	hasPartition := false
	for _, r := range plan.Rules {
		victim[r.Conn] = true
		if r.Act == netfault.Partition {
			hasPartition = true
		}
	}

	// Dial sequentially so client i is proxy connection i: the plan's
	// conn indices name clients deterministically. Redials after a fault
	// land on later (rule-free) connections.
	conns := make([]*client.Client, cfg.n)
	for i := range conns {
		c, err := client.DialRetry(px.Addr(), client.RetryPolicy{
			Seed:        cfg.seed + int64(i) + 1,
			MaxAttempts: 10,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    cfg.idle,
		})
		if err != nil {
			return fmt.Errorf("client %d admission: %w", i, err)
		}
		c.SetOpTimeout(2 * cfg.idle)
		defer c.Close()
		// Deterministic, per-client-distinct op-ID identities keep the
		// run reproducible; |1 keeps them nonzero.
		c.SetSession(uint64(cfg.seed+int64(i))<<1 | 1)
		conns[i] = c
	}

	// Warm-up round: a scheduler stall during the dial phase can outlast
	// the watchdog and reclaim sessions that never got to operate. An
	// idempotent ping per client self-heals any such casualty before the
	// measured workload begins (redials land on rule-free connections),
	// so the verdict judges the injected faults, not host load.
	for i, c := range conns {
		if err := c.Ping(); err != nil {
			return fmt.Errorf("client %d warm-up: %w", i, err)
		}
	}

	errs := make([]error, cfg.n)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			for op := 0; op < cfg.ops; op++ {
				var err error
				if victim[i] {
					_, err = c.Get(0)
				} else {
					_, err = c.Add(0, 1)
				}
				if err != nil {
					errs[i] = fmt.Errorf("op %d: %w", op, err)
					return
				}
			}
		}(i, c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(cfg.deadline):
		return fmt.Errorf("loss of progress: clients still running after the %v deadline", cfg.deadline)
	}

	counter, err := conns[0].Get(0)
	if err != nil {
		return fmt.Errorf("verdict read: %w", err)
	}
	sstats := srv.Stats()
	pstats := px.Stats()

	completed, failures := 0, 0
	for i, e := range errs {
		if e == nil {
			completed++
		} else {
			failures++
			fmt.Fprintf(out, "client %d failed: %v\n", i, e)
		}
	}
	healthy := cfg.n - len(plan.Rules)
	wantCounter := int64(healthy * cfg.ops)
	if counter != wantCounter {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: counter=%d, want %d (every healthy write exactly once)\n",
			counter, wantCounter)
	}
	if hasPartition && sstats.IdleReclaims < 1 {
		failures++
		fmt.Fprintf(out, "CONTRACT VIOLATION: a partition was injected but the watchdog reclaimed nothing\n")
	}

	if cfg.asJSON {
		// Unlike the crash-injection report, a network run's counters are
		// schedule-dependent (retry counts, byte totals); only the plan
		// line is a pure function of the seed.
		b, err := json.MarshalIndent(struct {
			Plan       string         `json:"plan"`
			Completed  int            `json:"completed_clients"`
			Clients    int            `json:"clients"`
			Counter    int64          `json:"counter"`
			Want       int64          `json:"want_counter"`
			Violations int            `json:"violations"`
			Server     wire.Stats     `json:"server"`
			Proxy      netfault.Stats `json:"proxy"`
		}{plan.String(), completed, cfg.n, counter, wantCounter, failures, sstats, pstats}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", b)
	} else {
		fmt.Fprintf(out, "net chaos: impl=%s n=%d k=%d ops=%d idle=%v\n",
			cfg.impl, cfg.n, cfg.k, cfg.ops, cfg.idle)
		fmt.Fprintln(out, plan)
		fmt.Fprintf(out, "clients: %d/%d completed; counter=%d (want %d)\n",
			completed, cfg.n, counter, wantCounter)
		fmt.Fprintf(out, "server: admitted=%d reclaimed=%d idle_reclaims=%d op_deadlines=%d\n",
			sstats.Admitted, sstats.Reclaimed, sstats.IdleReclaims, sstats.OpDeadlines)
		fmt.Fprintf(out, "proxy: partitions=%d resets=%d truncations=%d delayed_chunks=%d bytes_up=%d bytes_down=%d\n",
			pstats.Partitions, pstats.Resets, pstats.Truncations,
			pstats.DelayedChunks, pstats.BytesUp, pstats.BytesDown)
	}
	if failures > 0 {
		return fmt.Errorf("%d contract violation(s)", failures)
	}
	if !cfg.asJSON {
		fmt.Fprintf(out, "verdict: resilient (%d clients completed through %d injected link faults)\n",
			cfg.n, len(plan.Rules))
	}
	return nil
}
