// Netcounter: the paper's resilient shared counter, served over TCP.
//
// Each connected client leases one of the server's N process
// identities; every increment runs through the (N, k)-assignment
// wrapper of its shard, so at most k clients are inside any shard's
// wait-free core at once, and a client that vanishes mid-operation is
// absorbed as a crash fault.
//
//	go run ./examples/netcounter                 self-hosted demo
//	go run ./examples/netcounter -addr HOST:PORT drive a running kexserved
//	go run ./examples/netcounter -durable DIR    run, restart from DIR, verify survival
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
)

// startServer boots a self-hosted kexserved, durable when dir is set.
func startServer(dir string) (*server.Server, string, func(), error) {
	srv, err := server.New(server.Config{
		N: 8, K: 2, Shards: 4,
		DataDir: dir,
	})
	if err != nil {
		return nil, "", nil, err
	}
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	go srv.Serve()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	return srv, bound.String(), stop, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "netcounter:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", "", "kexserved address (empty: start an in-process server)")
		clients = flag.Int("clients", 4, "concurrent client connections")
		ops     = flag.Int("ops", 25, "increments per client")
		durDir  = flag.String("durable", "", "data directory: run the workload, restart the server from it, and verify the counters survived")
	)
	flag.Parse()
	if *clients < 1 || *ops < 1 {
		return fmt.Errorf("need clients >= 1 and ops >= 1, got clients=%d ops=%d", *clients, *ops)
	}
	if *durDir != "" && *addr != "" {
		return fmt.Errorf("-durable restarts a self-hosted server; it excludes -addr")
	}

	target := *addr
	var stop func()
	if target == "" {
		_, bound, stopFn, err := startServer(*durDir)
		if err != nil {
			return err
		}
		target, stop = bound, stopFn
		defer func() {
			if stop != nil {
				stop()
			}
		}()
		mode := ""
		if *durDir != "" {
			mode = fmt.Sprintf(", durable in %s", *durDir)
		}
		fmt.Printf("self-hosted kexserved on %s (n=8 k=2 shards=4%s)\n", target, mode)
	}

	// Baseline per shard, so the demo also works against a long-running
	// server whose counters are not zero.
	probe, err := client.Dial(target)
	if err != nil {
		return err
	}
	shards := probe.Hello().Shards
	before := make([]int64, shards)
	for sh := uint32(0); sh < shards; sh++ {
		if before[sh], err = probe.Get(sh); err != nil {
			return err
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, *clients)
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(target)
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			defer c.Close()
			shard := uint32(i) % shards
			for j := 0; j < *ops; j++ {
				if _, err := c.Add(shard, 1); err != nil {
					errs <- fmt.Errorf("client %d (p=%d) op %d: %w", i, c.Identity(), j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}

	total := int64(0)
	after := make([]int64, shards)
	for sh := uint32(0); sh < shards; sh++ {
		if after[sh], err = probe.Get(sh); err != nil {
			return err
		}
		total += after[sh] - before[sh]
	}
	st, err := probe.Stats()
	if err != nil {
		return err
	}
	probe.Close()

	want := int64(*clients) * int64(*ops)
	fmt.Printf("counted %d increments across %d shards (want %d)\n", total, shards, want)
	fmt.Printf("server: impl=%s admitted=%d rejected=%d reclaimed=%d\n",
		st.Impl, st.Admitted, st.Rejected, st.Reclaimed)
	applied := int64(0)
	for _, snap := range st.PerShard {
		applied += snap.AppliedOps
	}
	fmt.Printf("per-shard metrics: %d applied ops, shard 0 %s\n", applied, st.PerShard[0].String())
	if total != want {
		return fmt.Errorf("lost updates: counted %d, want %d", total, want)
	}

	if *durDir != "" {
		// Phase 2: stop the server, boot a fresh one from the same data
		// directory, and check every shard's counter came back.
		stop()
		stop = nil
		srv2, target2, stop2, err := startServer(*durDir)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		defer stop2()
		rec := srv2.Recovery()
		fmt.Printf("restarted from %s: restart_count=%d recovered_ops=%d\n",
			*durDir, rec.RestartCount, rec.RecoveredOps)
		probe2, err := client.Dial(target2)
		if err != nil {
			return err
		}
		defer probe2.Close()
		for sh := uint32(0); sh < shards; sh++ {
			v, err := probe2.Get(sh)
			if err != nil {
				return err
			}
			if v != after[sh] {
				return fmt.Errorf("shard %d lost state across restart: %d, want %d", sh, v, after[sh])
			}
		}
		fmt.Printf("all %d shards survived the restart intact\n", shards)
	}
	return nil
}
