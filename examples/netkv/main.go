// Netkv: the typed-object store in one sitting — named maps,
// registers, queues, and atomic cross-shard groups over TCP.
//
// The demo runs four acts against one server:
//
//  1. a concurrent key-value workload on a named map (every client
//     writes its own keys, then everything is read back),
//
//  2. an atomic two-register transfer loop whose invariant (the sum of
//     both accounts) must hold at every point,
//
//  3. a queue dequeue re-issued under its original op ID, answered
//     from the dedup window instead of popping twice,
//
//  4. with -durable, a restart from the same data directory after
//     which all of the above must still be there.
//
//     go run ./examples/netkv                 self-hosted demo
//     go run ./examples/netkv -addr HOST:PORT drive a running kexserved
//     go run ./examples/netkv -durable DIR    run, restart from DIR, verify survival
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"kexclusion/internal/object"
	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
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
		fmt.Fprintln(os.Stderr, "netkv:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", "", "kexserved address (empty: start an in-process server)")
		clients = flag.Int("clients", 4, "concurrent client connections")
		ops     = flag.Int("ops", 25, "map writes per client (and atomic transfers)")
		durDir  = flag.String("durable", "", "data directory: run the workload, restart the server from it, and verify the objects survived")
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

	probe, err := client.Dial(target)
	if err != nil {
		return err
	}
	defer probe.Close()

	// Act 1: a named map, written concurrently. Creation is idempotent,
	// so every client may race to create it.
	const kv = "demo:inventory"
	if _, err := probe.Create(kv, object.TypeMap, 0); err != nil {
		return err
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
			for j := 0; j < *ops; j++ {
				key := fmt.Sprintf("c%d:%d", i, j)
				if _, err := c.MapPut(kv, key, int64(i*1000+j)); err != nil {
					errs <- fmt.Errorf("client %d put %s: %w", i, key, err)
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
	for i := 0; i < *clients; i++ {
		for j := 0; j < *ops; j++ {
			key := fmt.Sprintf("c%d:%d", i, j)
			v, found, err := probe.MapGet(kv, key)
			if err != nil {
				return err
			}
			if !found || v != int64(i*1000+j) {
				return fmt.Errorf("map lost %s: got %d (found=%v)", key, v, found)
			}
		}
	}
	fmt.Printf("map %q holds all %d keys from %d clients\n", kv, *clients**ops, *clients)

	// Act 2: atomic transfers between two registers, very likely on
	// different shards (placement is by name hash). The invariant — the
	// accounts always sum to the seed amount — holds even if the group
	// spans shards, because the group commits under one WAL record.
	const alice, bob = "acct:alice", "acct:bob"
	for _, name := range []string{alice, bob} {
		if _, err := probe.Create(name, object.TypeRegister, 0); err != nil {
			return err
		}
	}
	seedRes, err := probe.RegAdd(alice, 100)
	if err != nil {
		return err
	}
	seeded := seedRes.Value
	bobStart, _, err := probe.RegGet(bob)
	if err != nil {
		return err
	}
	for i := 0; i < *ops; i++ {
		group := probe.AtomicSeqs([]client.AtomicOp{
			{Kind: wire.KindRegAdd, Obj: alice, Arg: -1},
			{Kind: wire.KindRegAdd, Obj: bob, Arg: 1},
		})
		if _, err := probe.Atomic(group); err != nil {
			return fmt.Errorf("transfer %d: %w", i, err)
		}
	}
	a, _, err := probe.RegGet(alice)
	if err != nil {
		return err
	}
	b, _, err := probe.RegGet(bob)
	if err != nil {
		return err
	}
	if a+b != seeded+bobStart {
		return fmt.Errorf("transfer invariant broken: %d + %d != %d", a, b, seeded+bobStart)
	}
	fmt.Printf("registers %q=%d %q=%d after %d atomic transfers (sum preserved, shards %d and %d)\n",
		alice, a, bob, b, *ops, probe.ShardFor(alice), probe.ShardFor(bob))

	// Act 3: exactly-once dequeue. Re-issuing a dequeue under its
	// original op ID is how a client retries a lost ack; the dedup
	// window answers with the ORIGINAL popped value instead of popping
	// again.
	const orders = "demo:orders"
	if _, err := probe.Create(orders, object.TypeQueue, 0); err != nil {
		return err
	}
	for _, v := range []int64{7, 8, 9} {
		if _, err := probe.QEnq(orders, v); err != nil {
			return err
		}
	}
	deqSeq := probe.NextSeq()
	shard := probe.ShardFor(orders)
	popped, err := probe.QDeqOp(shard, orders, deqSeq)
	if err != nil {
		return err
	}
	redo, err := probe.QDeqOp(shard, orders, deqSeq) // the "retry"
	if err != nil {
		return err
	}
	n, _, err := probe.QLen(orders)
	if err != nil {
		return err
	}
	if !redo.WasDuplicate || redo.Value != popped.Value || n != 2 {
		return fmt.Errorf("retry popped again: first=%+v retry=%+v len=%d", popped, redo, n)
	}
	fmt.Printf("queue %q: dequeue of %d retried under seq %d answered as duplicate; %d elements remain\n",
		orders, popped.Value, deqSeq, n)

	st, err := probe.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("server: map_ops=%d register_ops=%d queue_ops=%d read_fastpath=%d atomic_groups=%d\n",
		st.ObjMapOps, st.ObjRegisterOps, st.ObjQueueOps, st.ReadFastpath, st.BatchAtomic)

	if *durDir != "" {
		// Act 4: stop the server, boot a fresh one from the same data
		// directory, and check every object came back.
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
		key := fmt.Sprintf("c%d:%d", *clients-1, *ops-1)
		v, found, err := probe2.MapGet(kv, key)
		if err != nil {
			return err
		}
		if !found || v != int64((*clients-1)*1000+*ops-1) {
			return fmt.Errorf("map lost %s across restart: got %d (found=%v)", key, v, found)
		}
		a2, _, err := probe2.RegGet(alice)
		if err != nil {
			return err
		}
		b2, _, err := probe2.RegGet(bob)
		if err != nil {
			return err
		}
		if a2 != a || b2 != b {
			return fmt.Errorf("registers lost state across restart: %d/%d, want %d/%d", a2, b2, a, b)
		}
		n2, _, err := probe2.QLen(orders)
		if err != nil {
			return err
		}
		if n2 != n {
			return fmt.Errorf("queue lost state across restart: len=%d, want %d", n2, n)
		}
		fmt.Printf("all objects survived the restart intact (map, registers, queue)\n")
	}
	return nil
}
