package server_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"kexclusion/internal/durable"
	"kexclusion/internal/server"
	"kexclusion/internal/wire"
)

// startStoppable is startServer with an explicit, idempotent stop —
// restart tests must release the data directory mid-test, not at
// cleanup time.
func startStoppable(t *testing.T, cfg server.Config) (*server.Server, string, func()) {
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
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			if err := <-served; err != nil {
				t.Errorf("Serve returned %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return srv, addr.String(), stop
}

func TestDurableStatePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{N: 4, K: 2, Shards: 2, DataDir: dir, Fsync: durable.SyncAlways}

	_, addr, stop := startStoppable(t, cfg)
	c := dial(t, addr)
	for i := 0; i < 10; i++ {
		if _, err := c.Add(0, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Set(1, 42); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RestartCount != 0 || st.RecoveredOps != 0 {
		t.Fatalf("fresh boot stats: restart_count=%d recovered_ops=%d, want 0/0",
			st.RestartCount, st.RecoveredOps)
	}
	c.Close()
	stop()

	// Same directory, new process: every acknowledged mutation must be
	// visible, and the stats must say how it got there.
	srv2, addr2, _ := startStoppable(t, cfg)
	if rec := srv2.Recovery(); rec.RecoveredOps != 11 {
		t.Fatalf("RecoveredOps = %d, want 11", rec.RecoveredOps)
	}
	c2 := dial(t, addr2)
	defer c2.Close()
	if v, err := c2.Get(0); err != nil || v != 30 {
		t.Fatalf("shard 0 after restart = %d, %v; want 30", v, err)
	}
	if v, err := c2.Get(1); err != nil || v != 42 {
		t.Fatalf("shard 1 after restart = %d, %v; want 42", v, err)
	}
	st2, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.RestartCount != 1 {
		t.Fatalf("restart_count = %d, want 1", st2.RestartCount)
	}
	if st2.RecoveredOps != 11 {
		t.Fatalf("recovered_ops = %d, want 11", st2.RecoveredOps)
	}
}

func TestDuplicateOpAcknowledgedFromWindow(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{N: 4, K: 2, Shards: 1, DataDir: dir, Fsync: durable.SyncAlways}

	_, addr, stop := startStoppable(t, cfg)
	c := dial(t, addr)
	c.SetSession(0xfeed)

	res, err := c.AddOp(0, 5, 1)
	if err != nil || res.Value != 5 || res.WasDuplicate {
		t.Fatalf("first AddOp = %+v, %v", res, err)
	}
	// The ambiguous retry: same session, same seq. The server must
	// answer the ORIGINAL result without applying again.
	res, err = c.AddOp(0, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 5 || !res.WasDuplicate {
		t.Fatalf("retried AddOp = %+v, want Value 5 with WasDuplicate", res)
	}
	res, err = c.AddOp(0, 3, 2)
	if err != nil || res.Value != 8 {
		t.Fatalf("next AddOp = %+v, %v; want 8", res, err)
	}
	// A re-issued older seq still inside the dedup history answers the
	// ORIGINAL result — the arg is ignored, nothing re-applies. (This is
	// what lets a pipelined burst heal after a mid-flight disconnect.)
	res, err = c.AddOp(0, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 5 || !res.WasDuplicate {
		t.Fatalf("windowed re-issue of seq 1 = %+v, want original Value 5 with WasDuplicate", res)
	}
	// A seq that has aged past durable.DedupDepth is a protocol error,
	// not a silent re-ack of the wrong op.
	lastSeq := uint64(2)
	for i := 0; i < durable.DedupDepth; i++ {
		lastSeq++
		if _, err := c.AddOp(0, 1, lastSeq); err != nil {
			t.Fatal(err)
		}
	}
	want := int64(8 + durable.DedupDepth)
	if _, err := c.AddOp(0, 99, 1); err == nil {
		t.Fatal("stale seq accepted")
	} else {
		var we *wire.Error
		if !errors.As(err, &we) || we.Status != wire.StatusBadRequest {
			t.Fatalf("stale seq: got %v, want StatusBadRequest", err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.AppliedDupes != 2 {
		t.Fatalf("applied_dupes = %d, want 2", st.AppliedDupes)
	}
	c.Close()
	stop()

	// The dedup window is part of the durable state: a retry of a
	// session's in-flight op arriving AFTER a crash-restart must still
	// be recognized — the history travels through WAL replay and
	// snapshots like the values do.
	_, addr2, _ := startStoppable(t, cfg)
	c2 := dial(t, addr2)
	defer c2.Close()
	c2.SetSession(0xfeed)
	res, err = c2.AddOp(0, 1, lastSeq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want || !res.WasDuplicate {
		t.Fatalf("post-restart retry = %+v, want original Value %d as duplicate", res, want)
	}
	if v, err := c2.Get(0); err != nil || v != want {
		t.Fatalf("value after post-restart retry = %d, %v; want %d (no double apply)", v, err, want)
	}
}

func TestInMemoryDedupWithoutDataDir(t *testing.T) {
	// No -data-dir still deduplicates within the process lifetime: the
	// window lives in the shard state either way, which is what makes
	// the client's re-issue-under-an-op-ID discipline safe against any server.
	_, addr := startServer(t, server.Config{N: 4, K: 2, Shards: 1})
	c := dial(t, addr)
	defer c.Close()
	c.SetSession(0xabc)
	if res, err := c.AddOp(0, 4, 1); err != nil || res.Value != 4 || res.WasDuplicate {
		t.Fatalf("first AddOp = %+v, %v", res, err)
	}
	res, err := c.AddOp(0, 4, 1)
	if err != nil || res.Value != 4 || !res.WasDuplicate {
		t.Fatalf("retry = %+v, %v; want duplicate of 4", res, err)
	}
	if v, err := c.Get(0); err != nil || v != 4 {
		t.Fatalf("value = %d, %v; want 4", v, err)
	}
}

func TestSnapshotTriggerAndRecoveryFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		N: 4, K: 2, Shards: 1, DataDir: dir,
		Fsync: durable.SyncAlways, SnapshotEvery: 8,
	}
	_, addr, stop := startStoppable(t, cfg)
	c := dial(t, addr)
	for i := 0; i < 40; i++ {
		if _, err := c.Add(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshots run in the background off the applied-op counter; wait
	// for at least one to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot written after 40 applied ops with SnapshotEvery=8")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.Close()
	stop()

	srv2, addr2, _ := startStoppable(t, cfg)
	c2 := dial(t, addr2)
	defer c2.Close()
	if v, err := c2.Get(0); err != nil || v != 40 {
		t.Fatalf("recovered value = %d, %v; want 40", v, err)
	}
	if rec := srv2.Recovery(); rec.RecoveredOps != 40 {
		t.Fatalf("RecoveredOps = %d, want 40", rec.RecoveredOps)
	}
}

func TestRecoveredShardOutOfRangeRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{N: 4, K: 2, Shards: 4, DataDir: dir, Fsync: durable.SyncAlways}
	_, addr, stop := startStoppable(t, cfg)
	c := dial(t, addr)
	if _, err := c.Add(3, 1); err != nil {
		t.Fatal(err)
	}
	c.Close()
	stop()

	// Re-opening with fewer shards than the log describes must fail
	// loudly: silently dropping shard 3's history would un-acknowledge
	// durable writes.
	cfg.Shards = 2
	if _, err := server.New(cfg); err == nil {
		t.Fatal("shrinking Shards below recovered state was accepted")
	}
}
