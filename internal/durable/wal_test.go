package durable

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// appendOps pushes n sequential adds for one shard through both the
// state machine and the log, exactly as the server does: Step first,
// then Append the outcome.
func appendOps(t *testing.T, l *Log, s *ShardState, shard uint32, sess uint64, startSeq uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		out := StepOp(s, 0, sess, startSeq+uint64(i), rootAdd(1))
		if !out.Applied {
			t.Fatalf("op %d did not apply: %+v", i, out)
		}
		lsn, err := l.Append(Record{
			Session: sess, Seq: startSeq + uint64(i), Shard: shard,
			Kind: OpRegAdd, Arg: 1, Val: out.Val, Ver: out.Ver, OK: true,
		})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatalf("wait durable %d: %v", i, err)
		}
	}
}

func mustOpen(t *testing.T, opts Options) (*Log, Recovery) {
	t.Helper()
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("open %s: %v", opts.Dir, err)
	}
	return l, rec
}

func TestFreshDirAndRestartCounting(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, Options{Dir: dir})
	if rec.RestartCount != 0 || rec.RecoveredOps != 0 || len(rec.Shards) != 0 || rec.DroppedBytes != 0 {
		t.Fatalf("fresh recovery: %+v", rec)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for boot := 1; boot <= 3; boot++ {
		l, rec = mustOpen(t, Options{Dir: dir})
		if rec.RestartCount != uint64(boot) {
			t.Fatalf("boot %d: restart count %d", boot, rec.RestartCount)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	var s0, s1 ShardState
	appendOps(t, l, &s0, 0, 11, 1, 10)
	appendOps(t, l, &s1, 1, 12, 1, 7)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l, rec := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	if got := rec.Shards[0]; rootVal(got) != 10 || got.Ver != 10 {
		t.Fatalf("shard 0: %+v", got)
	}
	if got := rec.Shards[1]; rootVal(got) != 7 || got.Ver != 7 {
		t.Fatalf("shard 1: %+v", got)
	}
	if rec.RecoveredOps != 17 {
		t.Fatalf("recovered ops: %d", rec.RecoveredOps)
	}
	// Dedup entries survive: a post-restart retry of the last op must
	// be recognized.
	s := rec.Shards[0]
	out := StepOp(&s, 0, 11, 10, rootAdd(1))
	if !out.Duplicate || out.Val != 10 {
		t.Fatalf("post-restart retry not deduplicated: %+v", out)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	var s ShardState
	appendOps(t, l, &s, 0, 5, 1, 40)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >=3 segments, got %d", len(segs))
	}
	l, rec := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l.Close()
	if got := rec.Shards[0]; rootVal(got) != 40 || got.Ver != 40 {
		t.Fatalf("recovery across segments: %+v", got)
	}
}

// lastSegment returns the path of the newest WAL segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	last := segs[0]
	for _, sg := range segs[1:] {
		if sg > last {
			last = sg
		}
	}
	return last
}

func TestTornTailFixtures(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(t *testing.T, path string)
	}{
		{"truncated header", func(t *testing.T, path string) {
			// A real frame's first 6 header bytes: zeros alone would be
			// preallocated space, not a torn frame.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			frame := encodeOp(Record{Kind: OpRegAdd, Arg: 1, Val: 7, Ver: 7, OK: true})
			if _, err := f.Write(frame[:6]); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated body", func(t *testing.T, path string) {
			// Chop the last record mid-body.
			st, _ := os.Stat(path)
			if err := os.Truncate(path, st.Size()-5); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt crc", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xff // flip a byte in the last record's body
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"trailing garbage", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, Options{Dir: dir})
			var s ShardState
			appendOps(t, l, &s, 0, 9, 1, 6)
			if err := l.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			tc.mangle(t, lastSegment(t, dir))

			// The torn record is the 6th op (or pure garbage): the five
			// (or six) records before it must survive, the tail must be
			// dropped, and the log must be appendable again.
			l, rec := mustOpen(t, Options{Dir: dir})
			if rec.DroppedBytes == 0 {
				t.Fatalf("recovery reported no dropped bytes")
			}
			got := rec.Shards[0]
			if rootVal(got) != 5 && rootVal(got) != 6 {
				t.Fatalf("recovered value %d, want 5 (torn last op) or 6 (garbage after valid log)", rootVal(got))
			}
			s = rec.Shards[0]
			appendOps(t, l, &s, 0, 9, uint64(got.Ver)+1, 2)
			if err := l.Close(); err != nil {
				t.Fatalf("close after truncation: %v", err)
			}

			// A second recovery sees a clean log: the tail was truncated
			// on disk, not just skipped.
			l, rec = mustOpen(t, Options{Dir: dir})
			defer l.Close()
			if rec.DroppedBytes != 0 {
				t.Fatalf("second recovery still dropping bytes: %d", rec.DroppedBytes)
			}
			if rootVal(rec.Shards[0]) != rootVal(got)+2 {
				t.Fatalf("after re-append: val %d, want %d", rootVal(rec.Shards[0]), rootVal(got)+2)
			}
		})
	}
}

func TestCorruptionInEarlierSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	var s ShardState
	appendOps(t, l, &s, 0, 9, 1, 40)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("need >=2 segments, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir, SegmentBytes: 256}); err == nil {
		t.Fatalf("open accepted corruption in a non-final segment")
	}
}

func TestSnapshotPruneAndRecover(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	var s ShardState
	appendOps(t, l, &s, 0, 9, 1, 30)
	if err := l.WriteSnapshot(func() map[uint32]ShardState {
		return map[uint32]ShardState{0: s.Clone()}
	}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("prune left %d segments, want only the active one", len(segs))
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("want exactly 1 snapshot, got %d", len(snaps))
	}
	// Ops after the snapshot replay on top of it.
	appendOps(t, l, &s, 0, 9, 31, 5)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l, rec := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	if got := rec.Shards[0]; rootVal(got) != 35 || got.Ver != 35 {
		t.Fatalf("snapshot+tail recovery: %+v", got)
	}
	if rec.RecoveredOps != 35 {
		t.Fatalf("recovered ops: %d", rec.RecoveredOps)
	}
	if rec.RestartCount != 1 {
		t.Fatalf("restart count through snapshot: %d", rec.RestartCount)
	}

	// A second snapshot replaces the first and survives another cycle,
	// proving restart tallies ride in snapshots (their markers' WAL
	// records are pruned away).
	s = rec.Shards[0]
	appendOps(t, l, &s, 0, 9, 36, 3)
	if err := l.WriteSnapshot(func() map[uint32]ShardState {
		return map[uint32]ShardState{0: s.Clone()}
	}); err != nil {
		t.Fatalf("snapshot 2: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l, rec = mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l.Close()
	if got := rec.Shards[0]; rootVal(got) != 38 || rec.RestartCount != 2 {
		t.Fatalf("after second snapshot cycle: shard %+v, restarts %d", got, rec.RestartCount)
	}
}

func TestUnreadableNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	var s ShardState
	appendOps(t, l, &s, 0, 9, 1, 10)
	if err := l.WriteSnapshot(func() map[uint32]ShardState {
		return map[uint32]ShardState{0: s.Clone()}
	}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	appendOps(t, l, &s, 0, 9, 11, 4)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// A disk-corrupted newer snapshot must be skipped in favor of the
	// valid older one; a stale .tmp from a torn snapshot write is
	// ignored outright.
	if err := os.WriteFile(filepath.Join(dir, "snap-9999999999999999.snap"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000099.snap.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	if got := rec.Shards[0]; rootVal(got) != 14 || got.Ver != 14 {
		t.Fatalf("fallback recovery: %+v", got)
	}
}

func TestOnlySnapshotUnreadableIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	var s ShardState
	appendOps(t, l, &s, 0, 9, 1, 5)
	if err := l.WriteSnapshot(func() map[uint32]ShardState {
		return map[uint32]ShardState{0: s.Clone()}
	}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps))
	}
	if err := os.WriteFile(snaps[0], []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The snapshot's segments were pruned: serving the remaining tail
	// as if it were the whole history would silently lose data, so
	// recovery must refuse.
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatalf("open served partial state from an unreadable snapshot")
	}
}

// syncGate stands in for the disk. Every fsync the log issues announces
// itself on entered and then parks until the test sends its verdict on
// release (nil lets the real fsync run); open retires the gate, so
// whatever is parked or comes later syncs straight through. The gate
// also holds the engine to its own claim: one fsync in flight at most.
type syncGate struct {
	entered chan struct{}
	release chan error
	opened  chan struct{}
	once    sync.Once
}

func gateSyncs(t *testing.T, l *Log) *syncGate {
	g := &syncGate{entered: make(chan struct{}), release: make(chan error), opened: make(chan struct{})}
	var inFlight atomic.Int32
	l.sync = func(f *os.File) error {
		if n := inFlight.Add(1); n != 1 {
			t.Errorf("%d fsyncs in flight at once", n)
		}
		defer inFlight.Add(-1)
		select {
		case g.entered <- struct{}{}:
		case <-g.opened:
			return f.Sync()
		}
		select {
		case err := <-g.release:
			if err != nil {
				return err
			}
		case <-g.opened:
		}
		return f.Sync()
	}
	return g
}

func (g *syncGate) open() { g.once.Do(func() { close(g.opened) }) }

// watchdog turns a hang into a failure; no test waits it out.
const watchdog = 10 * time.Second

// started waits for the next fsync to begin and leaves it parked. A
// value on early is a WaitDurable that returned before the fsync that
// had to cover it even started.
func (g *syncGate) started(t *testing.T, early <-chan error) {
	t.Helper()
	select {
	case <-g.entered:
	case err := <-early:
		t.Fatalf("a wait returned (err %v) ahead of the fsync that had to cover it", err)
	case <-time.After(watchdog):
		t.Fatal("no fsync started: the wait is parked on something other than the disk")
	}
}

// appendAdds appends n root adds continuing shard 0's history after
// version ver and returns the last one's LSN. Nothing is waited for.
func appendAdds(t *testing.T, l *Log, ver uint64, n int) uint64 {
	t.Helper()
	var lsn uint64
	for i := 0; i < n; i++ {
		ver++
		var err error
		if lsn, err = l.Append(Record{Kind: OpRegAdd, Arg: 1, Val: int64(ver), Ver: ver, OK: true}); err != nil {
			t.Fatalf("append of version %d: %v", ver, err)
		}
	}
	return lsn
}

// waitAsync runs WaitDurable(lsn) on a goroutine of its own.
func waitAsync(l *Log, lsn uint64) <-chan error {
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(lsn) }()
	return done
}

// await receives one verdict, failing the test instead of hanging.
func await(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(watchdog):
		t.Fatalf("%s never returned", what)
		return nil
	}
}

// stillWaiting fails if done already holds a verdict. What it guards
// cannot have happened yet, so it never fails by timing.
func stillWaiting(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (err %v) while the fsync it depends on was parked", what, err)
	default:
	}
}

// TestCommitEngine pins the group-commit engine with the disk held by
// hand, under both policies that wait: (a) appends and log reads go
// through while an fsync is in flight, (b) a waiter whose record was
// appended after the leader captured its target is not released by that
// fsync, (c) any number of waiters parked behind one fsync cost exactly
// one more. SyncInterval runs with an hour's interval: no ack waits for
// a tick.
func TestCommitEngine(t *testing.T) {
	for _, opts := range []Options{{Policy: SyncAlways}, {Policy: SyncInterval, Interval: time.Hour}} {
		t.Run(opts.Policy.String(), func(t *testing.T) {
			opts.Dir = t.TempDir()
			l, _ := mustOpen(t, opts)
			defer l.Close()
			g := gateSyncs(t, l)
			defer g.open()
			syncs0 := l.Syncs()

			// Sync 1: the first waiter leads; its target is `first`.
			first := appendAdds(t, l, 0, 1)
			lead := waitAsync(l, first)
			g.started(t, lead)

			// (a) The disk is busy, the log is not: appends go through, and
			// a waiter writes the burst before it parks, so it is readable
			// while the fsync is still in flight.
			const parked = 4
			var lsns [parked]uint64
			for i := range lsns {
				lsns[i] = appendAdds(t, l, uint64(1+i), 1)
			}
			released := make(chan error, parked)
			for _, lsn := range lsns {
				go func() { released <- l.WaitDurable(lsn) }()
			}
			if got := l.WaitEnd(lsns[parked-1], watchdog); got != lsns[parked-1] {
				t.Fatalf("written end %d during an fsync, want %d: the parked waiters did not write", got, lsns[parked-1])
			}
			recs, pos, err := l.ReadRecords(first, parked+1)
			if err != nil || len(recs) != parked || pos != lsns[parked-1] {
				t.Fatalf("read during an fsync: %d records to LSN %d, err %v; want %d to %d", len(recs), pos, err, parked, lsns[parked-1])
			}
			stillWaiting(t, lead, "the leader")
			g.release <- nil
			if err := await(t, lead, "the leader"); err != nil {
				t.Fatalf("leader: %v", err)
			}

			// (b) Sync 1 landed and covers `first` alone: the next thing
			// to happen is a second fsync, not an ack.
			g.started(t, released)
			l.mu.Lock()
			durable := l.durable
			l.mu.Unlock()
			if durable != first {
				t.Fatalf("durable = %d after an fsync that captured %d (end is %d)", durable, first, l.End())
			}
			stillWaiting(t, released, "a waiter past the first fsync's target")

			// (c) One more fsync releases all of them.
			g.release <- nil
			for i := 0; i < parked; i++ {
				if err := await(t, released, "a parked waiter"); err != nil {
					t.Fatalf("parked waiter: %v", err)
				}
			}
			if got := l.Syncs() - syncs0; got != 2 {
				t.Fatalf("%d fsyncs for a leader and %d waiters parked behind it, want 2", got, parked)
			}
			if l.SyncNanos() == 0 {
				t.Fatal("SyncNanos is 0 after parked fsyncs")
			}
		})
	}
}

// TestCommitFailureInFlight: an fsync that fails while the mutex is
// released acks nothing. The leader, a waiter parked on the same LSN, a
// waiter for a record appended during the fsync, every later Append and
// every later wait — fail-first, LSN 1 included — get the poison.
func TestCommitFailureInFlight(t *testing.T) {
	l, _ := mustOpen(t, Options{Dir: t.TempDir()})
	defer l.Close()
	g := gateSyncs(t, l)
	defer g.open()
	syncs0 := l.Syncs()

	first := appendAdds(t, l, 0, 1)
	lead := waitAsync(l, first)
	g.started(t, lead)
	during := appendAdds(t, l, 1, 1)
	waits := map[string]<-chan error{
		"the leader":                          lead,
		"a waiter parked on the leader's LSN": waitAsync(l, first),
		"a waiter for a mid-sync append":      waitAsync(l, during),
	}
	boom := errors.New("injected fsync failure")
	g.release <- boom
	for who, done := range waits {
		if err := await(t, done, who); !errors.Is(err, boom) || !strings.Contains(err.Error(), "poisoned") {
			t.Fatalf("%s got %v, want the poison wrapping the fsync failure", who, err)
		}
	}
	if got := l.Syncs(); got != syncs0 {
		t.Fatalf("%d fsyncs counted as landed after a failed one", got-syncs0)
	}
	if _, err := l.Append(Record{Kind: OpRegAdd, Arg: 1, Val: 3, Ver: 3, OK: true}); !errors.Is(err, boom) {
		t.Fatalf("append after a failed fsync: %v", err)
	}
	if err := l.WaitDurable(1); !errors.Is(err, boom) {
		t.Fatalf("WaitDurable(1) on a poisoned log: %v", err)
	}
}

// TestCommitRotationWaitsForSync: rotation fsyncs and closes the active
// file under the mutex, and an in-flight commit holds that file with the
// mutex released. The append that must rotate waits the commit out; no
// record is lost on either side of the rotation.
func TestCommitRotationWaitsForSync(t *testing.T) {
	// Room for the restart marker and one byte: the first record fills
	// the segment, the second has to rotate.
	opts := Options{Dir: t.TempDir(), SegmentBytes: int64(len(encodeRestart())) + 1}
	l, _ := mustOpen(t, opts)
	defer l.Close()
	g := gateSyncs(t, l)
	defer g.open()

	first := appendAdds(t, l, 0, 1)
	lead := waitAsync(l, first)
	g.started(t, lead)

	appended := make(chan error, 1)
	var second uint64
	go func() {
		var err error
		second, err = l.Append(Record{Kind: OpRegAdd, Arg: 1, Val: 2, Ver: 2, OK: true})
		appended <- err
	}()
	for i := 0; i < 100; i++ {
		runtime.Gosched() // let the append reach its wait; the gate counts overlapping fsyncs
	}
	stillWaiting(t, appended, "the rotating append")
	g.release <- nil
	if err := await(t, lead, "the leader"); err != nil {
		t.Fatalf("leader: %v", err)
	}
	// Rotation's own fsync, under the mutex now that nothing is in flight.
	g.started(t, appended)
	g.open()
	if err := await(t, appended, "the rotating append"); err != nil {
		t.Fatalf("rotating append: %v", err)
	}
	if err := l.WaitDurable(second); err != nil {
		t.Fatalf("wait after rotation: %v", err)
	}
	if n := countSegments(t, opts.Dir); n != 2 {
		t.Fatalf("%d segments, want 2", n)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l, rec := mustOpen(t, opts)
	defer l.Close()
	if got := rec.Shards[0]; got.Ver != 2 || rootVal(got) != 2 {
		t.Fatalf("recovered %+v, want both acked adds", got)
	}
}

// TestCommitCloseDuringSync: Close waits for the fsync in flight — its
// file is not closed under it — then flushes. The leader is covered; a
// waiter parked behind it gets coverage or the closed error, never a
// hang; a clean Close loses nothing.
func TestCommitCloseDuringSync(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	g := gateSyncs(t, l)
	defer g.open()

	first := appendAdds(t, l, 0, 1)
	lead := waitAsync(l, first)
	g.started(t, lead)
	parked := waitAsync(l, appendAdds(t, l, 1, 1))
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	stillWaiting(t, closed, "Close")

	g.open() // the disk comes back: everything parked or still to come syncs through
	if err := await(t, lead, "the leader"); err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := await(t, parked, "the parked waiter"); err != nil && !strings.Contains(err.Error(), "closed") {
		t.Fatalf("parked waiter: %v, want coverage or the closed error", err)
	}
	if err := await(t, closed, "Close"); err != nil {
		t.Fatalf("close: %v", err)
	}
	l, rec := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	if got := rec.Shards[0]; got.Ver != 2 || rootVal(got) != 2 {
		t.Fatalf("recovered %+v after a clean close, want both adds", got)
	}
}

func TestSyncNeverDoesNotWait(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	lsn, err := l.Append(Record{Shard: 0, Kind: OpRegSet, Arg: 3, Val: 3, Ver: 1, OK: true})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(lsn) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("WaitDurable blocked under SyncNever")
	}
	// Open's restart marker is force-synced even here; appends add none.
	if s := l.Syncs(); s != 1 {
		t.Fatalf("fsyncs under SyncNever: %d, want 1 (open marker)", s)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The data still recovers when the process exited cleanly.
	l, rec := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	defer l.Close()
	if rootVal(rec.Shards[0]) != 3 {
		t.Fatalf("recovery after SyncNever close: %+v", rec.Shards[0])
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := l.Append(Record{Shard: 0, Kind: OpRegAdd, Arg: 1, Val: 1, Ver: 1, OK: true}); err == nil {
		t.Fatalf("append accepted after close")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestAppendFailurePoisonsLog guards the no-holes invariant: a failed
// append consumes a version number in the caller's sequencer without a
// record to back it, so if later appends were admitted the WAL would
// carry acknowledged-as-durable records past a gap — poison for the
// next recovery. The log must instead go fatal: every later Append and
// every WaitDurable (even for an LSN that made it to disk earlier)
// returns the failure, so nothing is acked as durable after the hole.
func TestAppendFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes 1 forces a rotation before every op append, giving
	// the test a deterministic failure point: segment creation in a
	// directory that no longer exists.
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 1})
	var s ShardState
	appendOps(t, l, &s, 0, 11, 1, 1) // one durable record, LSN <= 2
	defer l.Close()

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	out := StepOp(&s, 0, 11, 2, rootAdd(1))
	if _, err := l.Append(Record{Session: 11, Seq: 2, Shard: 0, Kind: OpRegAdd, Arg: 1, Val: out.Val, Ver: out.Ver, OK: true}); err == nil {
		t.Fatal("append into a deleted data directory succeeded")
	}

	// The version for seq 2 is now a hole. A later append must be
	// refused outright, not written past the gap.
	out = StepOp(&s, 0, 11, 3, rootAdd(1))
	_, err := l.Append(Record{Session: 11, Seq: 3, Shard: 0, Kind: OpRegAdd, Arg: 1, Val: out.Val, Ver: out.Ver, OK: true})
	if err == nil {
		t.Fatal("append after a failed append succeeded: the WAL now has a hole")
	}
	if !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("post-failure append error does not surface the poison: %v", err)
	}

	// Fail-first: even LSN 1 — durable before the failure — must not be
	// vouched for, or the server's duplicate path would re-ack an op
	// whose own record never landed (End() points before the hole).
	if err := l.WaitDurable(1); err == nil {
		t.Fatal("WaitDurable on a poisoned log succeeded")
	}
}

// TestDecodeSnapshotHugeShardCountRejected: a CRC-valid frame whose
// declared shard count the body cannot possibly hold must be rejected
// before the count is used as an allocation hint (a crafted count of
// 2^32-1 would otherwise demand a multi-GiB map at recovery time).
func TestDecodeSnapshotHugeShardCountRejected(t *testing.T) {
	body := []byte{recTypeSnapshot}
	body = binary.BigEndian.AppendUint64(body, 0) // cover
	body = binary.BigEndian.AppendUint64(body, 0) // markers
	body = binary.BigEndian.AppendUint32(body, ^uint32(0))
	if _, _, _, err := decodeSnapshot(body); !errors.Is(err, errCorrupt) {
		t.Fatalf("snapshot declaring 2^32-1 shards over an empty body: got %v, want errCorrupt", err)
	}
}

// TestSyncAlwaysGroupCommits: under SyncAlways the fsync lives at the
// durability wait, so a pipeline of appends followed by one wait costs
// one disk write, not one per record — and the wait still implies every
// appended record is on disk.
func TestSyncAlwaysGroupCommits(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Policy: SyncAlways})
	defer l.Close()
	var last uint64
	for i := 0; i < 16; i++ {
		lsn, err := l.Append(Record{Shard: 0, Kind: OpRegAdd, Arg: 1, Val: int64(i + 1), Ver: uint64(i + 1), OK: true})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		last = lsn
	}
	if err := l.WaitDurable(last); err != nil {
		t.Fatalf("wait: %v", err)
	}
	// One sync for Open's restart marker, one group commit for the
	// whole 16-record pipeline.
	if s := l.Syncs(); s != 2 {
		t.Fatalf("fsyncs: %d, want 2 (open marker + one group commit for 16 appends)", s)
	}
	// A second wait for an already-covered LSN adds nothing.
	if err := l.WaitDurable(last); err != nil {
		t.Fatalf("re-wait: %v", err)
	}
	if s := l.Syncs(); s != 2 {
		t.Fatalf("fsyncs after covered re-wait: %d, want 2", s)
	}
	// A fresh append re-arms the wait: one more sync, exactly.
	lsn, err := l.Append(Record{Shard: 0, Kind: OpRegAdd, Arg: 1, Val: 17, Ver: 17, OK: true})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if s := l.Syncs(); s != 3 {
		t.Fatalf("fsyncs after depth-1 op: %d, want 3", s)
	}
}
