package durable

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// countSegments returns how many live WAL segment files dir holds.
func countSegments(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	return len(segs)
}

func TestPinBlocksPruningAroundLSN(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l.Close()
	var s ShardState
	appendOps(t, l, &s, 0, 5, 1, 40)
	if countSegments(t, dir) < 3 {
		t.Fatalf("want >=3 segments before pruning, got %d", countSegments(t, dir))
	}

	// Pin early in the log: a full-cover snapshot must keep every
	// segment holding records above the pin.
	pin := l.Pin(5)
	peek := func() map[uint32]ShardState { return map[uint32]ShardState{0: s.Clone()} }
	if err := l.WriteSnapshot(peek); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	afterPinned := countSegments(t, dir)
	if afterPinned < 3 {
		t.Fatalf("pin at 5 did not hold segments: %d left", afterPinned)
	}
	if _, _, err := l.ReadRecords(5, 1); err != nil {
		t.Fatalf("pinned tail unreadable: %v", err)
	}

	// Moving the pin backward must be a no-op.
	l.UpdatePin(pin, 1)
	if err := l.WriteSnapshot(peek); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if got := countSegments(t, dir); got != afterPinned {
		t.Fatalf("backward pin update changed retention: %d -> %d", afterPinned, got)
	}

	// Advancing the pin releases the consumed prefix.
	l.UpdatePin(pin, l.End())
	if err := l.WriteSnapshot(peek); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	midCount := countSegments(t, dir)
	if midCount >= afterPinned {
		t.Fatalf("advanced pin released nothing: %d -> %d segments", afterPinned, midCount)
	}

	// Unpinning restores snapshot-only retention: everything covered
	// goes, leaving just the active segment.
	l.Unpin(pin)
	l.Unpin(pin) // double-release must be safe
	if err := l.WriteSnapshot(peek); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if got := countSegments(t, dir); got != 1 {
		t.Fatalf("want 1 segment after unpin+snapshot, got %d", got)
	}
	if _, _, err := l.ReadRecords(0, 1); !errors.Is(err, ErrPruned) {
		t.Fatalf("read of pruned prefix: err %v, want ErrPruned", err)
	}
}

func TestReadRecordsAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l.Close()
	var s ShardState
	appendOps(t, l, &s, 0, 9, 1, 25)

	// From the origin: every op record, in order, across rotations.
	// LSN 1 is the boot restart marker — skipped but counted into pos.
	recs, pos, err := l.ReadRecords(0, 1000)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(recs) != 25 || pos != l.End() {
		t.Fatalf("got %d records to pos %d, want 25 to %d", len(recs), pos, l.End())
	}
	for i, r := range recs {
		if r.Ver != uint64(i+1) || r.Val != int64(i+1) || r.Seq != uint64(i+1) {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
	}

	// Bounded read, then resume from the returned position: the two
	// halves splice into the same sequence.
	first, mid, err := l.ReadRecords(0, 10)
	if err != nil || len(first) != 10 {
		t.Fatalf("bounded read: %d records, err %v", len(first), err)
	}
	rest, end, err := l.ReadRecords(mid, 1000)
	if err != nil {
		t.Fatalf("resumed read: %v", err)
	}
	if end != l.End() || !reflect.DeepEqual(append(first, rest...), recs) {
		t.Fatalf("resume at %d did not splice: %d+%d records", mid, len(first), len(rest))
	}

	// Caught up: nothing to read, position unchanged.
	if recs, pos, err := l.ReadRecords(l.End(), 10); err != nil || len(recs) != 0 || pos != l.End() {
		t.Fatalf("read at end: %d records, pos %d, err %v", len(recs), pos, err)
	}
}

func TestWaitEndLongPoll(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	var s ShardState
	appendOps(t, l, &s, 0, 3, 1, 2)
	base := l.End()

	// Already satisfied: returns without waiting.
	if got := l.WaitEnd(base, 10*time.Second); got != base {
		t.Fatalf("satisfied wait returned %d, want %d", got, base)
	}
	// ... and arms no timer (a timer and its callback are allocations).
	if n := testing.AllocsPerRun(100, func() { l.WaitEnd(base, 10*time.Second) }); n != 0 {
		t.Fatalf("satisfied wait allocated %.0f times per call, want 0: it armed a timer", n)
	}

	// Timeout: no new appends, returns the unchanged end promptly.
	start := time.Now()
	if got := l.WaitEnd(base+1, 50*time.Millisecond); got != base {
		t.Fatalf("timed-out wait returned %d, want %d", got, base)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("timed-out wait blocked %v", time.Since(start))
	}

	// Woken by a concurrent append.
	done := make(chan uint64, 1)
	go func() { done <- l.WaitEnd(base+1, 10*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	appendOps(t, l, &s, 0, 3, 3, 1)
	select {
	case got := <-done:
		if got < base+1 {
			t.Fatalf("woken wait returned %d, want >= %d", got, base+1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitEnd did not wake on append")
	}
}

func TestEncodeStateRoundTrip(t *testing.T) {
	in := map[uint32]ShardState{
		0: withRoot(ShardState{Ver: 7, Dedup: dedupOf(map[uint64]DedupEntry{
			11: {Seq: 3, Val: 40, Ver: 6, Recent: []DedupOp{{Seq: 2, Val: 39, Ver: 5}}},
		})}, 42),
		3: withRoot(ShardState{Ver: 1}, -9),
	}
	out, err := DecodeState(EncodeState(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverged:\n in: %+v\nout: %+v", in, out)
	}
	if _, err := DecodeState([]byte("not a state image")); err == nil {
		t.Fatal("garbage decoded without error")
	}
}
