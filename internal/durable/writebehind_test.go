package durable

import (
	"os"
	"strings"
	"testing"
	"time"
)

// The write-behind contract: Append buffers, the first wait (or a
// commit, rotation, the interval tick, a snapshot, Close) writes the
// buffer in one write(2), and a record is readable once written.

// fileSize is path's size on disk.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// frameBytes is how many bytes of whole frames path holds: its size
// less the preallocated space after them.
func frameBytes(t *testing.T, path string) int64 {
	t.Helper()
	offs := frameOffsets(t, path)
	return offs[len(offs)-1]
}

// addFrame is the framed size of one appendAdds record.
var addFrame = int64(len(encodeOp(Record{Kind: OpRegAdd, Arg: 1, Val: 1, Ver: 1, OK: true})))

// TestCommitAppendDoesNoIO: appends leave the file alone under every
// policy; the wait puts all of them in it.
func TestCommitAppendDoesNoIO(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), Policy: policy, Interval: time.Hour}
			l, _ := mustOpen(t, opts)
			defer l.Close()
			seg := lastSegment(t, opts.Dir)
			before := frameBytes(t, seg)
			lsn := appendAdds(t, l, 0, 5)
			if got := frameBytes(t, seg); got != before {
				t.Fatalf("five appends grew the segment %d -> %d bytes before any wait", before, got)
			}
			if err := l.WaitDurable(lsn); err != nil {
				t.Fatal(err)
			}
			if got, want := frameBytes(t, seg), before+5*addFrame; got != want {
				t.Fatalf("segment is %d bytes after the wait, want %d", got, want)
			}
		})
	}
}

// TestCommitReadersSeeWrittenRecordsOnly: ReadRecords and WaitEnd see
// nothing of a buffered record, and all of it once a wait wrote it.
func TestCommitReadersSeeWrittenRecordsOnly(t *testing.T) {
	l, _ := mustOpen(t, Options{Dir: t.TempDir()})
	defer l.Close()
	from := l.End()
	lsn := appendAdds(t, l, 0, 3)
	if recs, pos, err := l.ReadRecords(from, 10); err != nil || len(recs) != 0 || pos != from {
		t.Fatalf("read of buffered records: %d records to LSN %d, err %v; want none", len(recs), pos, err)
	}
	if got := l.WaitEnd(lsn, 20*time.Millisecond); got != from {
		t.Fatalf("WaitEnd reports %d with LSNs %d..%d buffered, want %d", got, from+1, lsn, from)
	}
	woken := make(chan uint64, 1)
	go func() { woken <- l.WaitEnd(lsn, watchdog) }()
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-woken:
		if got != lsn {
			t.Fatalf("WaitEnd woke at %d, want %d", got, lsn)
		}
	case <-time.After(watchdog):
		t.Fatal("WaitEnd never woke after the wait wrote its records")
	}
	if recs, pos, err := l.ReadRecords(from, 10); err != nil || len(recs) != 3 || pos != lsn {
		t.Fatalf("read after the wait: %d records to LSN %d, err %v; want 3 to %d", len(recs), pos, err, lsn)
	}
}

// TestCommitSyncNeverWaitWrites: under SyncNever the wait writes and
// returns, with no fsync.
func TestCommitSyncNeverWaitWrites(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Policy: SyncNever}
	l, _ := mustOpen(t, opts)
	defer l.Close()
	seg := lastSegment(t, opts.Dir)
	before, syncs := frameBytes(t, seg), l.Syncs()
	lsn := appendAdds(t, l, 0, 2)
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if got, want := frameBytes(t, seg), before+2*addFrame; got != want || l.Syncs() != syncs {
		t.Fatalf("after the wait: %d bytes and %d fsyncs, want %d bytes and none", got, l.Syncs()-syncs, want)
	}
}

// TestCommitSnapshotCoverIsWritten: everything up to a snapshot's cover
// is in the file before the image is taken, so a copy of the directory
// made right after the snapshot recovers it all, with no wait ever run.
func TestCommitSnapshotCoverIsWritten(t *testing.T) {
	opts := Options{Dir: t.TempDir()}
	l, _ := mustOpen(t, opts)
	defer l.Close()
	var s ShardState
	for seq := uint64(1); seq <= 5; seq++ {
		out := StepOp(&s, 0, 7, seq, rootAdd(1))
		if _, err := l.Append(Record{Session: 7, Seq: seq, Kind: OpRegAdd, Arg: 1, Val: out.Val, Ver: out.Ver, OK: true}); err != nil {
			t.Fatal(err)
		}
	}
	seg := lastSegment(t, opts.Dir)
	frames := 0
	if err := l.WriteSnapshot(func() map[uint32]ShardState {
		frames = len(frameOffsets(t, seg)) - 1
		return map[uint32]ShardState{0: s}
	}); err != nil {
		t.Fatal(err)
	}
	if end := l.End(); uint64(frames) != end {
		t.Fatalf("%d frames in the file when the image was taken, cover is LSN %d", frames, end)
	}
	l2, rec := mustOpen(t, Options{Dir: copyDir(t, opts.Dir)})
	defer l2.Close()
	if got := rec.Shards[0]; got.Ver != 5 || rootVal(got) != 5 || rec.DroppedBytes != 0 {
		t.Fatalf("recovered %+v (dropped %d bytes), want version 5", got, rec.DroppedBytes)
	}
}

// TestCommitRotationAndCloseWrite: a rotation writes (and syncs) what
// the full segment buffered before it seals it, and Close writes what
// the active one buffered — under SyncNever too.
func TestCommitRotationAndCloseWrite(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			// Room for the restart marker and three adds: the fourth rotates.
			opts := Options{Dir: t.TempDir(), Policy: policy, SegmentBytes: int64(len(encodeRestart())) + 3*addFrame}
			l, _ := mustOpen(t, opts)
			sealed := lastSegment(t, opts.Dir)
			appendAdds(t, l, 0, 6)
			if got, want := frameBytes(t, sealed), opts.SegmentBytes; got != want {
				t.Fatalf("sealed segment holds %d bytes, want its %d: rotation did not write the buffer", got, want)
			}
			if active := lastSegment(t, opts.Dir); active == sealed || frameBytes(t, active) != 0 {
				t.Fatalf("active segment %s: want a new, still empty file", active)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l, rec := mustOpen(t, opts)
			defer l.Close()
			if got := rec.Shards[0]; got.Ver != 6 || rec.DroppedBytes != 0 {
				t.Fatalf("recovered version %d (dropped %d bytes) after Close, want 6", got.Ver, rec.DroppedBytes)
			}
		})
	}
}

// TestCommitWriteFailurePoisons: a failed write poisons the log for
// every buffered LSN — and for every other, as a failed fsync does — and
// a snapshot will not cover the stranded records.
func TestCommitWriteFailurePoisons(t *testing.T) {
	l, _ := mustOpen(t, Options{Dir: t.TempDir()})
	defer l.Close()
	first := appendAdds(t, l, 0, 1)
	if err := l.WaitDurable(first); err != nil {
		t.Fatal(err)
	}
	// A read-only handle on the active segment: its next write fails.
	l.mu.Lock()
	rw := l.f
	ro, err := os.Open(rw.Name())
	if err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.f = ro
	l.mu.Unlock()
	defer rw.Close()

	a := appendAdds(t, l, 1, 1)
	b := appendAdds(t, l, 2, 1)
	for _, lsn := range []uint64{b, a, first} {
		if err := l.WaitDurable(lsn); err == nil || !strings.Contains(err.Error(), "poisoned") {
			t.Fatalf("WaitDurable(%d) after a failed write: %v, want the poison", lsn, err)
		}
	}
	if _, err := l.Append(Record{Kind: OpRegAdd, Arg: 1, Val: 4, Ver: 4, OK: true}); err == nil {
		t.Fatal("append after a failed write succeeded")
	}
	if err := l.WriteSnapshot(func() map[uint32]ShardState { return nil }); err == nil {
		t.Fatal("a snapshot covered records whose write failed")
	}
}

// TestCommitCopyBeforeWaitRecoversPrefix: a directory copied after an
// Append but before any wait holds only whole frames — the waited
// prefix — and recovers to exactly it.
func TestCommitCopyBeforeWaitRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	var s ShardState
	appendOps(t, l, &s, 0, 7, 1, 3)
	for seq := uint64(4); seq <= 5; seq++ {
		out := StepOp(&s, 0, 7, seq, rootAdd(1))
		if _, err := l.Append(Record{Session: 7, Seq: seq, Kind: OpRegAdd, Arg: 1, Val: out.Val, Ver: out.Ver, OK: true}); err != nil {
			t.Fatal(err)
		}
	}
	l2, rec := mustOpen(t, Options{Dir: copyDir(t, dir)})
	defer l2.Close()
	if got := rec.Shards[0]; got.Ver != 3 || rootVal(got) != 3 || rec.DroppedBytes != 0 {
		t.Fatalf("copy recovered version %d, value %d, dropping %d bytes; want the waited prefix 3, 3 and no torn frame",
			got.Ver, rootVal(got), rec.DroppedBytes)
	}
}
