package durable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// referenceReadRecords is the reader ReadRecords replaced, kept as the
// specification the indexed reader is tested against: it reads every
// live segment whole, CRC-checks it from its first frame and walks to
// the records wanted.
func referenceReadRecords(l *Log, from uint64, maxRecords int) ([]Record, uint64, error) {
	l.mu.Lock()
	end := l.end
	segs := make([]segment, len(l.segs))
	copy(segs, l.segs)
	l.mu.Unlock()

	if from >= end {
		return nil, from, nil
	}
	if len(segs) == 0 || segs[0].start > from+1 {
		return nil, from, ErrPruned
	}
	var out []Record
	pos := from
	for i, sg := range segs {
		if i+1 < len(segs) && segs[i+1].start <= from+1 {
			continue // segment entirely at or below from
		}
		data, err := os.ReadFile(sg.path)
		if err != nil {
			return nil, from, err
		}
		last := sg.start - 1
		off := 0
		for off < len(data) && last < end {
			body, sz, err := decodeFrame(data[off:], maxBody)
			if err != nil {
				return nil, from, err
			}
			last++
			off += sz
			if last <= from {
				continue
			}
			rec, isRestart, err := parseBody(body)
			if err != nil {
				return nil, from, err
			}
			pos = last
			if !isRestart {
				out = append(out, rec)
				if len(out) >= maxRecords {
					return out, pos, nil
				}
			}
		}
	}
	return out, pos, nil
}

// checkAgainstReference compares ReadRecords with the reference reader
// for every from in [0, End()] and batch sizes on both sides of the
// index stride.
func checkAgainstReference(t *testing.T, l *Log) {
	t.Helper()
	checkFromAgainstReference(t, l, 0)
}

// checkFromAgainstReference is checkAgainstReference for every from in
// [first, End()].
func checkFromAgainstReference(t *testing.T, l *Log, first uint64) {
	t.Helper()
	for from := first; from <= l.End(); from++ {
		for _, max := range []int{1, 7, indexStride - 1, indexStride, indexStride + 1, 10_000} {
			want, wantPos, wantErr := referenceReadRecords(l, from, max)
			got, gotPos, gotErr := l.ReadRecords(from, max)
			if (wantErr == nil) != (gotErr == nil) || errors.Is(wantErr, ErrPruned) != errors.Is(gotErr, ErrPruned) {
				t.Fatalf("from %d max %d: err %v, reference err %v", from, max, gotErr, wantErr)
			}
			if gotPos != wantPos || !reflect.DeepEqual(got, want) {
				t.Fatalf("from %d max %d: %d records to pos %d, reference %d records to pos %d",
					from, max, len(got), gotPos, len(want), wantPos)
			}
		}
	}
}

// frameOffsets returns the byte offset of every frame in a segment
// file, followed by the end of its whole frames. Only zeros may follow
// the last frame: the segment's preallocated space.
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int64{0}
	for off := 0; off < len(data); {
		_, sz, err := decodeFrame(data[off:], maxBody)
		if err != nil && len(bytes.TrimRight(data[off:], "\x00")) == 0 {
			break
		}
		if err != nil {
			t.Fatalf("%s at offset %d: %v", filepath.Base(path), off, err)
		}
		off += sz
		offs = append(offs, int64(off))
	}
	return offs
}

// checkIndex verifies every live segment's size and index against a
// scan of its file: one entry per indexStride records, each the offset
// of its record, none at or past the end of the file.
func checkIndex(t *testing.T, l *Log) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, sg := range l.segs {
		offs := frameOffsets(t, sg.path)
		records := len(offs) - 1
		if sg.size != offs[records] {
			t.Fatalf("%s: size %d, file holds %d bytes of frames", filepath.Base(sg.path), sg.size, offs[records])
		}
		if want := (records + indexStride - 1) / indexStride; len(sg.index) != want {
			t.Fatalf("%s: %d index entries for %d records, want %d", filepath.Base(sg.path), len(sg.index), records, want)
		}
		for i, off := range sg.index {
			if off != offs[i*indexStride] || off >= sg.size {
				t.Fatalf("%s: index[%d] = %d, record %d sits at %d (size %d)",
					filepath.Base(sg.path), i, off, i*indexStride, offs[i*indexStride], sg.size)
			}
		}
	}
}

// appendMixed appends n log records through session sess, every fifth
// one a type-9 atomic container of two adds, waits for the last one (a
// record is readable only once a wait wrote it), and returns the next
// unused sequence number.
func appendMixed(t *testing.T, l *Log, s *ShardState, sess, seq uint64, n int) uint64 {
	t.Helper()
	add := func() Record {
		out := StepOp(s, 0, sess, seq, rootAdd(1))
		if !out.Applied {
			t.Fatalf("seq %d did not apply: %+v", seq, out)
		}
		seq++
		return Record{Session: sess, Seq: seq - 1, Kind: OpRegAdd, Arg: 1, Val: out.Val, Ver: out.Ver, OK: true}
	}
	var lsn uint64
	for i := 0; i < n; i++ {
		r := add()
		if i%5 == 4 {
			r = Record{Atomic: []Record{r, add()}}
		}
		var err error
		if lsn, err = l.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatalf("wait: %v", err)
	}
	return seq
}

func TestReadRecordsMatchesReference(t *testing.T) {
	opts := Options{Dir: t.TempDir(), SegmentBytes: 6 << 10, Policy: SyncNever}
	l, _ := mustOpen(t, opts)
	var s ShardState
	seq := appendMixed(t, l, &s, 3, 1, 300)
	if n := countSegments(t, opts.Dir); n < 4 {
		t.Fatalf("want >=4 segments, got %d", n)
	}
	checkIndex(t, l) // filled by appendLocked
	checkAgainstReference(t, l)

	// Reopen: recovery rebuilds the index, the boot marker and further
	// appends extend it.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, rec := mustOpen(t, opts)
	if rec.Shards[0].Ver != s.Ver {
		t.Fatalf("recovered version %d, want %d", rec.Shards[0].Ver, s.Ver)
	}
	checkIndex(t, l)
	seq = appendMixed(t, l, &s, 3, seq, 100)
	checkIndex(t, l)
	checkAgainstReference(t, l)

	// Back-to-back restart markers, then more records.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _ = mustOpen(t, opts)
	l.Close()
	l, _ = mustOpen(t, opts)
	defer l.Close()
	appendMixed(t, l, &s, 3, seq, 60)
	checkIndex(t, l)
	checkAgainstReference(t, l)

	// A pinned prune drops a prefix: both readers must agree on where
	// ErrPruned ends and on everything after it.
	l.Pin(l.End() / 2)
	if err := l.WriteSnapshot(func() map[uint32]ShardState { return map[uint32]ShardState{0: s.Clone()} }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ReadRecords(0, 1); !errors.Is(err, ErrPruned) {
		t.Fatalf("read of pruned prefix: err %v, want ErrPruned", err)
	}
	checkIndex(t, l)
	checkAgainstReference(t, l)
}

// TestReadRecordsAfterTornTail: a torn tail cut at Open must leave no
// index entry pointing at or past the cut, and records appended past
// the cut must index and read like any others. The torn record is
// number indexStride of its segment — the one the crashed incarnation
// had just indexed.
func TestReadRecordsAfterTornTail(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Policy: SyncNever}
	l, _ := mustOpen(t, opts)
	var s ShardState
	appendOps(t, l, &s, 0, 3, 1, indexStride) // LSN 1 is the boot marker
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, opts.Dir)
	offs := frameOffsets(t, seg)
	if len(offs)-1 != indexStride+1 {
		t.Fatalf("segment holds %d records, want %d", len(offs)-1, indexStride+1)
	}
	if err := os.Truncate(seg, offs[len(offs)-1]-5); err != nil {
		t.Fatal(err)
	}

	l, rec := mustOpen(t, opts)
	defer l.Close()
	if rec.DroppedBytes == 0 || rec.Shards[0].Ver != uint64(indexStride-1) {
		t.Fatalf("recovery dropped %d bytes at version %d, want a torn tail at version %d",
			rec.DroppedBytes, rec.Shards[0].Ver, indexStride-1)
	}
	checkIndex(t, l)
	s = rec.Shards[0]
	appendMixed(t, l, &s, 3, indexStride, 3*indexStride)
	checkIndex(t, l)
	checkAgainstReference(t, l)
}

// TestReadRecordsCorruptFrameFailsClosed: one flipped byte in a frame
// the read touches — returned or merely stepped over on the way from
// the index entry — is an error, never a short or shifted batch. The
// damage is on disk, so it sits in a sealed segment: the reopened log
// starts full and its boot marker rotates it (the active segment is
// decoded from memory, see TestReadRecordsActiveFromMemory).
func TestReadRecordsCorruptFrameFailsClosed(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Policy: SyncNever}
	l, _ := mustOpen(t, opts)
	var s ShardState
	appendOps(t, l, &s, 0, 3, 1, 3*indexStride)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, opts.Dir)
	offs := frameOffsets(t, seg)
	opts.SegmentBytes = offs[len(offs)-1]
	l, _ = mustOpen(t, opts)
	defer l.Close()
	if n := countSegments(t, opts.Dir); n != 2 {
		t.Fatalf("%d segments after the rotating reopen, want 2", n)
	}

	// Damage the record two past the second index entry.
	bad := uint64(indexStride + 3) // its LSN: record indexStride+2 of a segment starting at 1
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[offs[bad-1]+recHeaderLen+2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name      string
		from      uint64
		max       int
		wantError bool
	}{
		{"first record returned", bad - 1, 8, true},
		{"inside the batch", bad - 3, 8, true},
		{"reached from an earlier entry", 0, 10_000, true},
		{"stepped over after the seek", bad + 5, 8, true},
		{"before the seek point", uint64(2 * indexStride), 8, false},
		{"batch ends short of it", 0, int(bad) - 2, false},
	} {
		recs, pos, err := l.ReadRecords(c.from, c.max)
		if c.wantError {
			if err == nil || recs != nil || pos != c.from {
				t.Errorf("%s: %d records to pos %d, err %v; want an error and nothing else", c.name, len(recs), pos, err)
			}
		} else if err != nil || len(recs) != c.max {
			t.Errorf("%s: %d records, err %v; want %d records", c.name, len(recs), err, c.max)
		}
	}
}

// checkActiveFromMemory runs checkAgainstReference over every read that
// starts inside the active segment and fails unless those reads took
// nothing off disk.
func checkActiveFromMemory(t *testing.T, l *Log) {
	t.Helper()
	l.mu.Lock()
	first := l.segs[len(l.segs)-1].start
	l.mu.Unlock()
	read0 := l.ReadBytes()
	checkFromAgainstReference(t, l, first-1)
	if n := l.ReadBytes() - read0; n != 0 {
		t.Fatalf("reads inside the active segment (LSN %d on) read %d bytes off disk, want 0", first, n)
	}
}

// TestReadRecordsActiveFromMemory: a read inside the active segment
// decodes the log's in-memory copy of it and reads nothing off disk,
// and every read still agrees with a whole-file rescan of the disk —
// after appends, across rotations (whose sealed segments are read off
// disk), after a clean reopen, after a crash and after a reopen that
// cut a torn tail.
func TestReadRecordsActiveFromMemory(t *testing.T) {
	opts := Options{Dir: t.TempDir(), SegmentBytes: 10 << 10, Policy: SyncNever}
	l, _ := mustOpen(t, opts)
	var s ShardState
	seq := appendMixed(t, l, &s, 3, 1, indexStride+indexStride/2)
	if n := countSegments(t, opts.Dir); n != 1 {
		t.Fatalf("%d segments after the first appends, want 1", n)
	}
	checkActiveFromMemory(t, l) // every read: the log is one segment

	seq = appendMixed(t, l, &s, 3, seq, 3*indexStride)
	if n := countSegments(t, opts.Dir); n < 3 {
		t.Fatalf("%d segments, want rotations to leave at least 3", n)
	}
	checkActiveFromMemory(t, l)
	read0 := l.ReadBytes()
	if _, _, err := l.ReadRecords(0, 10_000); err != nil {
		t.Fatal(err)
	}
	if l.ReadBytes() == read0 {
		t.Fatal("a read through the sealed segments read nothing off disk")
	}
	checkAgainstReference(t, l)

	// Reopen: the active segment's copy is what recovery read.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _ = mustOpen(t, opts)
	checkActiveFromMemory(t, l)
	seq = appendMixed(t, l, &s, 3, seq, indexStride)
	checkActiveFromMemory(t, l)

	// A crash: a copy of the live directory holds the active segment's
	// preallocated zeros past its frames, and the copy ends at the frames.
	cl, rec := mustOpen(t, Options{Dir: copyDir(t, opts.Dir), SegmentBytes: opts.SegmentBytes, Policy: SyncNever})
	checkActiveFromMemory(t, cl)
	cs := rec.Shards[0]
	appendMixed(t, cl, &cs, 3, seq, indexStride)
	checkActiveFromMemory(t, cl)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut the last frame short: recovery truncates it, and the copy ends
	// at the cut.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, opts.Dir)
	offs := frameOffsets(t, seg)
	if err := os.Truncate(seg, offs[len(offs)-1]-5); err != nil {
		t.Fatal(err)
	}
	l, rec = mustOpen(t, opts)
	defer l.Close()
	if rec.DroppedBytes == 0 {
		t.Fatal("recovery dropped no torn tail")
	}
	checkActiveFromMemory(t, l)
	s = rec.Shards[0]
	appendMixed(t, l, &s, 3, seq, indexStride)
	checkActiveFromMemory(t, l)
}

// TestReadRecordsConcurrentWithRotationAndPrune runs appenders that
// keep rotating segments and a snapshot pruner against readers at
// random positions. Every append is a register add at version LSN-1
// (LSN 1 is the boot marker), so a batch shows which LSNs it holds:
// each must be exactly the run (from, pos] it claims.
func TestReadRecordsConcurrentWithRotationAndPrune(t *testing.T) {
	const appenders, perAppender, readers = 3, 1000, 3
	l, _ := mustOpen(t, Options{Dir: t.TempDir(), SegmentBytes: 2 << 10, Policy: SyncNever})
	defer l.Close()

	var mu sync.Mutex // orders Step with Append, so version order is LSN order
	var s ShardState
	var appending, pruning, readerWG sync.WaitGroup
	done := make(chan struct{})
	marks := make(chan uint64, appenders*perAppender/100) // every 100th LSN appended
	for a := 0; a < appenders; a++ {
		appending.Add(1)
		go func(sess uint64) {
			defer appending.Done()
			for seq := uint64(1); seq <= perAppender; seq++ {
				mu.Lock()
				out := StepOp(&s, 0, sess, seq, rootAdd(1))
				lsn, err := l.Append(Record{Session: sess, Seq: seq, Kind: OpRegAdd, Arg: 1, Val: out.Val, Ver: out.Ver, OK: true})
				mu.Unlock()
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if lsn%100 == 0 {
					marks <- lsn
				}
			}
		}(uint64(a + 1))
	}
	go func() { appending.Wait(); close(marks) }()
	pruning.Add(1)
	go func() { // pruner: a snapshot every 100 records, while appends go on
		defer pruning.Done()
		for next := range marks {
			// Append only buffers: WaitDurable writes the record (under
			// SyncNever that write is the whole commit), so the snapshot
			// never waits on a tail nobody else would write.
			if err := l.WaitDurable(next); err != nil {
				t.Errorf("wait durable %d: %v", next, err)
				return
			}
			err := l.WriteSnapshot(func() map[uint32]ShardState {
				mu.Lock()
				defer mu.Unlock()
				return map[uint32]ShardState{0: s.Clone()}
			})
			if err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(seed int64) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				// Within the last 512 LSNs: some pruned already, most live.
				end := l.End()
				from := end - uint64(rng.Int63n(int64(min(end, 512))+1))
				max := 1 + rng.Intn(2*indexStride)
				recs, pos, err := l.ReadRecords(from, max)
				if errors.Is(err, ErrPruned) {
					continue
				}
				if err == nil {
					err = checkRun(recs, from, pos, max)
				}
				if err != nil {
					t.Errorf("read from %d max %d to pos %d: %v", from, max, pos, err)
					return
				}
			}
		}(int64(r + 1))
	}
	pruning.Wait() // marks closes after the appenders, so they are done too
	close(done)
	readerWG.Wait()
	if _, _, err := l.ReadRecords(0, 1); !errors.Is(err, ErrPruned) {
		t.Fatalf("nothing was pruned under the readers: read from 0: err %v", err)
	}
}

// checkRun reports whether recs is the op records of LSNs (from, pos]
// in a log whose LSN n+1 is the add that produced version n.
func checkRun(recs []Record, from, pos uint64, max int) error {
	first := from + 1 // LSN of recs[0]
	if from == 0 {
		first = 2 // LSN 1, the boot marker, is consumed and not returned
	}
	if len(recs) > max || pos+1-first != uint64(len(recs)) {
		return fmt.Errorf("%d records cannot be LSNs (%d, %d] in batches of %d", len(recs), from, pos, max)
	}
	for i, r := range recs {
		if want := first + uint64(i) - 1; r.Ver != want {
			return fmt.Errorf("record %d is version %d, want %d", i, r.Ver, want)
		}
	}
	return nil
}
