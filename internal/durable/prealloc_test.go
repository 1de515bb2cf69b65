package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fallocateRefused is fallocate's answer on this filesystem when it
// refuses as unsupported (segments then grow by writes), nil when it
// preallocates; any other failure fails the test.
func fallocateRefused(t *testing.T) error {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "probe"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	err = fallocate(f, 4096)
	if errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	if err != nil {
		t.Fatal(err)
	}
	return nil
}

// appendedFrames decodes path with the rule of a log that never
// preallocated: frames run to the end of the file, and anything else
// (a zero byte included) fails the test. It returns the frame count.
func appendedFrames(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for off := 0; off < len(data); n++ {
		_, sz, err := decodeFrame(data[off:], maxBody)
		if err != nil {
			t.Fatalf("%s at offset %d of %d: %v", filepath.Base(path), off, len(data), err)
		}
		off += sz
	}
	return n
}

// TestCommitKeepsFileSize counts what a commit's fsync has to carry: the
// active segment is SegmentBytes long from Open on, so no commit changes
// its size, and rotation and Close cut a segment back to its whole
// frames.
func TestCommitKeepsFileSize(t *testing.T) {
	if err := fallocateRefused(t); err != nil {
		t.Skipf("no preallocation to count: %v", err)
	}
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), Policy: policy, SegmentBytes: 128 * addFrame}
			l, _ := mustOpen(t, opts)
			defer l.Close()
			seg := lastSegment(t, opts.Dir)
			if got := fileSize(t, seg); got != opts.SegmentBytes {
				t.Fatalf("after Open: segment is %d bytes, want %d", got, opts.SegmentBytes)
			}
			ver := uint64(0)
			commit := func() {
				if err := l.WaitDurable(appendAdds(t, l, ver, 1)); err != nil {
					t.Fatal(err)
				}
				ver++
			}
			for ver < 100 {
				commit()
				if got := fileSize(t, seg); got != opts.SegmentBytes {
					t.Fatalf("commit %d: segment is %d bytes, want %d", ver, got, opts.SegmentBytes)
				}
			}
			for lastSegment(t, opts.Dir) == seg {
				commit()
			}
			if got, want := fileSize(t, seg), frameBytes(t, seg); got != want || want < opts.SegmentBytes {
				t.Fatalf("sealed segment is %d bytes and holds %d of frames; want them equal and at least %d",
					got, want, opts.SegmentBytes)
			}
			active := lastSegment(t, opts.Dir)
			if got := fileSize(t, active); got != opts.SegmentBytes {
				t.Fatalf("new active segment is %d bytes, want %d", got, opts.SegmentBytes)
			}
			commit()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := fileSize(t, active), frameBytes(t, active); got != want || want == 0 {
				t.Fatalf("closed segment is %d bytes and holds %d of frames; want them equal and nonzero", got, want)
			}
		})
	}

	// A segment preallocated under a larger SegmentBytes, resumed after
	// a crash under a smaller one, rotates with room to spare: its seal
	// still cuts it to its frames.
	big, _ := mustOpen(t, Options{Dir: t.TempDir(), SegmentBytes: 1 << 20})
	defer big.Close()
	opts := Options{Dir: copyDir(t, big.opts.Dir), SegmentBytes: 8 * addFrame}
	l, _ := mustOpen(t, opts)
	defer l.Close()
	seg := lastSegment(t, opts.Dir)
	for ver := uint64(0); lastSegment(t, opts.Dir) == seg; ver++ {
		if err := l.WaitDurable(appendAdds(t, l, ver, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fileSize(t, seg), frameBytes(t, seg); got != want {
		t.Fatalf("segment sealed with room to spare is %d bytes and holds %d of frames", got, want)
	}
}

// TestRecoverPreallocatedCrashPoints cuts a recorded segment at every
// byte of its last three frames, as a crash mid-write into preallocated
// space leaves it: the bytes before the cut, then zeros to SegmentBytes,
// and again with one non-zero byte at the cut. Recovery keeps exactly
// the recorded frames the variant still holds whole and counts as
// dropped the bytes after them through the last non-zero one — none
// when the damage is pure zeros. A second Open is clean, and records
// appended in between sit right after the kept frames.
func TestRecoverPreallocatedCrashPoints(t *testing.T) {
	const segBytes = 4096
	src := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: src, SegmentBytes: segBytes})
	if err := l.WaitDurable(appendAdds(t, l, 0, 12)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, src)
	img, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, seg) // the boot marker, then versions 1..12
	frames := len(offs) - 1
	if offs[frames] != int64(len(img)) {
		t.Fatalf("closed segment is %d bytes, its frames %d", len(img), offs[frames])
	}

	root := t.TempDir()
	for c := offs[frames-3]; c < offs[frames]; c++ {
		for _, damaged := range []bool{false, true} {
			buf := make([]byte, segBytes)
			copy(buf, img[:c])
			if damaged {
				buf[c] = 0xff
				if img[c] == 0xff {
					buf[c] = 0xfe
				}
			}
			// A frame whose unwritten bytes happen to be zeros is whole
			// in the zero variant: keep what the variant holds intact.
			whole := 0
			for whole < frames && bytes.Equal(buf[offs[whole]:offs[whole+1]], img[offs[whole]:offs[whole+1]]) {
				whole++
			}
			cut := offs[whole]
			wantDropped := int64(len(bytes.TrimRight(buf[cut:], "\x00")))
			if damaged {
				wantDropped = c + 1 - cut
			}
			name := fmt.Sprintf("cut %d damaged %v", c, damaged)

			dir := filepath.Join(root, fmt.Sprint(c, damaged))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, filepath.Base(seg))
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			opts := Options{Dir: dir, SegmentBytes: segBytes}
			l, rec := mustOpen(t, opts)
			if got := rec.Shards[0].Ver; got != uint64(whole-1) || rec.DroppedBytes != wantDropped {
				t.Fatalf("%s: recovered version %d dropping %d bytes, want %d and %d",
					name, got, rec.DroppedBytes, whole-1, wantDropped)
			}
			from := l.End()
			if err := l.WaitDurable(appendAdds(t, l, uint64(whole-1), 2)); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l, rec = mustOpen(t, opts)
			if rec.DroppedBytes != 0 || rec.Shards[0].Ver != uint64(whole+1) {
				t.Fatalf("%s: second Open recovered version %d dropping %d bytes, want %d and none",
					name, rec.Shards[0].Ver, rec.DroppedBytes, whole+1)
			}
			recs, _, err := l.ReadRecords(from, 10)
			if err != nil || len(recs) != 2 || recs[0].Ver != uint64(whole) || recs[1].Ver != uint64(whole+1) {
				t.Fatalf("%s: read back %+v (err %v), want versions %d and %d", name, recs, err, whole, whole+1)
			}
			checkIndex(t, l)
			if got := frameOffsets(t, path); len(got) != whole+5 || got[whole] != cut {
				t.Fatalf("%s: %d frames with frame %d at %d; want %d frames resuming at %d",
					name, len(got)-1, whole, got[whole], whole+4, cut)
			}
			l.Close()
			os.RemoveAll(dir)
		}
	}

	// A zero run followed by a non-zero byte is damage, not preallocated
	// space: truncated in the final segment, fatal in a sealed one. A
	// pure zero tail ends a sealed segment's data like the final one's.
	for _, tc := range []struct {
		name   string
		sealed bool
		stray  bool
	}{
		{"final, zeros then a stray byte", false, true},
		{"sealed, zeros then a stray byte", true, true},
		{"sealed, zeros only", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			buf := make([]byte, segBytes)
			copy(buf, img)
			if tc.stray {
				buf[len(img)+5] = 0x01
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), buf, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.sealed {
				next := filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", frames+1))
				if err := os.WriteFile(next, encodeRestart(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, rec, err := Open(Options{Dir: dir, SegmentBytes: segBytes})
			if tc.sealed && tc.stray {
				if err == nil || !strings.Contains(err.Error(), "not the final segment") {
					if l != nil {
						l.Close()
					}
					t.Fatalf("Open = %v, want a refusal of the sealed segment's damage", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			wantDropped := int64(0)
			if tc.stray {
				wantDropped = 6
			}
			if rec.Shards[0].Ver != uint64(frames-1) || rec.DroppedBytes != wantDropped {
				t.Fatalf("recovered version %d dropping %d bytes, want %d and %d",
					rec.Shards[0].Ver, rec.DroppedBytes, frames-1, wantDropped)
			}
		})
	}
}

// TestAppendedSegmentsCompatible: a directory written by a log that
// never preallocated (exact-size segments, no zero tail) recovers
// unchanged, and its last segment is preallocated on resume; segments
// this build seals or closes cleanly decode with that log's rule.
func TestAppendedSegmentsCompatible(t *testing.T) {
	const segBytes = 2048
	add := func(ver uint64) []byte {
		return encodeOp(Record{Kind: OpRegAdd, Arg: 1, Val: int64(ver), Ver: ver, OK: true})
	}
	files := map[string][]byte{
		"wal-0000000000000001.seg": bytes.Join([][]byte{encodeRestart(), add(1), add(2), add(3)}, nil),
		"wal-0000000000000005.seg": bytes.Join([][]byte{encodeRestart(), add(4), add(5)}, nil),
	}
	dir := t.TempDir()
	for base, data := range files {
		if err := os.WriteFile(filepath.Join(dir, base), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Dir: dir, SegmentBytes: segBytes}
	l, rec := mustOpen(t, opts)
	if got := rec.Shards[0]; got.Ver != 5 || rootVal(got) != 5 || rec.DroppedBytes != 0 || rec.RestartCount != 2 {
		t.Fatalf("recovered %+v, %d restarts, dropping %d bytes; want version and value 5, 2 and none",
			got, rec.RestartCount, rec.DroppedBytes)
	}
	// The sealed segment is left as written; the resumed one keeps its
	// bytes, gains this boot's marker, and is preallocated past them.
	sealed, active := filepath.Join(dir, "wal-0000000000000001.seg"), filepath.Join(dir, "wal-0000000000000005.seg")
	if got, err := os.ReadFile(sealed); err != nil || !bytes.Equal(got, files[filepath.Base(sealed)]) {
		t.Fatalf("sealed segment changed under Open (err %v)", err)
	}
	written := append(append([]byte{}, files[filepath.Base(active)]...), encodeRestart()...)
	got, err := os.ReadFile(active)
	if err != nil || !bytes.HasPrefix(got, written) || len(bytes.TrimRight(got[len(written):], "\x00")) != 0 {
		t.Fatalf("resumed segment (err %v) is not its %d bytes and the boot marker, then zeros", err, len(written)-len(encodeRestart()))
	}
	wantSize := int64(segBytes)
	if err := fallocateRefused(t); err != nil {
		t.Logf("segments grow by writes here: %v", err)
		wantSize = int64(len(written))
	}
	if len(got) != int(wantSize) {
		t.Fatalf("resumed segment is %d bytes, want %d", len(got), wantSize)
	}

	// Past a rotation and through Close, then read every segment back
	// with the appending log's rule.
	s := rec.Shards[0]
	appendOps(t, l, &s, 0, 9, 1, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want a rotation past the two written segments, got %v (err %v)", segs, err)
	}
	total := 0
	for _, p := range segs {
		total += appendedFrames(t, p)
	}
	if want := 4 + 3 + 1 + 40; total != want {
		t.Fatalf("segments hold %d frames, want %d", total, want)
	}
}
