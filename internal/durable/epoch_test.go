package durable

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kexclusion/internal/object"
)

func TestOpRecordEpochRoundTrip(t *testing.T) {
	want := Record{
		Session: 7, Seq: 9, Shard: 3, Kind: OpRegSet, Arg: -4, Val: -4,
		Ver: 12, Epoch: 5, OK: true,
	}
	body, n, err := decodeFrame(encodeOp(want), maxBody)
	if err != nil {
		t.Fatalf("decode frame: %v", err)
	}
	if n != recHeaderLen+opObjBodyLen {
		t.Fatalf("frame consumed %d bytes, want %d", n, recHeaderLen+opObjBodyLen)
	}
	got, isRestart, err := parseBody(body)
	if err != nil || isRestart {
		t.Fatalf("parse: restart=%v err=%v", isRestart, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestStateImageEpochRoundTrip(t *testing.T) {
	want := map[uint32]ShardState{
		0: withRoot(ShardState{Epoch: 2, Ver: 9, Dedup: dedupOf(map[uint64]DedupEntry{
			11: {Seq: 3, Val: 42, Ver: 9},
		})}, 42),
		5: withRoot(ShardState{Epoch: 0, Ver: 1}, -1),
	}
	got, err := DecodeState(EncodeState(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for id, w := range want {
		g := got[id]
		if g.Epoch != w.Epoch || g.Ver != w.Ver || rootVal(g) != rootVal(w) {
			t.Fatalf("shard %d: got %+v, want %+v", id, g, w)
		}
	}
	if e, _ := got[0].Dedup.Get(11); e.Seq != 3 || e.Val != 42 || e.Ver != 9 {
		t.Fatalf("shard 0 dedup entry: %+v", e)
	}
}

// The two layouts the last build with a ShardState.Val wrote, byte for
// byte as its TestLayoutsGolden pinned them: the shard value's
// fixed-width op record (type 5) and the snapshot that carried that
// value in its shard header (type 7). Directories holding them exist.
const (
	retiredOpType5 = "05" + "000000000000aabb" + "0000000000000009" + "00000003" + "01" +
		"fffffffffffffffe" + "0000000000000028" + "000000000000000c" + "0000000000000001"
	retiredSnapType7 = "07" + "0000000000000011" + "0000000000000004" + "00000001" +
		"00000002" + "0000000000000001" + "0000000000000008" + "0000000000000050" + "00000001" +
		"000000000000aabb" + "00000002" +
		"0000000000000003" + "0000000000000050" + "0000000000000008" + "01" +
		"0000000000000002" + "000000000000004f" + "0000000000000007" + "00" +
		"00000000" // empty object table
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRetiredLayoutsAreFormatErrors: body types 1 (pre-epoch op), 3, 4
// and 6 (pre-pipelining, pre-epoch and pre-object snapshots), 5 and 7
// (the shard value's own op record and snapshot field) are no longer
// layouts. Well-formed bodies of each — exactly what the old writers
// produced — answer ErrFormat from every decoder, like any unknown type
// byte, and so does an atomic group with a type-5 member.
func TestRetiredLayoutsAreFormatErrors(t *testing.T) {
	opV5 := mustHex(t, retiredOpType5)
	opV1 := append([]byte{1}, opV5[1:len(opV5)-8]...) // type 1: the type-5 body minus its epoch

	snap := func(typ byte, epoch bool) []byte {
		body := []byte{typ}
		body = binary.BigEndian.AppendUint64(body, 17) // cover
		body = binary.BigEndian.AppendUint64(body, 4)  // markers
		body = binary.BigEndian.AppendUint32(body, 1)  // one shard
		body = binary.BigEndian.AppendUint32(body, 2)  // id
		if epoch {
			body = binary.BigEndian.AppendUint64(body, 1)
		}
		body = binary.BigEndian.AppendUint64(body, 8)  // ver
		body = binary.BigEndian.AppendUint64(body, 80) // val
		return binary.BigEndian.AppendUint32(body, 0)  // no dedup entries, no object table
	}
	group := []byte{recTypeAtomic, 0, 1, 0, byte(len(opV5))}
	group = append(group, opV5...)
	for name, body := range map[string][]byte{
		"1": opV1, "3": snap(3, false), "4": snap(4, false), "5": opV5, "6": snap(6, true),
		"7": mustHex(t, retiredSnapType7), "9 holding a 5": group,
	} {
		if _, _, err := parseBody(body); !errors.Is(err, ErrFormat) {
			t.Errorf("parseBody(type %s) = %v, want ErrFormat", name, err)
		}
		if _, err := ParseRecordBody(body); !errors.Is(err, ErrFormat) {
			t.Errorf("ParseRecordBody(type %s) = %v, want ErrFormat", name, err)
		}
		if _, _, _, err := decodeSnapshot(body); !errors.Is(err, ErrFormat) {
			t.Errorf("decodeSnapshot(type %s) = %v, want ErrFormat", name, err)
		}
	}
	// The retired op-kind bytes inside a current frame are unknown kinds.
	for _, kind := range []byte{1, 2} {
		body := EncodeRecordBody(Record{Kind: OpRegAdd, Ver: 1, OK: true})
		body[21] = kind
		if _, _, err := parseBody(body); !errors.Is(err, errCorrupt) {
			t.Errorf("parseBody(op kind %d) = %v, want errCorrupt", kind, err)
		}
	}
}

// TestOpenRefusesRetiredLayouts: a directory holding a CRC-valid frame
// of a layout this build does not write was written by another build,
// not torn by a crash. Open refuses it with ErrFormat wherever the
// frame sits — the final segment, where a torn tail would be truncated,
// included — and leaves every byte of the directory as it found it.
func TestOpenRefusesRetiredLayouts(t *testing.T) {
	restart := encodeRestart()
	op5 := appendFrame(nil, mustHex(t, retiredOpType5))
	for name, files := range map[string]map[string][]byte{
		"type 5 in a non-final segment": {
			"wal-0000000000000001.seg": append(append([]byte{}, restart...), op5...),
			"wal-0000000000000003.seg": restart,
		},
		"type 5 alone in the final segment": {
			"wal-0000000000000001.seg": restart,
			"wal-0000000000000002.seg": op5,
		},
		"a lone type 7 snapshot": {
			"snap-0000000000000017.snap": appendFrame(nil, mustHex(t, retiredSnapType7)),
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for base, data := range files {
				if err := os.WriteFile(filepath.Join(dir, base), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, _, err := Open(Options{Dir: dir})
			if !errors.Is(err, ErrFormat) {
				if l != nil {
					l.Close()
				}
				t.Fatalf("Open = %v, want ErrFormat", err)
			}
			var named bool
			for base := range files {
				named = named || strings.Contains(err.Error(), base)
			}
			if !named || !strings.Contains(err.Error(), "type ") {
				t.Errorf("refusal names neither the file nor the type byte: %v", err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil || len(ents) != len(files) {
				t.Fatalf("directory holds %d entries (err %v), want the %d written", len(ents), err, len(files))
			}
			for base, want := range files {
				got, err := os.ReadFile(filepath.Join(dir, base))
				if err != nil || sha256.Sum256(got) != sha256.Sum256(want) {
					t.Errorf("%s changed under the refused Open (err %v, %d bytes, was %d)", base, err, len(got), len(want))
				}
			}
		})
	}
}

// TestLayoutsGolden pins the four body layouts something writes —
// restart 2, op 8 (the root register's with a zero-length name), atomic
// 9, snapshot 10 — byte for byte: a data directory written before a
// change to this package must recover after it, and a change that
// cannot keep that must take a new type byte. The snapshot golden
// differs from the retired type-7 one (retiredSnapType7, same state)
// only by the type byte and the 8-byte value field missing from each
// shard header; where a written-to root register travels instead — the
// object table, under its zero-length name — is pinned beside it.
func TestLayoutsGolden(t *testing.T) {
	root := Record{Session: 0xAABB, Seq: 9, Shard: 3, Kind: OpRegAdd, Obj: RootName, Arg: -2, Val: 40, Ver: 12, Epoch: 1, OK: true}
	obj := Record{Session: 0xAABB, Seq: 10, Shard: 1, Kind: OpMapCAS, Arg: 6, Arg2: 5, Val: 6,
		Ver: 13, Epoch: 1, OK: true, Obj: "m", Key: "k1"}
	wantRoot := "08" + "000000000000aabb" + "0000000000000009" + "00000003" +
		hex.EncodeToString([]byte{byte(OpRegAdd)}) +
		"fffffffffffffffe" + "0000000000000000" + "0000000000000028" +
		"000000000000000c" + "0000000000000001" + "01" + "00" + "0000"
	wantObj := "08" + "000000000000aabb" + "000000000000000a" + "00000001" +
		hex.EncodeToString([]byte{byte(OpMapCAS)}) +
		"0000000000000006" + "0000000000000005" + "0000000000000006" +
		"000000000000000d" + "0000000000000001" + "01" + "01" + "0002" + "6d" + "6b31"
	snapshot := encodeSnapshot(17, 4, map[uint32]ShardState{2: {Epoch: 1, Ver: 8,
		Dedup: dedupOf(map[uint64]DedupEntry{0xAABB: {Seq: 3, Val: 80, Ver: 8, OK: true,
			Recent: []DedupOp{{Seq: 2, Val: 79, Ver: 7}}}})}})
	const wantSnap = "0a" + "0000000000000011" + "0000000000000004" + "00000001" +
		"00000002" + "0000000000000001" + "0000000000000008" + "00000001" +
		"000000000000aabb" + "00000002" +
		"0000000000000003" + "0000000000000050" + "0000000000000008" + "01" +
		"0000000000000002" + "000000000000004f" + "0000000000000007" + "00" +
		"00000000" // empty object table
	for name, tc := range map[string]struct {
		got  []byte
		want string
	}{
		"restart":  {encodeRestart()[recHeaderLen:], "02"},
		"root op":  {EncodeRecordBody(root), wantRoot},
		"object":   {EncodeRecordBody(obj), wantObj},
		"atomic":   {EncodeRecordBody(Record{Atomic: []Record{root, obj}}), "09" + "0002" + "0042" + wantRoot + "0045" + wantObj},
		"snapshot": {snapshot, wantSnap},
		"root in the object table": {object.AppendTable(nil, withRoot(ShardState{}, 80).Objs),
			"00000001" + "00" + "01" + "0000000000000050"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s layout moved:\n got  %s\n want %s", name, got, tc.want)
		}
	}
}

// TestReplayEpochFencing is the recovery half of the forked-history fix:
// after a state install fences a shard at a higher epoch, a straggler
// record from the deposed epoch sitting later in the WAL must be
// skipped, same-epoch continuations must apply, and a contiguous
// higher-epoch record (a promotion observed before any new-epoch
// snapshot) must be adopted.
func TestReplayEpochFencing(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})

	// A replicated install left shard 0 at (epoch 1, ver 2), fenced by
	// this snapshot — exactly what InstallState persists.
	if err := l.WriteSnapshot(func() map[uint32]ShardState {
		return map[uint32]ShardState{0: withRoot(ShardState{Epoch: 1, Ver: 2}, 50)}
	}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	appendRec := func(r Record) {
		t.Helper()
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatalf("append %+v: %v", r, err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatalf("wait durable: %v", err)
		}
	}
	// Fenced fork straggler: epoch 0 lost to the install above.
	appendRec(Record{Shard: 0, Kind: OpRegSet, Arg: 99, Val: 99, Ver: 4, OK: true, Epoch: 0})
	// Same-epoch continuation of the installed line.
	appendRec(Record{Shard: 0, Kind: OpRegSet, Arg: 60, Val: 60, Ver: 3, OK: true, Epoch: 1})
	// Cross-epoch continuation: a promoted primary's first post-bump
	// record, pulled before any epoch-2 snapshot exists locally.
	appendRec(Record{Shard: 0, Kind: OpRegSet, Arg: 70, Val: 70, Ver: 4, OK: true, Epoch: 2})
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l, rec := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	got := rec.Shards[0]
	if got.Epoch != 2 || got.Ver != 4 || rootVal(got) != 70 {
		t.Fatalf("recovered shard 0: %+v, want epoch 2 ver 4 val 70", got)
	}
}

// TestReplayHigherEpochRewriteIsCorruption: a higher-epoch record at or
// below the recovering state's version would rewrite acknowledged
// history without the install snapshot required to fence it. Recovery
// must refuse rather than guess.
func TestReplayHigherEpochRewriteIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	if err := l.WriteSnapshot(func() map[uint32]ShardState {
		return map[uint32]ShardState{0: withRoot(ShardState{Epoch: 1, Ver: 5}, 5)}
	}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	lsn, err := l.Append(Record{Shard: 0, Kind: OpRegSet, Arg: 9, Val: 9, Ver: 4, OK: true, Epoch: 2})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatalf("wait durable: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	if _, _, err := Open(Options{Dir: dir, Logf: func(string, ...any) {}}); err == nil ||
		!strings.Contains(err.Error(), "missing epoch-fencing snapshot") {
		t.Fatalf("reopen: err %v, want epoch-fencing corruption", err)
	}
}

// TestReadRecordsDeletedSegmentIsPruned: a segment file unlinked by a
// concurrent snapshot prune after the reader captured the segment list
// must read as ErrPruned (resync via state image), not a hard internal
// error that kills the replication stream.
func TestReadRecordsDeletedSegmentIsPruned(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l.Close()
	var s ShardState
	appendOps(t, l, &s, 0, 5, 1, 40)

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >=2 segments, got %d (err %v)", len(segs), err)
	}
	sort.Strings(segs)
	// Unlink the oldest segment while the log still lists it, exactly
	// the window a concurrent prune leaves open.
	if err := os.Remove(segs[0]); err != nil {
		t.Fatalf("remove %s: %v", segs[0], err)
	}
	if _, _, err := l.ReadRecords(0, 10); !errors.Is(err, ErrPruned) {
		t.Fatalf("read into deleted segment: err %v, want ErrPruned", err)
	}
}
