package durable

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestOpRecordEpochRoundTrip(t *testing.T) {
	want := Record{
		Session: 7, Seq: 9, Shard: 3, Kind: OpSet, Arg: -4, Val: -4,
		Ver: 12, Epoch: 5,
	}
	body, n, err := decodeFrame(encodeOp(want), maxBody)
	if err != nil {
		t.Fatalf("decode frame: %v", err)
	}
	if n != recHeaderLen+opBodyLen {
		t.Fatalf("frame consumed %d bytes, want %d", n, recHeaderLen+opBodyLen)
	}
	got, isRestart, err := parseBody(body)
	if err != nil || isRestart {
		t.Fatalf("parse: restart=%v err=%v", isRestart, err)
	}
	want.OK = true // root-register kinds decode with an OK verdict
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestStateImageEpochRoundTrip(t *testing.T) {
	want := map[uint32]ShardState{
		0: {Epoch: 2, Ver: 9, Val: 42, Dedup: dedupOf(map[uint64]DedupEntry{
			11: {Seq: 3, Val: 42, Ver: 9},
		})},
		5: {Epoch: 0, Ver: 1, Val: -1},
	}
	got, err := DecodeState(EncodeState(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for id, w := range want {
		g := got[id]
		if g.Epoch != w.Epoch || g.Ver != w.Ver || g.Val != w.Val {
			t.Fatalf("shard %d: got %+v, want %+v", id, g, w)
		}
	}
	if e, _ := got[0].Dedup.Get(11); e.Seq != 3 || e.Val != 42 || e.Ver != 9 {
		t.Fatalf("shard 0 dedup entry: %+v", e)
	}
}

// TestRetiredLayoutsAreCorrupt: body types 1 (pre-epoch op), 3, 4 and 6
// (pre-pipelining, pre-epoch and pre-object snapshots) are no longer
// layouts. Well-formed bodies of each — exactly what the old writers
// produced — answer errCorrupt from both decoders, like any unknown
// type byte.
func TestRetiredLayoutsAreCorrupt(t *testing.T) {
	opV1 := EncodeRecordBody(Record{Session: 7, Seq: 9, Shard: 3, Kind: OpAdd, Arg: 2, Val: 6, Ver: 12})
	opV1 = append([]byte{1}, opV1[1:len(opV1)-8]...) // type 1: the type-5 body minus its epoch

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
	for typ, body := range map[byte][]byte{1: opV1, 3: snap(3, false), 4: snap(4, false), 6: snap(6, true)} {
		if _, _, err := parseBody(body); !errors.Is(err, errCorrupt) {
			t.Errorf("parseBody(type %d) = %v, want errCorrupt", typ, err)
		}
		if _, err := ParseRecordBody(body); !errors.Is(err, errCorrupt) {
			t.Errorf("ParseRecordBody(type %d) = %v, want errCorrupt", typ, err)
		}
		if _, _, _, err := decodeSnapshot(body); !errors.Is(err, errCorrupt) {
			t.Errorf("decodeSnapshot(type %d) = %v, want errCorrupt", typ, err)
		}
	}
}

// TestLayoutsGolden pins the five body layouts something writes —
// restart 2, root-register op 5, snapshot 7, object op 8, atomic 9 —
// byte for byte: a data directory written before a change to this
// package must recover after it.
func TestLayoutsGolden(t *testing.T) {
	reg := Record{Session: 0xAABB, Seq: 9, Shard: 3, Kind: OpAdd, Arg: -2, Val: 40, Ver: 12, Epoch: 1}
	obj := Record{Session: 0xAABB, Seq: 10, Shard: 1, Kind: OpMapCAS, Arg: 6, Arg2: 5, Val: 6,
		Ver: 13, Epoch: 1, OK: true, Obj: "m", Key: "k1"}
	const wantReg = "05" + "000000000000aabb" + "0000000000000009" + "00000003" + "01" +
		"fffffffffffffffe" + "0000000000000028" + "000000000000000c" + "0000000000000001"
	wantObj := "08" + "000000000000aabb" + "000000000000000a" + "00000001" +
		hex.EncodeToString([]byte{byte(OpMapCAS)}) +
		"0000000000000006" + "0000000000000005" + "0000000000000006" +
		"000000000000000d" + "0000000000000001" + "01" + "01" + "0002" + "6d" + "6b31"
	snapshot := encodeSnapshot(17, 4, map[uint32]ShardState{2: {Epoch: 1, Ver: 8, Val: 80,
		Dedup: dedupOf(map[uint64]DedupEntry{0xAABB: {Seq: 3, Val: 80, Ver: 8, OK: true,
			Recent: []DedupOp{{Seq: 2, Val: 79, Ver: 7}}}})}})
	const wantSnap = "07" + "0000000000000011" + "0000000000000004" + "00000001" +
		"00000002" + "0000000000000001" + "0000000000000008" + "0000000000000050" + "00000001" +
		"000000000000aabb" + "00000002" +
		"0000000000000003" + "0000000000000050" + "0000000000000008" + "01" +
		"0000000000000002" + "000000000000004f" + "0000000000000007" + "00" +
		"00000000" // empty object table
	for name, tc := range map[string]struct {
		got  []byte
		want string
	}{
		"restart":  {encodeRestart()[recHeaderLen:], "02"},
		"register": {EncodeRecordBody(reg), wantReg},
		"object":   {EncodeRecordBody(obj), wantObj},
		"atomic":   {EncodeRecordBody(Record{Atomic: []Record{reg, obj}}), "09" + "0002" + "0036" + wantReg + "0045" + wantObj},
		"snapshot": {snapshot, wantSnap},
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
		return map[uint32]ShardState{0: {Epoch: 1, Ver: 2, Val: 50}}
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
	appendRec(Record{Shard: 0, Kind: OpSet, Arg: 99, Val: 99, Ver: 4, Epoch: 0})
	// Same-epoch continuation of the installed line.
	appendRec(Record{Shard: 0, Kind: OpSet, Arg: 60, Val: 60, Ver: 3, Epoch: 1})
	// Cross-epoch continuation: a promoted primary's first post-bump
	// record, pulled before any epoch-2 snapshot exists locally.
	appendRec(Record{Shard: 0, Kind: OpSet, Arg: 70, Val: 70, Ver: 4, Epoch: 2})
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l, rec := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	got := rec.Shards[0]
	if got.Epoch != 2 || got.Ver != 4 || got.Val != 70 {
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
		return map[uint32]ShardState{0: {Epoch: 1, Ver: 5, Val: 5}}
	}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	lsn, err := l.Append(Record{Shard: 0, Kind: OpSet, Arg: 9, Val: 9, Ver: 4, Epoch: 2})
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
