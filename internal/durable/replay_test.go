package durable

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"kexclusion/internal/object"
)

// TestLiveAndReplayBitIdentical is the property recovery and
// replication rest on: a state built live — in runs of 1 to DedupDepth
// ops, each stepped on one Clone, the way the server's universal
// construction applies a pipeline — and a zero state replaying only the
// records that live run logged, one by one, end as the same bytes, and
// those bytes survive decode → encode unchanged. The seeded
// stream covers every OpKind, cas hits and misses, deletes of absent
// keys, dequeues on empty, ops on missing and wrongly typed objects,
// three times more sessions than the window holds, and re-issued op
// IDs (duplicate, stale, and re-applied after eviction). (The follower's
// half of the property — the same record list through recovery and
// through ApplyReplicated — is TestRecoveryAndFollowerBitIdentical in
// internal/server, which can see both.)
//
// The root register is one of the stream's targets, and a twin state
// checks that it is nothing but a register: the twin takes the same
// stream with every op on RootName re-aimed at a register created under
// an ordinary name, and must answer each op — first issue, re-issue,
// after an eviction — with the same value and the same dedup verdict,
// and read the same after each.
func TestLiveAndReplayBitIdentical(t *testing.T) {
	const window = 8
	rng := rand.New(rand.NewSource(7))
	names := []struct {
		name string
		typ  object.Type
	}{
		{"reg", object.TypeRegister}, {"kv", object.TypeMap}, {"kv2", object.TypeMap},
		{"q", object.TypeQueue}, {"snap", object.TypeSnapshot}, {"never-created", 0},
		{RootName, object.TypeRegister},
	}
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	randomOp := func() Op {
		target := names[rng.Intn(len(names))]
		op := Op{
			Kind: opKindMin + OpKind(rng.Intn(int(opKindMax-opKindMin)+1)),
			Obj:  target.name,
			Key:  keys[rng.Intn(len(keys))],
			Arg:  int64(rng.Intn(4)),
			Arg2: int64(rng.Intn(4)),
		}
		if op.Kind == OpCreate {
			op.Arg = int64(target.typ)
			if rng.Intn(8) == 0 {
				op.Arg = int64(object.TypeRegister) // a type conflict for most names
			}
		}
		return op
	}

	type issued struct {
		session, seq uint64
		op           Op
	}
	var (
		live    ShardState
		log     []Record
		history []issued
		nextSeq = map[uint64]uint64{}
		kinds   = map[OpKind]int{}
		seen    struct{ dup, stale, evicted, casHit, casMiss, delMiss, deqEmpty, rootDup, rootEvicted int }
		kept    []ShardState
		keptImg [][]byte
	)
	// The twin's register exists before the stream starts, as the root
	// does; the anonymous create costs one version and no dedup entry.
	const twinName = "root-twin"
	var twin ShardState
	if out := StepOp(&twin, window, 0, 0, Op{Kind: OpCreate, Obj: twinName, Arg: int64(object.TypeRegister)}); !out.OK {
		t.Fatalf("creating the twin register: %+v", out)
	}
	// The live side steps the stream in runs of 1 to DedupDepth ops, each
	// on one clone of the committed state, as the server applies a
	// pipeline; the twin and the replay below step it one op at a time.
	var next ShardState
	run, left := NewRun(window), 0
	for i := 0; i < 6000; i, left = i+1, left-1 {
		if left == 0 {
			run.End(&next)
			live = next
			if i >= 500*len(kept) {
				// Keep a committed state and its image: no later op, all
				// of them run on its clones, may change it.
				kept, keptImg = append(kept, live), append(keptImg, stateImage(live))
			}
			next = live.Clone()
			run, left = NewRun(window), 1+rng.Intn(DedupDepth)
		}
		var is issued
		if len(history) > 0 && rng.Intn(8) == 0 {
			// Half the re-issues come from the last few ops, whose
			// sessions the window still holds (duplicates); the rest from
			// anywhere (mostly stale, or re-applied after an eviction).
			is = history[rng.Intn(len(history))]
			if rng.Intn(2) == 0 {
				is = history[len(history)-1-rng.Intn(min(len(history), window))]
			}
		} else {
			is.session = uint64(1 + rng.Intn(3*window))
			nextSeq[is.session]++
			is.seq, is.op = nextSeq[is.session], randomOp()
			history = append(history, is)
		}
		_, known := next.Dedup.Get(is.session)
		full := next.Dedup.Len() == window

		out := run.Step(&next, is.session, is.seq, is.op)

		twinOp := is.op
		if twinOp.Obj == RootName && twinOp.Kind != OpCreate {
			twinOp.Obj = twinName // create("") is refused in both
		}
		tout := StepOp(&twin, window, is.session, is.seq, twinOp)
		if want := out; !out.Stale {
			want.Ver++
			if tout != want {
				t.Fatalf("op %d (%v on %q): root answered %+v, the named twin %+v", i, is.op.Kind, is.op.Obj, out, tout)
			}
		} else if !tout.Stale {
			t.Fatalf("op %d: stale on the root, %+v on the named twin", i, tout)
		}
		if got, want := rootVal(next), objOf(twin, twinName).Reg; got != want {
			t.Fatalf("op %d: root reads %d, the named twin %d", i, got, want)
		}
		if is.op.Obj == RootName && out.Duplicate {
			seen.rootDup++
		}

		switch {
		case out.Duplicate:
			seen.dup++
		case out.Stale:
			seen.stale++
		case out.Applied:
			kinds[is.op.Kind]++
			log = append(log, Record{Session: is.session, Seq: is.seq, Kind: is.op.Kind,
				Obj: is.op.Obj, Key: is.op.Key, Arg: is.op.Arg, Arg2: is.op.Arg2,
				Val: out.Val, OK: out.OK, Ver: out.Ver, Epoch: out.Epoch})
			if full && !known {
				seen.evicted++
				if is.op.Obj == RootName {
					seen.rootEvicted++
				}
			}
			switch {
			case is.op.Kind == OpMapCAS && out.OK:
				seen.casHit++
			case is.op.Kind == OpMapCAS && is.op.Obj == "kv":
				seen.casMiss++
			case is.op.Kind == OpMapDel && !out.OK && is.op.Obj == "kv":
				seen.delMiss++
			case is.op.Kind == OpQDeq && !out.OK && is.op.Obj == "q":
				seen.deqEmpty++
			}
		default:
			t.Fatalf("op %d: outcome is none of applied/duplicate/stale: %+v", i, out)
		}
		if next.Dedup.Len() > window {
			t.Fatalf("op %d: window holds %d sessions, cap %d", i, next.Dedup.Len(), window)
		}
	}
	run.End(&next)
	live = next
	for k := opKindMin; k <= opKindMax; k++ {
		if kinds[k] == 0 {
			t.Errorf("stream never applied a %v", k)
		}
	}
	if seen.dup == 0 || seen.stale == 0 || seen.evicted == 0 || seen.casHit == 0 ||
		seen.casMiss == 0 || seen.delMiss == 0 || seen.deqEmpty == 0 || seen.rootDup == 0 || seen.rootEvicted == 0 {
		t.Errorf("stream missed a case it exists to cover: %+v", seen)
	}

	img := stateImage(live)
	decoded, err := DecodeState(img)
	if err != nil {
		t.Fatalf("decode of the live image: %v", err)
	}
	if again := EncodeState(decoded); !bytes.Equal(again, img) {
		t.Fatalf("encode → decode → encode changed the image (%d vs %d bytes)", len(img), len(again))
	}

	rec := Recovery{Shards: map[uint32]ShardState{}}
	for i, r := range log {
		if err := replayOp(r, uint64(i+1), window, &rec); err != nil {
			t.Fatalf("replay of record %d: %v", i, err)
		}
	}
	if replayed := stateImage(rec.Shards[0]); !bytes.Equal(replayed, img) {
		t.Fatalf("replay of %d records diverged from the live state (%d vs %d bytes)", len(log), len(replayed), len(img))
	}
	if !reflect.DeepEqual(rec.Shards[0], live) {
		t.Fatal("replayed and live states encode alike but differ in memory")
	}
	if objOf(live, RootName) == nil {
		t.Fatal("stream never wrote the root register: the twin compared nothing")
	}

	// The same records in the shapes a WAL and a replication stream
	// deliver them — single ops, a 0xC2 container, a prefix delivered
	// again (container included), and a last record that carries a
	// promotion's epoch — must end in the same bytes, one epoch up.
	last := log[len(log)-1]
	last.Epoch = 1
	shaped := append([]Record{}, log[:100]...)
	shaped = append(shaped, Record{Atomic: log[100:104]})
	shaped = append(shaped, log[:100]...)
	shaped = append(shaped, Record{Atomic: log[100:104]})
	shaped = append(shaped, log[104:len(log)-1]...)
	shaped = append(shaped, last)
	rec = Recovery{Shards: map[uint32]ShardState{}}
	for i, r := range shaped {
		if err := replayOp(r, uint64(i+1), window, &rec); err != nil {
			t.Fatalf("replay of shaped record %d: %v", i, err)
		}
	}
	adopted := live
	adopted.Epoch = 1
	if !bytes.Equal(stateImage(rec.Shards[0]), stateImage(adopted)) {
		t.Fatal("the shaped log replayed to a different state than the flat one")
	}

	for i, s := range kept {
		if !bytes.Equal(stateImage(s), keptImg[i]) {
			t.Fatalf("state kept at op %d or just after changed under later ops on its clones", i*500)
		}
	}
}

// TestCommitCrashPoints pins "ack ⇒ on disk" against the one thing the
// commit engine moved: the fsync now runs with the mutex released, so
// records are appended behind it. A directory copied at any point of
// that overlap recovers to a prefix of what was appended, never refuses,
// and holds every burst whose wait has returned.
func TestCommitCrashPoints(t *testing.T) {
	const burst = 8
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	g := gateSyncs(t, l)
	defer g.open()

	// recoverCopy opens a copy of the directory as it reads now and
	// returns how many adds recovery found: a prefix of the 2×burst.
	recoverCopy := func(when string) uint64 {
		t.Helper()
		c, rec, err := Open(Options{Dir: copyDir(t, dir)})
		if err != nil {
			t.Fatalf("%s: recovery refused the directory: %v", when, err)
		}
		defer c.Close()
		got := rec.Shards[0]
		if got.Ver > 2*burst || rootVal(got) != int64(got.Ver) {
			t.Fatalf("%s: recovered %+v, not a prefix of %d adds", when, got, 2*burst)
		}
		return got.Ver
	}

	ack1 := waitAsync(l, appendAdds(t, l, 0, burst))
	g.started(t, ack1)
	ack2 := waitAsync(l, appendAdds(t, l, burst, burst))
	stillWaiting(t, ack1, "the first burst's wait")
	stillWaiting(t, ack2, "the second burst's wait")
	recoverCopy("first fsync in flight, nothing acked")

	g.release <- nil
	if err := await(t, ack1, "the first burst's wait"); err != nil {
		t.Fatalf("first burst: %v", err)
	}
	g.started(t, ack2)
	if got := recoverCopy("first burst acked, second fsync in flight"); got < burst {
		t.Fatalf("first burst acked with %d of its %d adds on disk", got, burst)
	}

	g.release <- nil
	if err := await(t, ack2, "the second burst's wait"); err != nil {
		t.Fatalf("second burst: %v", err)
	}
	if got := recoverCopy("both bursts acked"); got != 2*burst {
		t.Fatalf("both bursts acked with %d of %d adds on disk", got, 2*burst)
	}
}
