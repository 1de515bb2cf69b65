package durable

import (
	"bytes"
	"math/rand"
	"testing"

	"kexclusion/internal/object"
)

// foldBase is a small seeded state for the Fold tests: epoch 3, version
// 5, the root register at 40, and a dedup window that remembers session
// 7's op 2 (which produced version 5 and value 40).
func foldBase() ShardState {
	return withRoot(ShardState{
		Epoch: 3, Ver: 5,
		Dedup: dedupOf(map[uint64]DedupEntry{7: {Seq: 2, Val: 40, OK: true, Ver: 5}}),
	}, 40)
}

// TestFold walks the one rule over its whole domain: the record's epoch
// below, at and above the state's, crossed with its version at or
// below, next after and beyond the state's, plus a next record whose
// recorded Val, OK or Ver disagrees with re-execution. Every verdict is
// reached, and the state is byte-identical before and after on every
// verdict that does not apply.
func TestFold(t *testing.T) {
	const window = 8
	base := foldBase()
	// next is the honest next record at the state's own epoch.
	next := Record{Session: 7, Seq: 3, Kind: OpRegAdd, Obj: RootName, Arg: 2, Val: 42, OK: true, Ver: 6, Epoch: 3}
	at := func(r Record, epoch, ver uint64) Record { r.Epoch, r.Ver = epoch, ver; return r }
	with := func(r Record, f func(*Record)) Record { f(&r); return r }

	cases := []struct {
		name string
		r    Record
		want Verdict
	}{
		{"lower epoch, old version", at(next, 2, 4), Fenced},
		{"lower epoch, current version", at(next, 2, 5), Fenced},
		{"lower epoch, next version", at(next, 2, 6), Fenced},
		{"lower epoch, beyond", at(next, 2, 7), Fenced},
		{"same epoch, old version", at(next, 3, 4), Covered},
		{"same epoch, current version", at(next, 3, 5), Covered},
		{"same epoch, next version", next, Applied},
		{"same epoch, beyond", at(next, 3, 7), Gap},
		{"higher epoch, old version", at(next, 4, 4), Rewrite},
		{"higher epoch, current version", at(next, 4, 5), Rewrite},
		{"higher epoch, next version", at(next, 4, 6), Adopted},
		{"higher epoch, beyond", at(next, 4, 7), Gap},
		{"next version, wrong Val", with(next, func(r *Record) { r.Val = 41 }), Diverged},
		{"next version, wrong OK", with(next, func(r *Record) { r.OK = false }), Diverged},
		{"next version at a higher epoch, wrong Val", with(at(next, 4, 6), func(r *Record) { r.Val = 0 }), Diverged},
		// A wrong Ver on a record that is otherwise the next one cannot be
		// told from a gap or a re-delivery: the version IS the position.
		{"a re-issued op ID as the next version", with(next, func(r *Record) { r.Seq = 2; r.Val = 40 }), Diverged},
	}
	reached := map[Verdict]bool{}
	before := stateImage(base)
	for _, tc := range cases {
		s := base
		got := Fold(&s, window, tc.r)
		if got != tc.want {
			t.Errorf("%s: verdict %d, want %d", tc.name, got, tc.want)
			continue
		}
		reached[got] = true
		switch got {
		case Applied, Adopted:
			if s.Ver != base.Ver+1 || s.Epoch != tc.r.Epoch || rootVal(s) != 42 {
				t.Errorf("%s: state after = epoch %d ver %d root %d, want epoch %d ver %d root 42",
					tc.name, s.Epoch, s.Ver, rootVal(s), tc.r.Epoch, base.Ver+1)
			}
			if e, _ := s.Dedup.Get(7); e.Seq != 3 || e.Ver != 6 || len(e.Recent) != 1 {
				t.Errorf("%s: dedup window after = %+v", tc.name, e)
			}
		default:
			if !bytes.Equal(stateImage(s), before) {
				t.Errorf("%s: verdict %d moved the state", tc.name, got)
			}
		}
		if !bytes.Equal(stateImage(base), before) {
			t.Fatalf("%s: Fold wrote through to the state it was handed a copy of", tc.name)
		}
	}
	for v := Applied; v <= Diverged; v++ {
		if !reached[v] {
			t.Errorf("no case reached verdict %d", v)
		}
	}
}

// TestFoldRunEqualsFoldOneByOne: a FoldRun over a pulled stream gives
// Fold's verdict for every record and, after End, Fold's state byte for
// byte — through an epoch change, re-deliveries, gaps, fenced records and
// divergences in mid-run. After every verdict that does not apply, the
// run's state is already the one-by-one state: a divergence leaves it
// where the last applied record did.
func TestFoldRunEqualsFoldOneByOne(t *testing.T) {
	const window = 2 // three sessions: the window evicts
	rng := rand.New(rand.NewSource(1))
	reached := map[Verdict]bool{}
	for trial := 0; trial < 300; trial++ {
		origin := foldBase()
		seqs := map[uint64]uint64{7: 2}
		var recs []Record
		step := func(sess uint64, op Op) {
			seq := uint64(0)
			if sess != 0 {
				seqs[sess]++
				seq = seqs[sess]
			}
			out := StepOp(&origin, window, sess, seq, op)
			recs = append(recs, Record{Session: sess, Seq: seq, Kind: op.Kind, Obj: op.Obj, Key: op.Key, Arg: op.Arg, Arg2: op.Arg2,
				Val: out.Val, OK: out.OK, Ver: out.Ver, Epoch: out.Epoch})
		}
		step(7, Op{Kind: OpCreate, Obj: "m", Arg: int64(object.TypeMap)})
		step(8, Op{Kind: OpCreate, Obj: "q", Arg: int64(object.TypeQueue)})
		for i := 0; i < 24; i++ {
			if i == 12 {
				origin.Epoch++ // a promotion: the next record is Adopted
			}
			sess := []uint64{0, 7, 8, 9}[rng.Intn(4)]
			switch rng.Intn(4) {
			case 0:
				step(sess, rootAdd(int64(rng.Intn(5))))
			case 1:
				step(sess, Op{Kind: OpMapPut, Obj: "m", Key: string(rune('a' + rng.Intn(3))), Arg: int64(i)})
			case 2:
				step(sess, Op{Kind: OpQEnq, Obj: "q", Arg: int64(i)})
			case 3:
				step(sess, Op{Kind: OpQDeq, Obj: "q"})
			}
		}
		stream := append([]Record(nil), recs...)
		for n := rng.Intn(3); n > 0; n-- {
			k := rng.Intn(len(stream))
			switch rng.Intn(5) {
			case 0: // re-delivered: Covered
				stream = append(stream[:k+1], append([]Record{stream[rng.Intn(k+1)]}, stream[k+1:]...)...)
			case 1: // a disagreeing value: Diverged
				stream[k].Val++
			case 2: // lost: the records after it are a Gap
				stream = append(stream[:k], stream[k+1:]...)
			case 3: // a deposed epoch's record: Fenced
				r := stream[k]
				r.Epoch = 1
				stream = append(stream[:k], append([]Record{r}, stream[k:]...)...)
			case 4: // a later epoch over a logged version: Rewrite
				r := stream[k]
				r.Epoch, r.Ver = r.Epoch+2, r.Ver-1
				stream = append(stream[:k], append([]Record{r}, stream[k:]...)...)
			}
		}

		want, got := foldBase(), foldBase()
		f := NewFoldRun(window, stream)
		for i, r := range stream {
			wv, gv := Fold(&want, window, r), f.Fold(&got)
			if gv != wv {
				t.Fatalf("trial %d record %d: run verdict %d, one by one %d", trial, i, gv, wv)
			}
			reached[gv] = true
			if gv != Applied && gv != Adopted && !bytes.Equal(stateImage(got), stateImage(want)) {
				t.Fatalf("trial %d record %d: verdict %d left the run's state off the one-by-one state", trial, i, gv)
			}
		}
		f.End(&got)
		if !bytes.Equal(stateImage(got), stateImage(want)) {
			t.Fatalf("trial %d: the run's state differs from the one-by-one state", trial)
		}
	}
	for v := Applied; v <= Diverged; v++ {
		if !reached[v] {
			t.Errorf("no record reached verdict %d", v)
		}
	}
}

// TestContradicts pins the Covered cross-check where the window lives:
// only an op ID the window still remembers can contradict, and it must
// match in version, value and verdict.
func TestContradicts(t *testing.T) {
	s := foldBase()
	e, _ := s.Dedup.Get(7)
	e.Recent = []DedupOp{{Seq: 1, Val: 30, OK: true, Ver: 2}}
	s.Dedup = s.Dedup.Set(7, e)
	newest := Record{Session: 7, Seq: 2, Val: 40, OK: true, Ver: 5}
	older := Record{Session: 7, Seq: 1, Val: 30, OK: true, Ver: 2}
	cases := []struct {
		name string
		r    Record
		want bool
	}{
		{"the newest op, as recorded", newest, false},
		{"an older op, as recorded", older, false},
		{"the newest op at another value", Record{Session: 7, Seq: 2, Val: 41, OK: true, Ver: 5}, true},
		{"the newest op at another version", Record{Session: 7, Seq: 2, Val: 40, OK: true, Ver: 4}, true},
		{"an older op with another verdict", Record{Session: 7, Seq: 1, Val: 30, OK: false, Ver: 2}, true},
		{"an op the session never issued, inside claimed versions", Record{Session: 7, Seq: 9, Val: 1, OK: true, Ver: 5}, true},
		{"a session the window does not hold", Record{Session: 8, Seq: 1, Val: 1, OK: true, Ver: 3}, false},
		{"an op with no ID", Record{Val: 1, OK: true, Ver: 3}, false},
	}
	for _, tc := range cases {
		if got := s.Contradicts(tc.r); got != tc.want {
			t.Errorf("%s: Contradicts = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// FuzzFold feeds Fold what a peer's replication stream can: any record
// ParseRecordBody accepts (a container's members one by one), against a
// small seeded state. It must never panic, must leave the state
// untouched unless the verdict is Applied or Adopted, and an applying
// verdict must advance the version by exactly one at the record's epoch.
func FuzzFold(f *testing.F) {
	next := Record{Session: 7, Seq: 3, Kind: OpRegAdd, Obj: RootName, Arg: 2, Val: 42, OK: true, Ver: 6, Epoch: 3}
	adopt := next
	adopt.Epoch = 4
	f.Add(EncodeRecordBody(next))
	f.Add(EncodeRecordBody(adopt))
	f.Add(EncodeRecordBody(Record{Session: 7, Seq: 2, Kind: OpRegAdd, Obj: RootName, Arg: 5, Val: 40, OK: true, Ver: 5, Epoch: 3}))
	f.Add(EncodeRecordBody(Record{Session: 9, Seq: 1, Kind: OpMapCAS, Obj: "m", Key: "k", Arg: 1, Val: 0, Ver: 6, Epoch: 3}))
	f.Add(EncodeRecordBody(Record{Atomic: []Record{next, {Session: 7, Seq: 4, Kind: OpCreate, Obj: "q", Arg: 3, Val: 3, OK: true, Ver: 7, Epoch: 3}}}))
	f.Add(EncodeRecordBody(Record{Kind: OpQDeq, Obj: "q", Ver: 9, Epoch: 2}))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec, err := ParseRecordBody(body)
		if err != nil {
			return
		}
		members := rec.Atomic
		if len(members) == 0 {
			members = []Record{rec}
		}
		s := foldBase()
		for _, r := range members {
			before, was := stateImage(s), s
			switch v := Fold(&s, 8, r); v {
			case Applied, Adopted:
				if s.Ver != was.Ver+1 || s.Ver != r.Ver || s.Epoch != r.Epoch {
					t.Fatalf("verdict %d moved (epoch %d, ver %d) to (epoch %d, ver %d) on record (epoch %d, ver %d)",
						v, was.Epoch, was.Ver, s.Epoch, s.Ver, r.Epoch, r.Ver)
				}
				if (v == Adopted) != (r.Epoch > was.Epoch) {
					t.Fatalf("verdict %d crossing epoch %d → %d", v, was.Epoch, r.Epoch)
				}
			case Covered, Fenced, Gap, Rewrite, Diverged:
				if !bytes.Equal(stateImage(s), before) {
					t.Fatalf("verdict %d moved the state", v)
				}
			default:
				t.Fatalf("unknown verdict %d", v)
			}
		}
	})
}
