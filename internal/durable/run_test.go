package durable

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"kexclusion/internal/object"
)

// issued is one op as a client sent it: op ID and mutation, and whether
// it is a re-issue of an earlier op.
type issued struct {
	session, seq uint64
	op           Op
	again        bool
}

// opGen draws the streams the run tests step both ways: every OpKind on
// every kind of target (the root register, a name never created, type
// conflicts), few keys so that cas hits and misses and deletes of absent
// keys all occur, three times more sessions than the window so entries
// are evicted, sessions that stick for a while so runs hold long
// stretches of one session's ops, anonymous ops between them, and
// re-issued op IDs — the last few (duplicates, inside the run or not)
// and any earlier one (mostly stale, or applied again after an
// eviction).
type opGen struct {
	pick    func(n int) int // a choice in [0, n)
	window  int
	session uint64
	nextSeq map[uint64]uint64
	history []issued
}

var runTargets = []struct {
	name string
	typ  object.Type
}{
	{"reg", object.TypeRegister}, {"kv", object.TypeMap}, {"q", object.TypeQueue},
	{"snap", object.TypeSnapshot}, {"never-created", 0}, {RootName, object.TypeRegister},
}

func newOpGen(pick func(int) int, window int) *opGen {
	return &opGen{pick: pick, window: window, nextSeq: map[uint64]uint64{}}
}

func (g *opGen) next() issued {
	if len(g.history) > 0 && g.pick(6) == 0 {
		is := g.history[g.pick(len(g.history))]
		if g.pick(2) == 0 {
			is = g.history[len(g.history)-1-g.pick(min(len(g.history), DedupDepth+4))]
		}
		is.again = true
		return is
	}
	if g.pick(24) == 0 {
		g.session = uint64(g.pick(3*g.window + 1)) // 0: anonymous
	}
	target := runTargets[g.pick(len(runTargets))]
	is := issued{session: g.session, op: Op{
		Kind: opKindMin + OpKind(g.pick(int(opKindMax-opKindMin)+1)),
		Obj:  target.name,
		Key:  string(rune('a' + g.pick(4))),
		Arg:  int64(g.pick(4)),
		Arg2: int64(g.pick(4)),
	}}
	if is.op.Kind == OpCreate {
		is.op.Arg = int64(target.typ)
		if g.pick(8) == 0 {
			is.op.Arg = int64(object.TypeRegister) // a type conflict for most names
		}
	}
	if is.session != 0 {
		g.nextSeq[is.session]++
		is.seq = g.nextSeq[is.session]
		g.history = append(g.history, is)
	}
	return is
}

// stepBoth steps ops one at a time on *one — each on a fresh clone, as
// the universal construction runs StepOp — and as one run on a single
// clone of *run. Every outcome, the state's bytes and the state in
// memory must agree, and the run must not have written the state it
// cloned.
func stepBoth(t testing.TB, one, run *ShardState, window int, ops []issued) []Outcome {
	t.Helper()
	want := make([]Outcome, len(ops))
	for i, is := range ops {
		next := one.Clone()
		want[i] = StepOp(&next, window, is.session, is.seq, is.op)
		*one = next
	}
	before := stateImage(*run)
	next := run.Clone()
	r := NewRun(window)
	for i, is := range ops {
		if got := r.Step(&next, is.session, is.seq, is.op); got != want[i] {
			t.Fatalf("op %d of a run of %d (%v on %q, session %d seq %d): run %+v, one by one %+v",
				i, len(ops), is.op.Kind, is.op.Obj, is.session, is.seq, got, want[i])
		}
	}
	r.End(&next)
	if !bytes.Equal(stateImage(*run), before) {
		t.Fatalf("a run of %d wrote the committed state it cloned", len(ops))
	}
	*run = next
	if !bytes.Equal(stateImage(*run), stateImage(*one)) {
		t.Fatalf("a run of %d ended in other bytes than its ops one by one", len(ops))
	}
	if !reflect.DeepEqual(*run, *one) {
		t.Fatalf("a run of %d encodes alike but differs in memory", len(ops))
	}
	return want
}

// TestRunEqualsOneByOne: a run is only an optimisation. Random runs of
// 1 to DedupDepth+8 ops, under windows 1 to 8, answer every op as StepOp
// one at a time does and end in the same state, and the stream reaches
// every case the dedup window and the object layer distinguish.
func TestRunEqualsOneByOne(t *testing.T) {
	var seen struct {
		root, casHit, casMiss, delMiss, deqEmpty, dupInRun, dup, stale, reapplied, mixed, long int
	}
	kinds := map[OpKind]int{}
	for window := 1; window <= 8; window++ {
		rng := rand.New(rand.NewSource(int64(window)))
		g := newOpGen(rng.Intn, window)
		var one, run ShardState
		for ops := 0; ops < 3000; {
			batch := make([]issued, 1+rng.Intn(DedupDepth+8))
			for i := range batch {
				batch[i] = g.next()
			}
			ops += len(batch)
			base := run.Ver
			sessions, stretch, longest := map[uint64]bool{}, 0, 0
			for i, out := range stepBoth(t, &one, &run, window, batch) {
				is := batch[i]
				if is.session != 0 {
					sessions[is.session] = true
				}
				if stretch++; i > 0 && is.session != batch[i-1].session {
					stretch = 1
				}
				longest = max(longest, stretch)
				switch {
				case out.Stale:
					seen.stale++
				case out.Duplicate && out.Ver > base:
					seen.dupInRun++
				case out.Duplicate:
					seen.dup++
				case is.again:
					seen.reapplied++ // its session had been evicted
				}
				if !out.Applied {
					continue
				}
				kinds[is.op.Kind]++
				switch {
				case is.op.Kind == OpCreate && is.op.Obj == RootName:
					seen.root++
				case is.op.Kind == OpMapCAS && is.op.Obj == "kv" && out.OK:
					seen.casHit++
				case is.op.Kind == OpMapCAS && is.op.Obj == "kv":
					seen.casMiss++
				case is.op.Kind == OpMapDel && is.op.Obj == "kv" && !out.OK:
					seen.delMiss++
				case is.op.Kind == OpQDeq && is.op.Obj == "q" && !out.OK:
					seen.deqEmpty++
				}
			}
			if len(sessions) > 1 {
				seen.mixed++
			}
			if longest >= DedupDepth {
				seen.long++
			}
			if run.Dedup.Len() > window {
				t.Fatalf("window %d holds %d sessions", window, run.Dedup.Len())
			}
		}
	}
	for k := opKindMin; k <= opKindMax; k++ {
		if kinds[k] == 0 {
			t.Errorf("the stream never applied a %v", k)
		}
	}
	t.Logf("cases covered: %+v", seen)
	if seen.root == 0 || seen.casHit == 0 || seen.casMiss == 0 || seen.delMiss == 0 || seen.deqEmpty == 0 ||
		seen.dupInRun == 0 || seen.dup == 0 || seen.stale == 0 || seen.reapplied == 0 || seen.mixed == 0 || seen.long == 0 {
		t.Errorf("the stream missed a case it exists to cover: %+v", seen)
	}
}

// FuzzRun is TestRunEqualsOneByOne with the choices taken from the
// input: its first byte picks the window, every later byte one choice of
// the stream or of where a run ends.
func FuzzRun(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(bytes.Repeat([]byte{7, 1, 3, 0, 2, 5}, 40))
	f.Add(bytes.Repeat([]byte{3, 9, 1, 4, 1, 5, 9, 2, 6, 5}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		window := 1 + pick(8)
		g := newOpGen(pick, window)
		var one, run ShardState
		var batch []issued
		for len(data) > 0 {
			batch = append(batch, g.next())
			if pick(8) == 0 {
				stepBoth(t, &one, &run, window, batch)
				batch = batch[:0]
			}
		}
		stepBoth(t, &one, &run, window, batch)
	})
}
