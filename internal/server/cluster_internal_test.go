package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"kexclusion/internal/cluster"
	"kexclusion/internal/durable"
	"kexclusion/internal/object"
)

// soloClusterServer builds a cluster-enabled server whose membership is
// just itself (quorum 1, loops never started) — the minimal harness for
// exercising the replication backend directly.
func soloClusterServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{
		N:       2,
		K:       1,
		Shards:  2,
		DataDir: filepath.Join(t.TempDir(), "solo"),
		Cluster: &ClusterConfig{
			NodeID: "solo",
			Peers: []cluster.Peer{
				{ID: "solo", ClientAddr: "127.0.0.1:1", ReplAddr: "127.0.0.1:0"},
			},
			Quorum: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.node.Stop()
		s.closeLog()
	})
	return s
}

// originRecords fabricates a primary's history for one shard: the same
// Step the origin would run, so Val/Ver cross-check on the follower.
func originRecords(shard uint32, session uint64, seqs []uint64, args []int64) []durable.Record {
	var st durable.ShardState
	recs := make([]durable.Record, 0, len(seqs))
	for i, seq := range seqs {
		out := durable.StepOp(&st, 1024, session, seq, rootAdd(args[i]))
		recs = append(recs, durable.Record{
			Session: session, Seq: seq, Shard: shard,
			Kind: durable.OpRegAdd, Arg: args[i], Val: out.Val, Ver: out.Ver,
			OK: out.OK,
		})
	}
	return recs
}

// TestReplayIdempotentAcrossBatchRestart is the follower-crash-mid-batch
// scenario: a batch is partially applied, the follower dies before
// acking, and on reconnect the whole batch is delivered again. The
// replay must skip the already-applied prefix and land the rest exactly
// once.
func TestReplayIdempotentAcrossBatchRestart(t *testing.T) {
	s := soloClusterServer(t)
	b := &replBackend{s: s}

	const session = 77
	recs := originRecords(0, session, []uint64{1, 2, 3, 4, 5, 6}, []int64{1, 2, 3, 4, 5, 6})

	// First delivery: only a prefix lands before the "crash".
	if _, _, err := b.ApplyReplicated(recs[:4]); err != nil {
		t.Fatalf("applying prefix: %v", err)
	}
	if st := s.tab.shards[0].obj.Peek(); st.Ver != 4 || rootVal(st) != 1+2+3+4 {
		t.Fatalf("after prefix: Ver=%d Val=%d", st.Ver, rootVal(st))
	}

	// Redelivery of the full batch (what the pull loop does after a
	// restart resumes below its previous position): the first four must
	// be recognized, the last two applied.
	lsn, _, err := b.ApplyReplicated(recs)
	if err != nil {
		t.Fatalf("replaying full batch: %v", err)
	}
	if lsn == 0 {
		t.Fatal("replay with fresh records produced no local LSN")
	}
	st := s.tab.shards[0].obj.Peek()
	if st.Ver != 6 || rootVal(st) != 1+2+3+4+5+6 {
		t.Fatalf("after replay: Ver=%d Val=%d (double-applied records?)", st.Ver, rootVal(st))
	}

	// A third, fully redundant delivery moves nothing and appends nothing.
	lsn, _, err = b.ApplyReplicated(recs)
	if err != nil {
		t.Fatalf("redundant replay: %v", err)
	}
	if lsn != 0 {
		t.Fatalf("fully redundant batch claimed new LSN %d", lsn)
	}
	if st := s.tab.shards[0].obj.Peek(); st.Ver != 6 || rootVal(st) != 21 {
		t.Fatalf("after redundant replay: Ver=%d Val=%d", st.Ver, rootVal(st))
	}

	// The dedup window replicated too: the origin's client retrying
	// against this node (post-promotion) is answered from history.
	out := durable.StepOp(ptr(s.tab.shards[0].obj.Peek()), 1024, session, 6, rootAdd(6))
	if !out.Duplicate || out.Val != 21 {
		t.Fatalf("replicated dedup window missed the origin's op: %+v", out)
	}
}

func ptr(s durable.ShardState) *durable.ShardState { return &s }

// rootAdd is the root register's add: reg.add on durable.RootName.
func rootAdd(n int64) durable.Op {
	return durable.Op{Kind: durable.OpRegAdd, Obj: durable.RootName, Arg: n}
}

// rootVal reads st's root register (0 until its first mutation).
func rootVal(st durable.ShardState) int64 {
	if o, ok := st.Objs.Get(durable.RootName); ok {
		return o.Reg
	}
	return 0
}

// withRoot is st with its root register bound at v.
func withRoot(st durable.ShardState, v int64) durable.ShardState {
	st.Objs = st.Objs.Set(durable.RootName, &object.State{Type: object.TypeRegister, Reg: v})
	return st
}

func TestReplayRejectsGapsAndDivergence(t *testing.T) {
	s := soloClusterServer(t)
	b := &replBackend{s: s}

	recs := originRecords(1, 9, []uint64{1, 2, 3}, []int64{10, 10, 10})
	if _, _, err := b.ApplyReplicated(recs[:1]); err != nil {
		t.Fatal(err)
	}

	// A record beyond the next version is a gap: the stream cannot
	// bridge it and the caller must fall back to a state image.
	if _, refused, err := b.ApplyReplicated(recs[2:]); refused != durable.Gap || err == nil {
		t.Fatalf("version gap: verdict %d, err %v; want Gap", refused, err)
	}

	// A record whose claimed result disagrees with local re-execution
	// is divergence, not data.
	bad := recs[1]
	bad.Val = 999
	if _, refused, err := b.ApplyReplicated([]durable.Record{bad}); refused != durable.Diverged || err == nil {
		t.Fatalf("diverged record: verdict %d, err %v; want Diverged", refused, err)
	}

	// Shard out of table range.
	oob := recs[1]
	oob.Shard = 99
	if _, _, err := b.ApplyReplicated([]durable.Record{oob}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}

	// The failures above must not have corrupted the good prefix.
	if st := s.tab.shards[1].obj.Peek(); st.Ver != 1 || rootVal(st) != 10 {
		t.Fatalf("state moved on rejected records: Ver=%d Val=%d", st.Ver, rootVal(st))
	}
}

// TestInstallStateOnlyMovesForward pins the catch-up rule: a state
// image replaces a shard only when strictly newer, and the WAL
// sequencer jumps past the image so the next replicated record appends
// without waiting for versions the image already covers.
func TestInstallStateOnlyMovesForward(t *testing.T) {
	s := soloClusterServer(t)
	b := &replBackend{s: s}

	recs := originRecords(0, 5, []uint64{1, 2, 3, 4, 5}, []int64{1, 1, 1, 1, 1})
	if _, _, err := b.ApplyReplicated(recs[:3]); err != nil {
		t.Fatal(err)
	}

	// Stale image (older than local): must not regress.
	if _, err := b.InstallState(map[uint32]durable.ShardState{0: withRoot(durable.ShardState{Ver: 2}, 2)}); err != nil {
		t.Fatal(err)
	}
	if st := s.tab.shards[0].obj.Peek(); st.Ver != 3 || rootVal(st) != 3 {
		t.Fatalf("stale image regressed state: Ver=%d Val=%d", st.Ver, rootVal(st))
	}

	// Fresh image from a peer at version 4: installs, and record 5 then
	// applies on top — proving the sequencer reset to 4 (without it the
	// append of version 5 would wait forever for version 4's local
	// append, which the image made moot).
	img := map[uint32]durable.ShardState{0: withRoot(durable.ShardState{Ver: 4}, 4)}
	if covered, err := b.InstallState(img); err != nil || !covered {
		t.Fatalf("installing fresh image: covered=%v err=%v", covered, err)
	}
	if st := s.tab.shards[0].obj.Peek(); st.Ver != 4 || rootVal(st) != 4 {
		t.Fatalf("fresh image not installed: Ver=%d Val=%d", st.Ver, rootVal(st))
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := b.ApplyReplicated(recs[4:])
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("applying past an installed image: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append after InstallState wedged: sequencer did not reset past the image")
	}
	if st := s.tab.shards[0].obj.Peek(); st.Ver != 5 || rootVal(st) != 5 {
		t.Fatalf("record after image: Ver=%d Val=%d", st.Ver, rootVal(st))
	}

	// Out-of-range shard in an image is rejected whole.
	if _, err := b.InstallState(map[uint32]durable.ShardState{9: {Ver: 1}}); err == nil {
		t.Fatal("image with out-of-range shard accepted")
	}
}

// TestForkReconcileEpochDominance is the forked-history fix head on: a
// deposed primary inflated its version counter with never-acked writes,
// and the promoted peer's image — higher epoch, LOWER version — must
// still replace the fork, retreat the WAL sequencer onto the new line,
// and accept the new epoch's next record. Version-only comparison (the
// reviewed bug) would keep the fork on both counts.
func TestForkReconcileEpochDominance(t *testing.T) {
	s := soloClusterServer(t)
	b := &replBackend{s: s}

	// The fork: ten epoch-0 writes that were never quorum-acked.
	fork := originRecords(0, 31, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		[]int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	if _, _, err := b.ApplyReplicated(fork); err != nil {
		t.Fatal(err)
	}

	// The acknowledged history: epoch 1 at version 5 only.
	img := map[uint32]durable.ShardState{0: withRoot(durable.ShardState{Epoch: 1, Ver: 5}, 500)}
	covered, err := b.InstallState(img)
	if err != nil || !covered {
		t.Fatalf("installing higher-epoch image: covered=%v err=%v", covered, err)
	}
	if st := s.tab.shards[0].obj.Peek(); st.Epoch != 1 || st.Ver != 5 || rootVal(st) != 500 {
		t.Fatalf("inflated fork survived a higher-epoch image: %+v", st)
	}

	// The sequencer retreated with the install: version 6 of epoch 1
	// appends without waiting for the fork's versions 6..10.
	next := durable.Record{Session: 32, Seq: 1, Shard: 0,
		Kind: durable.OpRegAdd, Arg: 1, Val: 501, Ver: 6, Epoch: 1, OK: true}
	done := make(chan error, 1)
	go func() {
		lsn, _, err := b.ApplyReplicated([]durable.Record{next})
		if err == nil && lsn == 0 {
			err = errors.New("record on the installed line appended nothing")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("applying on the installed line: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append wedged: sequencer did not retreat past the fenced fork")
	}
	if st := s.tab.shards[0].obj.Peek(); st.Epoch != 1 || st.Ver != 6 || rootVal(st) != 501 {
		t.Fatalf("after post-install record: %+v", st)
	}

	// Equal versions, different epochs: the epoch decides, not arrival
	// order or version arithmetic.
	covered, err = b.InstallState(map[uint32]durable.ShardState{0: withRoot(durable.ShardState{Epoch: 2, Ver: 6}, 999)})
	if err != nil || !covered {
		t.Fatalf("equal-version higher-epoch image: covered=%v err=%v", covered, err)
	}
	if st := s.tab.shards[0].obj.Peek(); st.Epoch != 2 || st.Ver != 6 || rootVal(st) != 999 {
		t.Fatalf("equal-version fork kept over higher epoch: %+v", st)
	}
}

// TestStaleEpochRefused pins the fence itself: once a shard's epoch
// moves (a local promotion), a deposed primary's records and state
// images from the old epoch are refused — records with Fenced
// (quarantining the stream), images by installing nothing and reporting
// covered=false (freezing the follower's acks).
func TestStaleEpochRefused(t *testing.T) {
	s := soloClusterServer(t)
	b := &replBackend{s: s}

	recs := originRecords(0, 41, []uint64{1}, []int64{5})
	if _, _, err := b.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	if err := b.BumpEpochs([]uint32{0}); err != nil {
		t.Fatalf("bump: %v", err)
	}
	if st := s.tab.shards[0].obj.Peek(); st.Epoch != 1 || st.Ver != 1 || rootVal(st) != 5 {
		t.Fatalf("after bump: %+v", st)
	}

	fork := durable.Record{Session: 41, Seq: 2, Shard: 0,
		Kind: durable.OpRegAdd, Arg: 9, Val: 14, Ver: 2, OK: true, Epoch: 0}
	if _, refused, err := b.ApplyReplicated([]durable.Record{fork}); refused != durable.Fenced || err == nil {
		t.Fatalf("stale-epoch record: verdict %d, err %v; want Fenced", refused, err)
	}
	covered, err := b.InstallState(map[uint32]durable.ShardState{0: withRoot(durable.ShardState{Epoch: 0, Ver: 50}, 999)})
	if err != nil {
		t.Fatalf("stale image: %v", err)
	}
	if covered {
		t.Fatal("stale-epoch image reported covered: its sender's acks would count toward quorum")
	}
	if st := s.tab.shards[0].obj.Peek(); st.Epoch != 1 || st.Ver != 1 || rootVal(st) != 5 {
		t.Fatalf("stale delivery moved state: %+v", st)
	}
}

// TestApplyReplicatedAdoptsPromotionEpoch: a record that continues the
// version line at a higher epoch is a promotion observed through the
// stream. It must apply, carry its epoch into local state, and be
// fenced by a snapshot rather than appended (LSN 0); the epoch's next
// record then appends normally.
func TestApplyReplicatedAdoptsPromotionEpoch(t *testing.T) {
	s := soloClusterServer(t)
	b := &replBackend{s: s}

	recs := originRecords(1, 51, []uint64{1, 2}, []int64{3, 4})
	if _, _, err := b.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}

	adopt := durable.Record{Session: 51, Seq: 3, Shard: 1,
		Kind: durable.OpRegAdd, Arg: 5, Val: 12, Ver: 3, Epoch: 1, OK: true}
	lsn, _, err := b.ApplyReplicated([]durable.Record{adopt})
	if err != nil {
		t.Fatalf("epoch-crossing record: %v", err)
	}
	if lsn != 0 {
		t.Fatalf("epoch-crossing record appended (LSN %d); must be snapshot-fenced", lsn)
	}
	if st := s.tab.shards[1].obj.Peek(); st.Epoch != 1 || st.Ver != 3 || rootVal(st) != 12 {
		t.Fatalf("after adopt: %+v", st)
	}

	next := durable.Record{Session: 51, Seq: 4, Shard: 1,
		Kind: durable.OpRegAdd, Arg: 1, Val: 13, Ver: 4, Epoch: 1, OK: true}
	lsn, _, err = b.ApplyReplicated([]durable.Record{next})
	if err != nil || lsn == 0 {
		t.Fatalf("record after adopt: lsn=%d err=%v (sequencer not on the new epoch?)", lsn, err)
	}
	if st := s.tab.shards[1].obj.Peek(); st.Epoch != 1 || st.Ver != 4 || rootVal(st) != 13 {
		t.Fatalf("after post-adopt record: %+v", st)
	}
}

// TestReplSkipCrossChecksDedup: within one epoch, a redelivered record
// the dedup window still remembers must match local history exactly; a
// value mismatch or a never-seen op ID inside claimed versions is a
// same-epoch fork (Diverged), while honest redelivery skips.
func TestReplSkipCrossChecksDedup(t *testing.T) {
	s := soloClusterServer(t)
	b := &replBackend{s: s}

	recs := originRecords(0, 61, []uint64{1, 2}, []int64{1, 2})
	if _, _, err := b.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}

	bad := recs[1]
	bad.Val = 777
	if _, refused, err := b.ApplyReplicated([]durable.Record{bad}); refused != durable.Diverged || err == nil {
		t.Fatalf("altered redelivery: verdict %d, err %v; want Diverged", refused, err)
	}
	// An op the window has never seen, claiming an already-covered
	// version: local history cannot contain it.
	phantom := durable.Record{Session: 61, Seq: 9, Shard: 0,
		Kind: durable.OpRegAdd, Arg: 1, Val: 2, Ver: 2, OK: true, Epoch: 0}
	if _, refused, err := b.ApplyReplicated([]durable.Record{phantom}); refused != durable.Diverged || err == nil {
		t.Fatalf("phantom op in covered versions: verdict %d, err %v; want Diverged", refused, err)
	}
	lsn, _, err := b.ApplyReplicated(recs)
	if err != nil || lsn != 0 {
		t.Fatalf("honest redelivery: lsn=%d err=%v", lsn, err)
	}
	if st := s.tab.shards[0].obj.Peek(); st.Ver != 2 || rootVal(st) != 3 {
		t.Fatalf("state moved on rejected redelivery: %+v", st)
	}
}

// TestAppendSequencerInstallAbortsWaiters is the sequencer-wedge fix in
// isolation: a waiter parked on a version that an install retreats past
// (or whose epoch an install supersedes) must return false promptly,
// not block forever.
func TestAppendSequencerInstallAbortsWaiters(t *testing.T) {
	g := newAppendSequencer(durable.ShardState{Ver: 2}) // next append: (3, epoch 0)

	await := func(what string, ch <-chan bool, want bool) {
		t.Helper()
		select {
		case got := <-ch:
			if got != want {
				t.Fatalf("%s returned %v, want %v", what, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s wedged after install", what)
		}
	}

	// The reviewed wedge: waitTurn(5) parked, install supersedes the
	// epoch at a LOWER version. Pre-fix this waiter never woke.
	turn := make(chan bool, 1)
	go func() { turn <- g.waitTurn(5, 0) }()
	g.install(4, 1)
	await("old-epoch waitTurn", turn, false)

	// The installed line is immediately appendable where it resumed.
	if !g.waitTurn(5, 1) {
		t.Fatal("next version of the installed line refused")
	}
	g.install(5, 1)

	// Same-epoch supersede: an install covering the waiter's version.
	go func() { turn <- g.waitTurn(7, 1) }()
	g.install(8, 1)
	await("covered-version waitTurn", turn, false)

	// waitAppended must abort too: the record it vouches for may have
	// been fenced off with its epoch.
	appended := make(chan bool, 1)
	go func() { appended <- g.waitAppended(20, 1) }()
	g.install(1, 2)
	await("superseded waitAppended", appended, false)

	// Late arrivals from a dead epoch fail synchronously.
	if g.waitTurn(2, 1) {
		t.Fatal("waitTurn admitted an append from a superseded epoch")
	}
	if g.waitAppended(1, 1) {
		t.Fatal("waitAppended vouched for a superseded epoch")
	}
}

// replGen fabricates what a primary's log would ship a follower: it
// keeps each shard where the follower will be once the records so far
// land, and the records of the current epoch it holds.
type replGen struct {
	rng  *rand.Rand
	st   [2]durable.ShardState
	held [2][]durable.Record
	seq  map[uint64]uint64
}

// next is shard's next record on the given state, at its epoch.
func (g *replGen) next(st *durable.ShardState, shard uint32) durable.Record {
	sess := []uint64{0, 11, 12, 13}[g.rng.Intn(4)]
	var seq uint64
	if sess != 0 {
		g.seq[sess]++
		seq = g.seq[sess]
	}
	op := rootAdd(int64(1 + g.rng.Intn(9)))
	out := durable.StepOp(st, 1024, sess, seq, op)
	return durable.Record{Session: sess, Seq: seq, Shard: shard, Kind: op.Kind, Obj: op.Obj, Arg: op.Arg,
		Val: out.Val, OK: out.OK, Ver: out.Ver, Epoch: out.Epoch}
}

// applied is shard's next record; the follower applies it.
func (g *replGen) applied(shard uint32) durable.Record {
	r := g.next(&g.st[shard], shard)
	g.held[shard] = append(g.held[shard], r)
	return r
}

// covered re-delivers a record the follower already holds.
func (g *replGen) covered(shard uint32) durable.Record {
	return g.held[shard][g.rng.Intn(len(g.held[shard]))]
}

// refused is a record of shard that meets it with verdict v; only an
// Adopted one moves the follower.
func (g *replGen) refused(shard uint32, v durable.Verdict) durable.Record {
	scratch := g.st[shard]
	switch v {
	case durable.Gap:
		g.next(&scratch, shard)
		return g.next(&scratch, shard)
	case durable.Adopted:
		g.st[shard].Epoch++
		r := g.next(&g.st[shard], shard)
		g.held[shard] = []durable.Record{r}
		return r
	}
	r := g.next(&scratch, shard)
	switch v {
	case durable.Rewrite:
		r.Epoch, r.Ver = r.Epoch+1, r.Ver-1
	case durable.Fenced:
		r.Epoch--
	case durable.Diverged:
		r.Val++
	}
	return r
}

// sync moves the generator to where the follower stands.
func (g *replGen) sync(s *Server) {
	for shard := range g.st {
		g.st[shard] = s.tab.shards[shard].obj.Peek()
		g.held[shard] = slices.DeleteFunc(g.held[shard], func(r durable.Record) bool {
			return r.Epoch != g.st[shard].Epoch || r.Ver > g.st[shard].Ver
		})
	}
}

// walBytes is every WAL segment of s, written out, end to end.
func walBytes(t *testing.T, s *Server) []byte {
	t.Helper()
	if err := s.log.WaitDurable(s.log.End()); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(s.cfg.DataDir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

// TestApplyReplicatedRunEqualsOneByOne: a batch folded a stretch at a
// time lands exactly what the same records land one ApplyReplicated
// call each — the same (lsn, refused), every shard's state and every WAL
// byte. Each batch mixes applied and re-delivered (Covered) records of
// two shards, a Covered one also inside a stretch after applied ones,
// and puts one Gap, Rewrite, Fenced, Diverged or Adopted record first,
// in the middle or last.
func TestApplyReplicatedRunEqualsOneByOne(t *testing.T) {
	run, ref := soloClusterServer(t), soloClusterServer(t)
	for _, s := range []*Server{run, ref} {
		if err := (&replBackend{s: s}).BumpEpochs([]uint32{0, 1}); err != nil { // epoch 1: a Fenced record exists
			t.Fatal(err)
		}
	}
	g := &replGen{rng: rand.New(rand.NewSource(1)), seq: map[uint64]uint64{}}
	g.sync(ref)
	seed := []durable.Record{g.applied(0), g.applied(0), g.applied(1), g.applied(1)}
	for _, s := range []*Server{run, ref} {
		if _, _, err := (&replBackend{s: s}).ApplyReplicated(seed); err != nil {
			t.Fatal(err)
		}
	}

	for round := 0; round < 3; round++ {
		for _, v := range []durable.Verdict{durable.Gap, durable.Rewrite, durable.Fenced, durable.Diverged, durable.Adopted} {
			for _, at := range []string{"first", "middle", "last"} {
				g.sync(ref)
				var batch []durable.Record
				add := func(r durable.Record) { batch = append(batch, r) }
				special := func(where string) {
					if at == where {
						add(g.refused(0, v))
					}
				}
				special("first")
				add(g.covered(0))
				add(g.applied(0))
				add(g.applied(0))
				add(g.covered(0)) // inside the stretch, after applied records
				add(g.applied(0))
				special("middle")
				add(g.applied(1))
				add(g.covered(1))
				add(g.applied(1))
				add(g.applied(0))
				special("last")

				gotLsn, gotV, gotErr := (&replBackend{s: run}).ApplyReplicated(batch)
				var wantLsn uint64
				wantV, wantErr := durable.Applied, error(nil)
				for _, r := range batch {
					lsn, v, err := (&replBackend{s: ref}).ApplyReplicated([]durable.Record{r})
					wantLsn = max(wantLsn, lsn)
					if err != nil {
						wantV, wantErr = v, err
						break
					}
				}
				name := fmt.Sprintf("round %d, verdict %d %s", round, v, at)
				if gotLsn != wantLsn || gotV != wantV || (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: (lsn %d, refused %d, err %v), one by one (lsn %d, refused %d, err %v)",
						name, gotLsn, gotV, gotErr, wantLsn, wantV, wantErr)
				}
				if v != durable.Adopted && gotV != v {
					t.Fatalf("%s: batch refused with %d", name, gotV)
				}
				if !bytes.Equal(durable.EncodeState(run.tab.peekAll()), durable.EncodeState(ref.tab.peekAll())) {
					t.Fatalf("%s: shard states differ from one by one", name)
				}
				for i := range run.tab.shards {
					a, b := run.tab.shards[i].seq, ref.tab.shards[i].seq
					if a.next != b.next || a.epoch != b.epoch {
						t.Fatalf("%s: shard %d sequencer at (epoch %d, next %d), one by one (epoch %d, next %d)",
							name, i, a.epoch, a.next, b.epoch, b.next)
					}
				}
				if !bytes.Equal(walBytes(t, run), walBytes(t, ref)) {
					t.Fatalf("%s: WAL bytes differ from one by one", name)
				}
			}
		}
	}
}
