package cluster

import (
	"errors"
	"fmt"
	"testing"

	"kexclusion/internal/durable"
	"kexclusion/internal/object"
)

// TestFollow has one row per line of follow's table (DESIGN §12).
func TestFollow(t *testing.T) {
	const cover, resume = 9, 12
	refused := func(v durable.Verdict) learned {
		return learned{event: folded, lsn: resume, refused: v, failed: true}
	}
	for _, tc := range []struct {
		name string
		in   stream
		l    learned
		out  stream
		nx   next
	}{
		{"fresh opens with an image", stream{fresh, 0, 4}, learned{event: opened}, stream{fresh, 0, 4}, fetchImage},
		{"a kept position opens with a pull", stream{streaming, 7, 7}, learned{event: opened}, stream{streaming, 7, 7}, pull},
		{"a covered image moves the ack", stream{streaming, 5, 5}, learned{event: installed, lsn: cover, covered: true}, stream{resynced, cover, cover}, pull},
		{"an uncovered image keeps the ack", stream{fresh, 0, 4}, learned{event: installed, lsn: cover}, stream{resynced, cover, 4}, pull},
		{"pruned fetches an image", stream{streaming, 7, 7}, learned{event: pruned}, stream{streaming, 7, 7}, fetchImage},
		{"a folded batch streams", stream{resynced, cover, 4}, learned{event: folded, lsn: resume}, stream{streaming, resume, resume}, pull},
		{"a gap while streaming resyncs in place", stream{streaming, cover, cover}, refused(durable.Gap), stream{streaming, cover, cover}, fetchImage},
		{"a rewrite while streaming resyncs in place", stream{streaming, cover, cover}, refused(durable.Rewrite), stream{streaming, cover, cover}, fetchImage},
		{"a gap after an image hangs up", stream{resynced, cover, 4}, refused(durable.Gap), stream{fresh, 0, 4}, hangUp},
		{"a rewrite after an image hangs up", stream{resynced, cover, 4}, refused(durable.Rewrite), stream{fresh, 0, 4}, hangUp},
		{"fenced quarantines", stream{streaming, cover, cover}, refused(durable.Fenced), stream{fresh, 0, cover}, quarantine},
		{"diverged quarantines", stream{resynced, cover, 4}, refused(durable.Diverged), stream{fresh, 0, 4}, quarantine},
		{"a failed apply hangs up", stream{streaming, cover, cover}, refused(durable.Applied), stream{fresh, 0, cover}, hangUp},
		{"a broken exchange keeps the stream", stream{resynced, cover, 4}, learned{event: broke}, stream{resynced, cover, 4}, hangUp},
	} {
		if out, nx := follow(tc.in, tc.l); out != tc.out || nx != tc.nx {
			t.Errorf("%s: follow(%+v, %+v) = %+v, next %d; want %+v, next %d", tc.name, tc.in, tc.l, out, nx, tc.out, tc.nx)
		}
	}
}

var errRefused = errors.New("refused")

// foldBackend is replBackend's rule over bare shard states: a record
// meets its shard through durable.Fold, an image lands where
// durable.Ahead says, and there is no table, WAL or slot.
type foldBackend struct {
	stubBackend
	st [2]durable.ShardState
}

func (b *foldBackend) ApplyReplicated(recs []durable.Record) (uint64, durable.Verdict, error) {
	for _, r := range recs {
		st := &b.st[r.Shard]
		v := durable.Fold(st, 8, r)
		if v == durable.Covered && st.Contradicts(r) {
			v = durable.Diverged
		}
		if v != durable.Applied && v != durable.Adopted && v != durable.Covered {
			return 0, v, errRefused
		}
	}
	return 0, durable.Applied, nil
}

func (b *foldBackend) InstallState(img map[uint32]durable.ShardState) (bool, error) {
	covered := true
	for id, im := range img {
		if durable.Ahead(im.Epoch, im.Ver, b.st[id].Epoch, b.st[id].Ver) {
			b.st[id] = im
		}
		covered = covered && b.st[id].Epoch == im.Epoch
	}
	return covered, nil
}

// shard is a follower shard as the exploration keeps it: its (epoch,
// version), and whether a same-epoch fork set its root register to 1.
type shard struct {
	epoch, ver uint64
	forked     bool
}

func (h shard) state() durable.ShardState {
	st := durable.ShardState{Epoch: h.epoch, Ver: h.ver}
	if h.forked {
		st.Objs = forkedObjs
	}
	return st
}

var forkedObjs = durable.ShardState{}.Objs.Set(durable.RootName, &object.State{Type: object.TypeRegister, Reg: 1})

func shardOf(st durable.ShardState) shard {
	o, ok := st.Objs.Get(durable.RootName)
	return shard{st.Epoch, st.Ver, ok && o.Reg != 0}
}

// world is the follower explored by TestFollowKeepsAckHonest: its stream
// toward the peer, what follow called for, its two shards, the furthest
// position the peer has answered (an image covers at least that much),
// whether the image called for was called for by a gap, and whether the
// last image that landed was, with no batch folded since.
type world struct {
	s                stream
	nx               next
	sh               [2]shard
	seen             uint64
	forGap, gapImage bool
}

// peerRecord is the peer's record on shard id at (epoch, ver): an add of
// 0 to the root register, which re-executes to 0 on an honest shard and
// to 1 on a forked one.
func peerRecord(id uint32, epoch, ver uint64) durable.Record {
	return durable.Record{Shard: id, Kind: durable.OpRegAdd, Obj: durable.RootName, Ver: ver, Epoch: epoch, OK: true}
}

// TestFollowKeepsAckHonest explores follow against a peer log of up to 4
// records on 2 shards at epochs 1 and 2 (each shard's versions rise by 1
// or 2: the peer ships only the records it originated), follower shards
// on a small (epoch, version, fork) grid, and every sequence of up to 6
// exchanges: a pull answering 0–2 records, pruned or broken, an image at
// any cover the peer could have had, or a broken fetch. A hang-up or
// quarantine reopens the session. After every step the ack has not
// fallen, every peer record at or below it is at or below local state in
// (epoch, version) order, no two images fetched for gaps land without a
// folded batch between them, and Fenced and Diverged have quarantined.
func TestFollowKeepsAckHonest(t *testing.T) {
	const maxRecords, maxExchanges = 4, 6
	grid := []shard{{1, 0, false}, {1, 1, true}, {1, 2, false}, {2, 1, false}}
	var starts []world
	for _, a := range grid {
		for _, b := range grid {
			starts = append(starts, world{nx: hangUp, sh: [2]shard{a, b}})
		}
	}

	var log []durable.Record
	logs, steps := 0, 0
	var explore func()
	explore = func() {
		logs++
		if steps += exploreFollow(t, log, starts, maxExchanges); t.Failed() {
			t.Fatalf("peer log %v", log)
		}
		if len(log) == maxRecords {
			return
		}
		// Shards are symmetric in the starts and the rules: the first
		// record goes to shard 0.
		for id := uint32(0); id < min(uint32(len(log))+1, 2); id++ {
			img := peerImage(log)
			for e := img[id].Epoch; e <= 2; e++ {
				for step := uint64(1); step <= 2; step++ {
					log = append(log, peerRecord(id, e, img[id].Ver+step))
					explore()
					log = log[:len(log)-1]
				}
			}
		}
	}
	explore()
	t.Logf("%d peer logs × %d follower states: %d steps", logs, len(starts), steps)
}

// exploreFollow walks every sequence of up to depth exchanges from each
// start against the peer log, breadth first so that each world is
// expanded once, checking the invariants after each step, and returns
// the steps taken.
func exploreFollow(t *testing.T, log []durable.Record, starts []world, depth int) int {
	var images []map[uint32]durable.ShardState
	for c := range len(log) + 1 {
		images = append(images, peerImage(log[:c]))
	}
	seen := map[world]bool{}
	steps := 0
	var xs []exchange
	for ; depth >= 0 && len(starts) > 0; depth-- {
		var frontier []world
		for _, w := range starts {
			if w.nx == hangUp || w.nx == quarantine {
				w.s, w.nx = follow(w.s, learned{event: opened})
			}
			if !seen[w] && depth > 0 {
				frontier = append(frontier, w)
			}
			seen[w] = true
		}
		starts = nil
		for _, w := range frontier {
			xs = exchanges(xs[:0], log, w)
			for _, x := range xs {
				steps++
				v, l := w, x.l
				b := foldBackend{st: [2]durable.ShardState{w.sh[0].state(), w.sh[1].state()}}
				switch {
				case l.event == installed:
					l.covered, _ = b.InstallState(images[x.n])
				case l.event == folded && x.n > w.s.pos:
					_, l.refused, _ = b.ApplyReplicated(log[w.s.pos:x.n])
					l.failed = l.refused != durable.Applied
				}
				v.sh = [2]shard{shardOf(b.st[0]), shardOf(b.st[1])}
				v.seen = max(v.seen, l.lsn)
				v.s, v.nx = follow(w.s, l)
				v.forGap = l.event == folded && l.failed && v.nx == fetchImage
				switch {
				case l.event == installed:
					v.gapImage = w.forGap
				case l.event == folded && !l.failed:
					v.gapImage = false
				}
				if msg := keepsAckHonest(log, w, v, l); msg != "" {
					t.Errorf("%s: from %+v (shards %v), %+v gave %+v, next %d", msg, w.s, w.sh, l, v.s, v.nx)
					return steps
				}
				starts = append(starts, v)
			}
		}
	}
	return steps
}

// exchange is one answer the peer may give: l, with the log prefix an
// image covers or a pull ends at in n.
type exchange struct {
	l learned
	n uint64
}

// exchanges lists what the peer may answer to w.nx: a pull of up to two
// records (or none: the log had not grown yet), pruned, or an image at
// any cover from the furthest position answered to the log's end; and
// either way a broken exchange.
func exchanges(xs []exchange, log []durable.Record, w world) []exchange {
	xs = append(xs, exchange{l: learned{event: broke}})
	end := uint64(len(log))
	switch w.nx {
	case pull:
		xs = append(xs, exchange{l: learned{event: pruned}})
		for n := w.s.pos; n <= min(w.s.pos+2, end); n++ {
			xs = append(xs, exchange{learned{event: folded, lsn: n}, n})
		}
	case fetchImage:
		for c := w.seen; c <= end; c++ {
			xs = append(xs, exchange{learned{event: installed, lsn: c}, c})
		}
	}
	return xs
}

// peerImage is the peer's state image after the records of log: each
// shard at its last record, or at (1, 0) before its first.
func peerImage(log []durable.Record) map[uint32]durable.ShardState {
	img := map[uint32]durable.ShardState{0: {Epoch: 1}, 1: {Epoch: 1}}
	for _, r := range log {
		img[r.Shard] = durable.ShardState{Epoch: r.Epoch, Ver: r.Ver}
	}
	return img
}

// keepsAckHonest checks the step from w to v on what l learned, and
// says what it broke ("" when nothing).
func keepsAckHonest(log []durable.Record, w, v world, l learned) string {
	if v.s.ack < w.s.ack {
		return "the ack fell"
	}
	for _, r := range log[:min(v.s.ack, uint64(len(log)))] {
		if h := v.sh[r.Shard]; durable.Ahead(r.Epoch, r.Ver, h.epoch, h.ver) {
			return fmt.Sprintf("acked record (shard %d, epoch %d, version %d) is past local (epoch %d, version %d)", r.Shard, r.Epoch, r.Ver, h.epoch, h.ver)
		}
	}
	if v.forGap && w.gapImage {
		return "a second image for a gap with no batch folded since the first"
	}
	if (l.refused == durable.Fenced || l.refused == durable.Diverged) && v.nx != quarantine {
		return "a fenced or diverged stream did not quarantine"
	}
	return ""
}
