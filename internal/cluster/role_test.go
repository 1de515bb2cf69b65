package cluster

import (
	"fmt"
	"slices"
	"testing"

	"kexclusion/internal/durable"
)

// TestRoleTransitions walks every (from, to) pair of the role machine:
// follower → primary, deposed → primary and primary → deposed are the
// only legal steps. A legal step moves the cell, minting the given epoch
// on the way to primary and keeping the minted one on the way to
// deposed; an illegal one leaves the cell as it was.
func TestRoleTransitions(t *testing.T) {
	legal := map[[2]role]bool{{follower, primary}: true, {deposed, primary}: true, {primary, deposed}: true}
	all := []role{follower, primary, deposed}
	for _, from := range all {
		for _, to := range all {
			want := legal[[2]role{from, to}]
			if got := legalRole(from, to); got != want {
				t.Errorf("legalRole(%v, %v) = %v, want %v", from, to, got, want)
			}
			cell := shardRole{role: from}
			if from != follower {
				cell.epoch = 3
			}
			after := cell
			if want {
				after.role = to
				if to == primary {
					after.epoch = 5
				}
			}
			if got := cell.step(to, 5); got != want || cell != after {
				t.Errorf("%v.step(%v, 5) = %v leaving %+v, want %v leaving %+v", from, to, got, cell, want, after)
			}
		}
	}
	for r, name := range map[role]string{follower: "follower", primary: "primary", deposed: "deposed", role(9): "unknown"} {
		if r.String() != name {
			t.Errorf("role(%d).String() = %q, want %q", r, r.String(), name)
		}
	}
}

// TestOwn pins servePull's origin filter (rule i) without sockets: a
// record is this node's to ship if its shard is primary here, or deposed
// here and the record carries the epoch minted here; a container goes by
// its first member. Each row that one criterion alone would get wrong
// names that form, and the test checks the form really does get it
// wrong: primary-only drops a deposed primary's minted-epoch record that
// a quorum wait still needs, and epoch-only drops a primary shard's
// record at an epoch it adopted after its mint.
func TestOwn(t *testing.T) {
	type ownFn func(durable.Record, []shardRole) bool
	first := func(r durable.Record) durable.Record {
		if len(r.Atomic) > 0 {
			return r.Atomic[0]
		}
		return r
	}
	primaryOnly := func(r durable.Record, roles []shardRole) bool {
		return roles[first(r).Shard].role == primary
	}
	epochOnly := func(r durable.Record, roles []shardRole) bool {
		c := roles[first(r).Shard]
		return c.role != follower && c.epoch == first(r).Epoch
	}
	rec := func(shard uint32, epoch uint64) durable.Record {
		return durable.Record{Shard: shard, Epoch: epoch, Ver: 1}
	}
	group := func(members ...durable.Record) durable.Record { return durable.Record{Atomic: members} }
	cells := func(c0, c1 shardRole) []shardRole { return []shardRole{c0, c1} }
	none := shardRole{}
	for _, c := range []struct {
		name    string
		rec     durable.Record
		roles   []shardRole
		want    bool
		wrongBy ownFn
	}{
		{"primary, minted epoch", rec(0, 2), cells(shardRole{primary, 2}, none), true, nil},
		{"deposed, minted epoch", rec(0, 2), cells(shardRole{deposed, 2}, none), true, primaryOnly},
		{"primary, adopted after its mint", rec(0, 3), cells(shardRole{primary, 2}, none), true, epochOnly},
		{"deposed, a later epoch", rec(0, 3), cells(shardRole{deposed, 2}, none), false, nil},
		{"follower, at the zero epoch", rec(0, 0), cells(none, none), false, nil},
		{"follower", rec(0, 2), cells(none, none), false, nil},
		{"another shard's record", rec(1, 2), cells(shardRole{primary, 2}, none), false, nil},
		{"group led by a primary shard", group(rec(0, 3), rec(1, 3)), cells(shardRole{primary, 2}, none), true, epochOnly},
		{"group led by a follower shard", group(rec(1, 1), rec(0, 1)), cells(shardRole{primary, 1}, none), false, nil},
	} {
		if got := own(c.rec, c.roles); got != c.want {
			t.Errorf("%s: own = %v, want %v", c.name, got, c.want)
		}
		if c.wrongBy != nil && c.wrongBy(c.rec, c.roles) == c.want {
			t.Errorf("%s: the single-criterion form agrees with own, so the row does not tell them apart", c.name)
		}
	}
	if own(rec(7, 0), cells(none, none)) {
		t.Error("own shipped a record of a shard past the role table")
	}
}

// TestPromotion is promote's decision without sockets: rule ii (mint
// only when this node and the peers that answered its catch-up form a
// quorum), rule iii (install a peer's image when it is (epoch,
// version)-ahead on a wanted shard) and rule iv (mint only the shards
// this node owns with every answering peer counted alive).
func TestPromotion(t *testing.T) {
	ring, err := NewRing([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	all := func(string) bool { return true }
	noB := func(id string) bool { return id != "b" }
	onlyA := func(id string) bool { return id == "a" }
	var ofA, bToA, every []uint32
	for s := uint32(0); s < testShards; s++ {
		every = append(every, s)
		switch ring.OwnerAmong(s, all) {
		case "a":
			ofA = append(ofA, s)
		case "b":
			if ring.OwnerAmong(s, noB) == "a" {
				bToA = append(bToA, s)
			}
		}
	}
	if len(ofA) == 0 || len(bToA) == 0 {
		t.Fatalf("the ring gives a %v and hands it %v of b's: the table needs both non-empty", ofA, bToA)
	}
	both := append(slices.Clone(ofA), bToA...)
	for _, c := range []struct {
		name     string
		want     []uint32
		answered []string
		quorum   int
		alive    func(string) bool
		mint     []uint32
		refused  bool
	}{
		{"no answer at quorum 2, every peer alive: refused", ofA, nil, 2, all, nil, true},
		{"one answer completes quorum 2: own shards minted", ofA, []string{"b"}, 2, all, ofA, false},
		{"one answer at quorum 3: refused", ofA, []string{"b"}, 3, all, nil, true},
		{"quorum 1 needs no answer", every, nil, 1, onlyA, every, false},
		{"dead owner, the other survivor answers: its shards minted", both, []string{"c"}, 2, noB, both, false},
		{"the owner answers though the detector calls it dead: its shards kept", both, []string{"b"}, 2, noB, ofA, false},
		{"both peers answer, neither heard from: only own shards", every, []string{"b", "c"}, 2, onlyA, ofA, false},
	} {
		mint, refusal := promotion("a", c.want, c.answered, c.quorum, ring, c.alive)
		if !slices.Equal(mint, c.mint) || (refusal != "") != c.refused {
			t.Errorf("%s: mint %v, refusal %q; want mint %v, refused %v", c.name, mint, refusal, c.mint, c.refused)
		}
	}

	for _, c := range []struct {
		name         string
		peerV, peerE []uint64
		want         []uint32
		ahead        bool
	}{
		{"same epoch, higher version", []uint64{5, 0}, []uint64{1, 0}, []uint32{0}, true},
		{"higher epoch, lower version: the acked side of a fork", []uint64{3, 0}, []uint64{2, 0}, []uint32{0}, true},
		{"lower epoch, higher version: a deposed primary's tail", []uint64{9, 0}, []uint64{0, 0}, []uint32{0}, false},
		{"level", []uint64{4, 0}, []uint64{1, 0}, []uint32{0}, false},
		{"ahead only on a shard not wanted", []uint64{4, 9}, []uint64{1, 1}, []uint32{0}, false},
		{"ahead on the second wanted shard", []uint64{4, 9}, []uint64{1, 1}, []uint32{0, 1}, true},
		{"frontier shorter than a wanted shard", []uint64{4}, []uint64{1}, []uint32{1}, false},
	} {
		localV, localE := []uint64{4, 2}, []uint64{1, 1}
		if got := aheadOn(c.want, c.peerV, c.peerE, localV, localE); got != c.ahead {
			t.Errorf("%s: aheadOn = %v, want %v", c.name, got, c.ahead)
		}
	}
}

// TestPromotionKeepsAckedWrites explores, without sockets or a clock,
// every failover of one shard in a three-member cluster at quorum 2
// whose primary dies after logging up to three records at epoch 1. It
// enumerates how far each follower got down the primary's stream, how
// many records were quorum-acked (any prefix a quorum holds), which
// follower promotes, whether it still hears the other, and which peers
// answer its catch-up. The catch-up installs each answering peer's image
// that aheadOn picks, in peer order, as catchUpFromPeers does; then
// promotion decides. Whenever it mints, the answers and the promoter
// form a quorum, and every quorum-acked (epoch, version) is at or below
// the promoter's frontier.
func TestPromotionKeepsAckedWrites(t *testing.T) {
	const quorum, epoch = 2, 1
	ids := []string{"a", "b", "c"}
	ring, err := NewRing(ids)
	if err != nil {
		t.Fatal(err)
	}
	dead := ring.Owner(0)
	followers := slices.DeleteFunc(slices.Clone(ids), func(id string) bool { return id == dead })
	at := func(held int) (v, e uint64) {
		if held == 0 {
			return 0, 0
		}
		return uint64(held), epoch
	}
	var mints, refusals int
	for logged := 0; logged <= 3; logged++ {
		for h0 := 0; h0 <= logged; h0++ {
			for h1 := 0; h1 <= logged; h1++ {
				held := map[string]int{dead: logged, followers[0]: h0, followers[1]: h1}
				ackable := 0
				for v := 1; v <= logged; v++ {
					if n := 1 + btoi(h0 >= v) + btoi(h1 >= v); n >= quorum {
						ackable = v
					}
				}
				for acked := 0; acked <= ackable; acked++ {
					for i, self := range followers {
						other := followers[1-i]
						for _, otherAlive := range []bool{false, true} {
							for answers := 0; answers < 4; answers++ {
								answering := map[string]bool{dead: answers&1 != 0, other: answers&2 != 0}
								localV, localE := at(held[self])
								var answered []string
								for _, p := range ids {
									if p == self || !answering[p] {
										continue
									}
									if v, e := at(held[p]); aheadOn([]uint32{0}, []uint64{v}, []uint64{e}, []uint64{localV}, []uint64{localE}) {
										localV, localE = v, e
									}
									answered = append(answered, p)
								}
								alive := func(id string) bool { return id == self || id == other && otherAlive }
								mint, refusal := promotion(self, []uint32{0}, answered, quorum, ring, alive)
								where := fmt.Sprintf("logged %d, held %v, acked %d, %s promotes (hears %s: %v), answered %v",
									logged, held, acked, self, other, otherAlive, answered)
								if refusal != "" {
									refusals++
									continue
								}
								if len(mint) == 0 {
									continue
								}
								mints++
								if len(answered)+1 < quorum {
									t.Errorf("%s: minted with %d answers at quorum %d", where, len(answered), quorum)
								}
								for v := 1; v <= acked; v++ {
									if durable.Ahead(epoch, uint64(v), localE, localV) {
										t.Errorf("%s: acked (%d, %d) is past the successor's frontier (%d, %d)", where, epoch, v, localE, localV)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if mints == 0 || refusals == 0 {
		t.Fatalf("%d mints and %d refusals: the exploration must reach both", mints, refusals)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
