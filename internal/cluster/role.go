package cluster

import (
	"fmt"
	"slices"

	"kexclusion/internal/durable"
)

// role is a shard's standing on this node: follower → primary ⇄ deposed.
// Serving a shard and having minted its epoch are one fact, so "served,
// never minted" cannot be represented. A deposed shard keeps the epoch it
// minted, because a quorum wait may outlive the demotion and the records
// it waits on must still ship; it re-promotes by minting anew.
type role uint8

const (
	follower role = iota // never minted here
	primary              // minted here and served
	deposed              // minted here, no longer served
)

// String names the role.
func (r role) String() string {
	if r > deposed {
		return "unknown"
	}
	return [...]string{"follower", "primary", "deposed"}[r]
}

// legalRole reports whether from → to is a lawful step of the role
// machine.
func legalRole(from, to role) bool {
	switch to {
	case primary:
		return from == follower || from == deposed
	case deposed:
		return from == primary
	}
	return false
}

// shardRole is one shard's role cell: its role and the epoch this node
// last minted for it (zero while a follower).
type shardRole struct {
	role  role
	epoch uint64
}

// step moves the cell to role to, minting epoch when to is primary, if
// the step is legal, and reports whether it was.
func (c *shardRole) step(to role, epoch uint64) bool {
	if !legalRole(c.role, to) {
		return false
	}
	if c.role = to; to == primary {
		c.epoch = epoch
	}
	return true
}

// own is servePull's origin filter (rule i): rec is this node's to ship
// if its shard is primary here, or deposed here and rec carries the epoch
// minted here. A container goes by its first member.
func own(rec durable.Record, roles []shardRole) bool {
	if len(rec.Atomic) > 0 {
		rec = rec.Atomic[0]
	}
	if int(rec.Shard) >= len(roles) {
		return false
	}
	c := roles[rec.Shard]
	return c.role == primary || c.role == deposed && c.epoch == rec.Epoch
}

// aheadOn is the catch-up's image rule (rule iii): a peer (epoch,
// version)-ahead of local state on any wanted shard holds what this node
// lacks. After a fork the acked history is at a higher epoch but maybe a
// LOWER version than a deposed primary's unacked tail.
func aheadOn(want []uint32, peerV, peerE, localV, localE []uint64) bool {
	for _, s := range want {
		if int(s) < len(peerV) && durable.Ahead(peerE[s], peerV[s], localE[s], localV[s]) {
			return true
		}
	}
	return false
}

// promotion decides a promotion once its catch-up is done: answered are
// the peers whose frontier arrived and whose image, if ahead, installed;
// alive is the failure detector's view, self included. Rule ii: with
// fewer than a quorum counting self, refuse — an acked record lives on a
// quorum, and streams carry origin records only. Rule iv: mint only the
// wanted shards self owns with every answering peer counted alive.
func promotion(self string, want []uint32, answered []string, quorum int, ring *Ring, alive func(string) bool) (mint []uint32, refusal string) {
	if len(answered)+1 < quorum {
		return nil, fmt.Sprintf("%d peers answered its catch-up, need %d", len(answered), quorum-1)
	}
	up := func(id string) bool { return alive(id) || slices.Contains(answered, id) }
	for _, s := range want {
		if ring.OwnerAmong(s, up) == self {
			mint = append(mint, s)
		}
	}
	return mint, ""
}
