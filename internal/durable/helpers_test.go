package durable

import (
	"kexclusion/internal/object"
	"kexclusion/internal/pmap"
)

// dedupOf builds a dedup window from a map literal.
func dedupOf(m map[uint64]DedupEntry) (d pmap.Map[uint64, DedupEntry, pmap.Uint64Hash]) {
	for sess, e := range m {
		d = d.Set(sess, e)
	}
	return d
}

// objOf is the object s binds to name, nil if there is none.
func objOf(s ShardState, name string) *object.State {
	o, _ := s.Objs.Get(name)
	return o
}

// stateImage is the durable byte image of one shard state.
func stateImage(s ShardState) []byte {
	return EncodeState(map[uint32]ShardState{0: s})
}
