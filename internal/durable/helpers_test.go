package durable

import (
	"os"
	"path/filepath"
	"testing"

	"kexclusion/internal/object"
	"kexclusion/internal/pmap"
)

// copyDir copies a data directory's files, as they read right now, into
// a fresh directory: what a crash at this instant could leave at most.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	to := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

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

// rootAdd and rootSet are the root register's two mutations: reg.add
// and reg.set on RootName.
func rootAdd(n int64) Op { return Op{Kind: OpRegAdd, Obj: RootName, Arg: n} }
func rootSet(v int64) Op { return Op{Kind: OpRegSet, Obj: RootName, Arg: v} }

// rootVal reads s's root register (0 until its first mutation).
func rootVal(s ShardState) int64 {
	if o := objOf(s, RootName); o != nil {
		return o.Reg
	}
	return 0
}

// withRoot is s with its root register bound at v.
func withRoot(s ShardState, v int64) ShardState {
	s.Objs = s.Objs.Set(RootName, &object.State{Type: object.TypeRegister, Reg: v})
	return s
}
