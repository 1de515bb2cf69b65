package object

import "kexclusion/internal/pmap"

// Map is the string→int64 payload of a TypeMap object: a persistent
// trie (internal/pmap) behind the mutate-in-place surface the other
// payloads have. The zero value is an empty map; Clone is a value copy,
// Get walks O(log₃₂ n) nodes and Put/Delete copy that one path, so no
// cost here grows linearly with the number of keys. A clone and its
// original never see each other's later mutations.
type Map struct {
	t pmap.Map[string, int64, pmap.StringHash]
}

// Len reports the number of keys.
func (m *Map) Len() int { return m.t.Len() }

// Clone copies the map. It never writes the receiver.
func (m Map) Clone() Map { return m }

// Get reads key.
func (m *Map) Get(key string) (int64, bool) { return m.t.Get(key) }

// Put stores v under key.
func (m *Map) Put(key string, v int64) { m.t = m.t.Set(key, v) }

// Delete removes key, reporting the value it held and whether it was
// present.
func (m *Map) Delete(key string) (old int64, existed bool) {
	if old, existed = m.t.Get(key); existed {
		m.t = m.t.Delete(key)
	}
	return old, existed
}

// SortedKeys returns every key in ascending order — the deterministic
// iteration the durable codec needs.
func (m *Map) SortedKeys() []string { return m.t.SortedKeys() }
