// Package pmap is the one persistent map of the wait-free core: a
// path-copying hash array mapped trie. A Map is a value — copying it is
// the O(1) clone resilient.Shared needs before every speculative
// execution — and Set/Delete return a new Map that shares every node
// off the changed key's root-to-leaf path with the old one. Nodes are
// never written after they are built, so any number of goroutines may
// read, copy and derive from one Map concurrently.
//
// Shape is a pure function of the key set: hashing is unseeded, Delete
// folds a subtree that is down to one entry back into its parent, and
// entries whose 64 hash bits all agree sit in key order. Equal key
// sets therefore iterate identically on every run and every node,
// whatever order they were built in.
//
// The package is a leaf: it imports nothing from this module.
package pmap

import (
	"cmp"
	"math/bits"
	"slices"
)

const (
	levelBits = 5 // 32-way fan-out
	levelMask = 1<<levelBits - 1
	hashBits  = 64 // at shift >= hashBits a node is a collision list
)

// Hasher maps a key to its 64 trie-path bits. It must be a pure
// function of the key (no seed, no state), or shape stops being
// deterministic. Implementations are zero-size types, so the zero Map
// is ready to use.
type Hasher[K any] interface {
	Hash(K) uint64
}

// Uint64Hash hashes integer keys with a splitmix64-style finaliser:
// sequential session identities spread over all 64 bits.
type Uint64Hash struct{}

// Hash implements Hasher.
func (Uint64Hash) Hash(x uint64) uint64 { return mix(x) }

// StringHash hashes string keys with FNV-1a followed by the same
// finaliser (FNV alone leaves the high bits of short keys weak, and
// the trie consumes bits from the low end upward).
type StringHash struct{}

// Hash implements Hasher.
func (StringHash) Hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix(h)
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Map is a persistent K→V map. The zero value is empty.
type Map[K cmp.Ordered, V any, H Hasher[K]] struct {
	root *node[K, V] // nil iff n == 0
	n    int
}

type entry[K cmp.Ordered, V any] struct {
	key K
	val V
}

// node is one immutable trie node. Slot i of a bitmap node (i = the
// five hash bits at this depth) is empty, holds an entry inline
// (datamap bit i; entries are in slot order) or holds a child (nodemap
// bit i; kids are in slot order). Below the last hash bit both bitmaps
// are zero and entries is every key of one full hash, in key order.
// Except at the root, a node never holds a lone entry and no child:
// that entry lives inline in the parent instead.
type node[K cmp.Ordered, V any] struct {
	datamap uint32
	nodemap uint32
	entries []entry[K, V]
	kids    []*node[K, V]
}

// Len reports the number of keys.
func (m Map[K, V, H]) Len() int { return m.n }

// Get reads k.
func (m Map[K, V, H]) Get(k K) (v V, ok bool) {
	var h H
	hash := h.Hash(k)
	n := m.root
	for shift := uint(0); n != nil && shift < hashBits; shift += levelBits {
		bit := uint32(1) << (hash >> shift & levelMask)
		if n.datamap&bit != 0 {
			if e := &n.entries[index(n.datamap, bit)]; e.key == k {
				return e.val, true
			}
			return v, false
		}
		if n.nodemap&bit == 0 {
			return v, false
		}
		n = n.kids[index(n.nodemap, bit)]
	}
	if n != nil {
		if i, found := n.find(k); found {
			return n.entries[i].val, true
		}
	}
	return v, false
}

// Set returns a map in which k holds v; the receiver is unchanged.
func (m Map[K, V, H]) Set(k K, v V) Map[K, V, H] {
	root := m.root
	if root == nil {
		root = new(node[K, V])
	}
	var h H
	root, added := set[K, V, H](root, h.Hash(k), 0, entry[K, V]{k, v})
	if added {
		m.n++
	}
	m.root = root
	return m
}

// Delete returns a map without k; the receiver is unchanged. Deleting
// an absent key returns the receiver itself.
func (m Map[K, V, H]) Delete(k K) Map[K, V, H] {
	if m.root == nil {
		return m
	}
	var h H
	root, removed := del(m.root, h.Hash(k), 0, k)
	if !removed {
		return m
	}
	m.n--
	if m.n == 0 {
		root = nil
	}
	m.root = root
	return m
}

// Each calls f for every entry, in an order fixed by the key set alone.
func (m Map[K, V, H]) Each(f func(K, V)) {
	if m.root != nil {
		m.root.each(f)
	}
}

// SortedKeys returns every key in ascending order — the iteration the
// byte codecs need.
func (m Map[K, V, H]) SortedKeys() []K {
	keys := make([]K, 0, m.n)
	m.Each(func(k K, _ V) { keys = append(keys, k) })
	slices.Sort(keys)
	return keys
}

func (n *node[K, V]) each(f func(K, V)) {
	for i := range n.entries {
		f(n.entries[i].key, n.entries[i].val)
	}
	for _, c := range n.kids {
		c.each(f)
	}
}

// find locates k in a collision list: its index if present, else the
// index that keeps the list in key order.
func (n *node[K, V]) find(k K) (int, bool) {
	return slices.BinarySearchFunc(n.entries, k, func(e entry[K, V], k K) int {
		return cmp.Compare(e.key, k)
	})
}

// index is the position, within a slot-ordered slice, of the slot bit
// names: the number of occupied slots below it.
func index(bitmap, bit uint32) int { return bits.OnesCount32(bitmap & (bit - 1)) }

func set[K cmp.Ordered, V any, H Hasher[K]](n *node[K, V], hash uint64, shift uint, e entry[K, V]) (*node[K, V], bool) {
	if shift >= hashBits {
		i, found := n.find(e.key)
		if found {
			return &node[K, V]{entries: replaceAt(n.entries, i, e)}, false
		}
		return &node[K, V]{entries: insertAt(n.entries, i, e)}, true
	}
	bit := uint32(1) << (hash >> shift & levelMask)
	c := *n
	switch {
	case n.datamap&bit != 0:
		i := index(n.datamap, bit)
		old := n.entries[i]
		if old.key == e.key {
			c.entries = replaceAt(n.entries, i, e)
			return &c, false
		}
		// Two keys now share this slot: both move one level down.
		var h H
		child := pair(h.Hash(old.key), old, hash, e, shift+levelBits)
		c.datamap &^= bit
		c.nodemap |= bit
		c.entries = removeAt(n.entries, i)
		c.kids = insertAt(n.kids, index(n.nodemap, bit), child)
		return &c, true
	case n.nodemap&bit != 0:
		i := index(n.nodemap, bit)
		child, added := set[K, V, H](n.kids[i], hash, shift+levelBits, e)
		c.kids = replaceAt(n.kids, i, child)
		return &c, added
	}
	c.datamap |= bit
	c.entries = insertAt(n.entries, index(n.datamap, bit), e)
	return &c, true
}

// pair builds the subtree holding exactly two distinct keys, from
// depth shift down to the level where their hashes part (or the
// collision list, if they never do).
func pair[K cmp.Ordered, V any](h1 uint64, e1 entry[K, V], h2 uint64, e2 entry[K, V], shift uint) *node[K, V] {
	if shift >= hashBits {
		if e2.key < e1.key {
			e1, e2 = e2, e1
		}
		return &node[K, V]{entries: []entry[K, V]{e1, e2}}
	}
	s1, s2 := h1>>shift&levelMask, h2>>shift&levelMask
	if s1 == s2 {
		return &node[K, V]{nodemap: 1 << s1, kids: []*node[K, V]{pair(h1, e1, h2, e2, shift+levelBits)}}
	}
	if s2 < s1 {
		e1, e2 = e2, e1
	}
	return &node[K, V]{datamap: 1<<s1 | 1<<s2, entries: []entry[K, V]{e1, e2}}
}

func del[K cmp.Ordered, V any](n *node[K, V], hash uint64, shift uint, k K) (*node[K, V], bool) {
	if shift >= hashBits {
		i, found := n.find(k)
		if !found {
			return n, false
		}
		return &node[K, V]{entries: removeAt(n.entries, i)}, true
	}
	bit := uint32(1) << (hash >> shift & levelMask)
	c := *n
	switch {
	case n.datamap&bit != 0:
		i := index(n.datamap, bit)
		if n.entries[i].key != k {
			return n, false
		}
		c.datamap &^= bit
		c.entries = removeAt(n.entries, i)
		return &c, true
	case n.nodemap&bit != 0:
		i := index(n.nodemap, bit)
		child, removed := del(n.kids[i], hash, shift+levelBits, k)
		if !removed {
			return n, false
		}
		if len(child.kids) == 0 && len(child.entries) == 1 {
			// The subtree is down to one entry: fold it into this
			// node, so the shape is the one Set alone would have built.
			c.datamap |= bit
			c.nodemap &^= bit
			c.entries = insertAt(n.entries, index(n.datamap, bit), child.entries[0])
			c.kids = removeAt(n.kids, i)
			return &c, true
		}
		c.kids = replaceAt(n.kids, i, child)
		return &c, true
	}
	return n, false
}

// The three slice edits below always build a fresh, exactly sized
// slice (nil when empty): a node's slices are shared with every older
// version of the map and may never be appended to or written.

func insertAt[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

func replaceAt[T any](s []T, i int, v T) []T {
	out := make([]T, len(s))
	copy(out, s)
	out[i] = v
	return out
}

func removeAt[T any](s []T, i int) []T {
	if len(s) == 1 {
		return nil
	}
	out := make([]T, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}
