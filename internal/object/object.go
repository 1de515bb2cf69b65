// Package object is the typed object layer of kexserved's table: named,
// versioned objects (register, map, queue, snapshot) that live inside a
// shard's linearized state and travel through the universal
// construction's clone-and-CAS cycle.
//
// Every payload here is copy-on-write: Clone shares immutable
// structure with the receiver and mutating a clone never changes the
// original. That is the contract resilient.Shared needs — the wait-free
// core's helpers may clone one committed state concurrently and
// speculatively mutate each clone, so Clone must not write its receiver
// and clones must not alias mutable storage. The keyed structures — Map
// and the name→object Table — are one persistent trie (internal/pmap):
// clone is a value copy, a lookup walks O(log₃₂ n) nodes and a
// mutation copies that one path. Deque clones its chunk spine
// (O(len/64) pointers) and copies at most one chunk per push; a
// snapshot object copies its slots (≤ MaxSnapSlots).
//
// The package is deliberately free of dependencies on the durability or
// wire layers; internal/durable imports it to embed object tables in
// shard state, never the other way around.
package object

import (
	"fmt"

	"kexclusion/internal/pmap"
)

// Type identifies an object class on the wire and in durable state.
type Type uint8

const (
	// TypeRegister is an int64 register with add/set — the shard-root
	// semantics of kx03, now nameable.
	TypeRegister Type = 1
	// TypeMap is a string→int64 map with get/put/cas/delete.
	TypeMap Type = 2
	// TypeQueue is a FIFO int64 queue; its dequeue is the canonical
	// non-idempotent op the dedup window exists for.
	TypeQueue Type = 3
	// TypeSnapshot is the paper's footnote-1 object: a k-slot
	// single-writer-per-slot atomic snapshot with update/scan.
	TypeSnapshot Type = 4
)

// Valid reports whether t names a known object class.
func (t Type) Valid() bool { return t >= TypeRegister && t <= TypeSnapshot }

// String names the type for logs and errors.
func (t Type) String() string {
	switch t {
	case TypeRegister:
		return "register"
	case TypeMap:
		return "map"
	case TypeQueue:
		return "queue"
	case TypeSnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Wire and durable-format limits. They bound allocations driven by
// untrusted bytes, so decoders check them before trusting any count.
const (
	// MaxNameLen bounds an object name.
	MaxNameLen = 64
	// MaxKeyLen bounds a map key.
	MaxKeyLen = 512
	// MaxAtomicOps bounds the ops in one atomic batch — small enough
	// that the batch's single WAL record stays well under the record
	// body cap.
	MaxAtomicOps = 64
	// MaxSnapSlots bounds a snapshot object's slot count (its "k").
	MaxSnapSlots = 1024
)

// State is one named object's value. Exactly one of the payload fields
// is live, selected by Type; the others stay zero.
type State struct {
	Type Type
	// Reg is the register value (TypeRegister).
	Reg int64
	// M is the key-value payload (TypeMap).
	M Map
	// Q is the FIFO payload (TypeQueue).
	Q Deque[int64]
	// Slots is the snapshot payload (TypeSnapshot): one slot per
	// writer, scanned atomically. Its length is fixed at create time.
	Slots []int64
}

// Table is a shard's named-object table. Published *State values are
// immutable: a mutation clones the one object it touches and rebinds
// its name.
type Table = pmap.Map[string, *State, pmap.StringHash]

// New returns a fresh object of the given type. slots sizes a snapshot
// object and is ignored for the other types.
func New(t Type, slots int) *State {
	s := &State{Type: t}
	if t == TypeSnapshot {
		s.Slots = make([]int64, slots)
	}
	return s
}

// Clone copies the object. Shared structure (map nodes, queue
// chunks) is reused copy-on-write; mutating the clone never changes
// the receiver, and Clone itself never writes the receiver.
func (s *State) Clone() *State {
	c := &State{Type: s.Type, Reg: s.Reg, M: s.M.Clone(), Q: s.Q.Clone()}
	if s.Slots != nil {
		c.Slots = append([]int64(nil), s.Slots...)
	}
	return c
}
