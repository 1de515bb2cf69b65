package core

import (
	"sync/atomic"

	"kexclusion/internal/obs"
)

// MCS is the Mellor-Crummey & Scott queue lock (the paper's reference
// [12]), natively: the mutual-exclusion (k=1) comparator the concluding
// remarks measure the k-exclusion algorithms against. Each waiter spins
// on its own padded node. It is NOT fault-tolerant — a goroutine that
// stops while holding or waiting wedges the queue — which is exactly the
// gap the paper's resilient algorithms fill.
type MCS struct {
	tail  atomic.Pointer[mcsNode]
	nodes []mcsNode
	spin  int
	m     *obs.Metrics
	n     int
}

type mcsNode struct {
	locked atomic.Int32
	next   atomic.Pointer[mcsNode]
	_      [48]byte
}

var _ KExclusion = (*MCS)(nil)

// NewMCS builds an MCS lock for n process identities.
func NewMCS(n int, opts ...Option) *MCS {
	validate(n, 1)
	o := buildOptions(opts)
	return &MCS{nodes: make([]mcsNode, n), spin: o.spinBudget, m: o.metrics, n: n}
}

// Acquire implements KExclusion.
func (m *MCS) Acquire(p int) {
	checkPID(p, m.n)
	start := acqStart(m.m)
	node := &m.nodes[p]
	node.next.Store(nil)
	pred := m.tail.Swap(node)
	if pred != nil {
		node.locked.Store(1)
		pred.next.Store(node)
		spinUntil(m.spin, m.m, func() bool { return node.locked.Load() == 0 })
	}
	acqDone(m.m, start)
}

// Release implements KExclusion.
func (m *MCS) Release(p int) {
	checkPID(p, m.n)
	m.m.Released()
	node := &m.nodes[p]
	if node.next.Load() == nil {
		if m.tail.CompareAndSwap(node, nil) {
			return
		}
		// A successor is between its swap and its link; wait for it.
		spinUntil(m.spin, m.m, func() bool { return node.next.Load() != nil })
	}
	node.next.Load().locked.Store(0)
}

// K implements KExclusion.
func (m *MCS) K() int { return 1 }

// N implements KExclusion.
func (m *MCS) N() int { return m.n }
