package core

import (
	"sync/atomic"

	"kexclusion/internal/obs"
)

// qBottom is the sentinel distinct from every process id written to the
// spin word by the exit section (the paper's "Q := p̄").
const qBottom = -1

// figTwo is one Figure 2 layer: a slot counter X (initially k) and a
// single spin word Q holding the id of the currently waiting process.
// The layer admits k processes provided at most k+1 participate
// concurrently, which the inner layer guarantees (nil inner means the
// guarantee holds trivially).
type figTwo struct {
	inner *figTwo
	x     padInt64
	q     padInt64
	spin  int
	m     *obs.Metrics
}

func newFigTwo(k int, inner *figTwo, o options) *figTwo {
	f := &figTwo{inner: inner, spin: o.spinBudget, m: o.metrics}
	f.x.v.Store(int64(k))
	f.q.v.Store(qBottom)
	return f
}

func (f *figTwo) acquire(p int) {
	if f.inner != nil {
		f.inner.acquire(p) // statement 1: Acquire(N,k+1)
	}
	if f.x.v.Add(-1) <= -1 { // statement 2: old value <= 0, no slot free
		f.q.v.Store(int64(p)) // statement 3
		if f.x.v.Load() < 0 { // statement 4: still no slot
			// Statement 5: wait until a releaser overwrites Q.
			spinUntil(f.spin, f.m, func() bool { return f.q.v.Load() != int64(p) })
		}
	}
}

func (f *figTwo) release(p int) {
	f.x.v.Add(1)         // statement 6
	f.q.v.Store(qBottom) // statement 7: release the waiting process
	if f.inner != nil {
		f.inner.release(p) // statement 8: Release(N,k+1)
	}
}

// newChain builds Theorem 1's inductive chain: Figure 2 layers for
// j = n-1 down to k ((n,n)-exclusion being skip). The chain only
// requires that at most n processes participate concurrently, not that
// their ids are known, so it doubles as the (2k,k) building block.
func newChain(n, k int, o options) *figTwo {
	var inner *figTwo
	for j := n - 1; j >= k; j-- {
		inner = newFigTwo(j, inner, o)
	}
	return inner
}

// Inductive is Theorem 1's (N,k)-exclusion: a chain of Figure 2 layers.
// Simple and compact; entry cost grows linearly in N-K, so prefer Tree
// or FastPath for large N.
type Inductive struct {
	chain *figTwo
	m     *obs.Metrics
	n, k  int
}

var _ KExclusion = (*Inductive)(nil)

// NewInductive builds Theorem 1's chain for n processes and k slots.
func NewInductive(n, k int, opts ...Option) *Inductive {
	validate(n, k)
	o := buildOptions(opts)
	return &Inductive{chain: newChain(n, k, o), m: o.metrics, n: n, k: k}
}

// Acquire implements KExclusion.
func (i *Inductive) Acquire(p int) {
	checkPID(p, i.n)
	start := acqStart(i.m)
	if i.chain != nil {
		i.chain.acquire(p)
	}
	acqDone(i.m, start)
}

// Release implements KExclusion.
func (i *Inductive) Release(p int) {
	checkPID(p, i.n)
	i.m.Released()
	if i.chain != nil {
		i.chain.release(p)
	}
}

// K implements KExclusion.
func (i *Inductive) K() int { return i.k }

// N implements KExclusion.
func (i *Inductive) N() int { return i.n }

// Counting is the folklore atomic-counter semaphore: the practical
// baseline the paper's algorithms are benchmarked against. It is
// (k-1)-resilient but not starvation-free, and every waiter spins on the
// one shared counter — the remote-reference hot spot local-spin
// algorithms eliminate.
type Counting struct {
	x    atomic.Int64
	spin int
	m    *obs.Metrics
	n, k int
}

var _ KExclusion = (*Counting)(nil)

// NewCounting builds the counting-semaphore baseline.
func NewCounting(n, k int, opts ...Option) *Counting {
	validate(n, k)
	o := buildOptions(opts)
	c := &Counting{spin: o.spinBudget, m: o.metrics, n: n, k: k}
	c.x.Store(int64(k))
	return c
}

// Acquire implements KExclusion.
func (c *Counting) Acquire(p int) {
	checkPID(p, c.n)
	start := acqStart(c.m)
	spinUntil(c.spin, c.m, func() bool { return decIfPositive(&c.x, c.m) > 0 })
	acqDone(c.m, start)
}

// TryAcquire acquires a slot without blocking, reporting success.
func (c *Counting) TryAcquire(p int) bool {
	checkPID(p, c.n)
	start := acqStart(c.m)
	if decIfPositive(&c.x, c.m) <= 0 {
		c.m.Aborted()
		return false
	}
	acqDone(c.m, start)
	return true
}

// Release implements KExclusion.
func (c *Counting) Release(p int) {
	checkPID(p, c.n)
	c.m.Released()
	c.x.Add(1)
}

// K implements KExclusion.
func (c *Counting) K() int { return c.k }

// N implements KExclusion.
func (c *Counting) N() int { return c.n }

// ChanSem is a channel-based semaphore, the idiomatic Go baseline.
// Blocking waiters park in the runtime instead of spinning.
type ChanSem struct {
	ch   chan struct{}
	m    *obs.Metrics
	n, k int
}

var _ KExclusion = (*ChanSem)(nil)

// NewChanSem builds the channel-semaphore baseline. Spin options do not
// apply (waiters park in the runtime); WithMetrics does.
func NewChanSem(n, k int, opts ...Option) *ChanSem {
	validate(n, k)
	o := buildOptions(opts)
	return &ChanSem{ch: make(chan struct{}, k), m: o.metrics, n: n, k: k}
}

// Acquire implements KExclusion.
func (c *ChanSem) Acquire(p int) {
	checkPID(p, c.n)
	start := acqStart(c.m)
	c.ch <- struct{}{}
	acqDone(c.m, start)
}

// Release implements KExclusion.
func (c *ChanSem) Release(p int) {
	checkPID(p, c.n)
	c.m.Released()
	<-c.ch
}

// K implements KExclusion.
func (c *ChanSem) K() int { return c.k }

// N implements KExclusion.
func (c *ChanSem) N() int { return c.n }
