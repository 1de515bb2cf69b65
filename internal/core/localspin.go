package core

import (
	"sync/atomic"

	"kexclusion/internal/obs"
)

// lock is the internal composition interface satisfied by both building
// blocks (the Figure 2 chain and the Figure 6 local-spin chain).
type lock interface {
	acquire(p int)
	// acquireCtx is acquire with bounded withdrawal: it reports false —
	// with the block's state restored — if done closes while waiting.
	acquireCtx(p int, done <-chan struct{}) bool
	release(p int)
}

var _ lock = (*figTwo)(nil)

// figSix is one Figure 6 layer, natively: every process owns k+2
// cache-line-padded spin words P[p][v] and in-use counters R[p][v]; the
// packed register Q = (pid, loc) names the spin word of the currently
// waiting process. A waiter always spins on one of its own padded words,
// so under cache coherence its busy-wait stays within its own cache line
// — the native analogue of the paper's DSM-local spinning.
type figSix struct {
	x    padInt64
	q    padInt64 // packed (pid*nloc + loc)
	p    []padInt32
	r    []atomic.Int32
	nloc int
	spin int
	m    *obs.Metrics
}

func newFigSix(n, k int, o options) *figSix {
	f := &figSix{
		nloc: k + 2,
		spin: o.spinBudget,
		m:    o.metrics,
	}
	f.p = make([]padInt32, n*f.nloc)
	f.r = make([]atomic.Int32, n*f.nloc)
	f.x.v.Store(int64(k))
	f.q.v.Store(0) // (pid 0, loc 0); never spun on (first use is loc 1)
	return f
}

// figSixState is a process's private per-layer state (the paper's "last"
// variable). The chain allocates one per (process, layer) and threads it
// explicitly; see figSixChain.
type figSixState struct {
	last int
}

func (f *figSix) pack(p, loc int) int64 { return int64(p*f.nloc + loc) }

func (f *figSix) acquireWith(p int, st *figSixState) {
	if old := f.x.v.Add(-1) + 1; old <= 0 { // statement 2
		next := (st.last + 1) % f.nloc       // statement 3
		for f.r[p*f.nloc+next].Load() != 0 { // statements 4-5 (local reads)
			next = (next + 1) % f.nloc
		}
		f.p[p*f.nloc+next].v.Store(0) // statement 6 (own word)
		u := f.q.v.Load()             // statement 7
		f.r[u].Add(1)                 // statement 8
		if f.q.v.Load() == u {        // statement 9
			f.p[u].v.Store(1) // statement 10: release current waiter
		}
		if f.q.v.CompareAndSwap(u, f.pack(p, next)) { // statement 11
			st.last = next        // statement 12
			if f.x.v.Load() < 0 { // statement 13
				w := &f.p[p*f.nloc+next].v // statement 14: spin on own line
				spinUntil(f.spin, f.m, func() bool { return w.Load() != 0 })
			}
		}
		f.r[u].Add(-1) // statement 15
	}
}

func (f *figSix) releaseWith(p int) {
	f.x.v.Add(1)           // statement 16
	u := f.q.v.Load()      // statement 17
	f.r[u].Add(1)          // statement 18
	if f.q.v.Load() == u { // statement 19
		f.p[u].v.Store(1) // statement 20
	}
	f.r[u].Add(-1) // statement 21
}

// figSixChain is Theorem 5's inductive chain of Figure 6 layers with the
// per-process, per-layer private state ("last") managed alongside.
type figSixChain struct {
	layers []*figSix     // outermost (j=n-1) first
	state  []figSixState // len(layers) * nIDs, layer-major
	nIDs   int
}

// newFigSixChain builds the (count,k)-exclusion chain over n process
// identities; count bounds concurrency, n sizes the per-process arrays.
func newFigSixChain(nIDs, count, k int, o options) *figSixChain {
	c := &figSixChain{nIDs: nIDs}
	for j := count - 1; j >= k; j-- {
		c.layers = append(c.layers, newFigSix(nIDs, j, o))
	}
	c.state = make([]figSixState, len(c.layers)*nIDs)
	return c
}

func (c *figSixChain) acquire(p int) {
	for i, layer := range c.layers {
		layer.acquireWith(p, &c.state[i*c.nIDs+p])
	}
}

func (c *figSixChain) release(p int) {
	for i := len(c.layers) - 1; i >= 0; i-- {
		c.layers[i].releaseWith(p)
	}
}

var _ lock = (*figSixChain)(nil)

// LocalSpin is Theorem 5's (N,k)-exclusion natively: the bounded
// local-spin chain of Figure 6 layers. Each waiter spins on a word in
// its own cache line, bounding coherence traffic per acquisition the way
// the paper bounds remote references.
type LocalSpin struct {
	chain *figSixChain
	m     *obs.Metrics
	n, k  int
}

var _ KExclusion = (*LocalSpin)(nil)

// NewLocalSpin builds the Figure 6 chain for n processes and k slots.
func NewLocalSpin(n, k int, opts ...Option) *LocalSpin {
	validate(n, k)
	o := buildOptions(opts)
	return &LocalSpin{chain: newFigSixChain(n, n, k, o), m: o.metrics, n: n, k: k}
}

// Acquire implements KExclusion.
func (l *LocalSpin) Acquire(p int) {
	checkPID(p, l.n)
	start := acqStart(l.m)
	l.chain.acquire(p)
	acqDone(l.m, start)
}

// Release implements KExclusion.
func (l *LocalSpin) Release(p int) {
	checkPID(p, l.n)
	l.m.Released()
	l.chain.release(p)
}

// K implements KExclusion.
func (l *LocalSpin) K() int { return l.k }

// N implements KExclusion.
func (l *LocalSpin) N() int { return l.n }

// LocalSpinFastPath composes Figure 4's fast path with Figure 6 building
// blocks (Theorem 7's structure): bounded coherence traffic both below
// and above contention k, with every wait a local spin.
type LocalSpinFastPath struct {
	x        padInt64
	slowTree [][]lock // per leaf group, leaf-to-root
	groups   int
	block    *figSixChain
	tookSlow []padInt32
	m        *obs.Metrics
	n, k     int
}

var _ KExclusion = (*LocalSpinFastPath)(nil)

// NewLocalSpinFastPath builds the Theorem 7 composition.
func NewLocalSpinFastPath(n, k int, opts ...Option) *LocalSpinFastPath {
	validate(n, k)
	o := buildOptions(opts)
	f := &LocalSpinFastPath{
		block:    newFigSixChain(n, 2*k, k, o),
		tookSlow: make([]padInt32, n),
		m:        o.metrics,
		n:        n,
		k:        k,
	}
	f.x.v.Store(int64(k))
	if n > 2*k {
		groups := (n + k - 1) / k
		f.groups = groups
		f.slowTree = make([][]lock, groups)
		buildFigSixTree(f.slowTree, 0, groups, n, k, o)
	}
	return f
}

func buildFigSixTree(paths [][]lock, lo, hi, n, k int, o options) {
	if hi-lo <= 1 {
		return
	}
	mid := lo + (hi-lo+1)/2
	buildFigSixTree(paths, lo, mid, n, k, o)
	buildFigSixTree(paths, mid, hi, n, k, o)
	node := newFigSixChain(n, 2*k, k, o)
	for g := lo; g < hi; g++ {
		paths[g] = append(paths[g], node)
	}
}

func (f *LocalSpinFastPath) group(p int) int {
	g := p / f.k
	if g >= f.groups {
		g = f.groups - 1
	}
	return g
}

// Acquire implements KExclusion.
func (f *LocalSpinFastPath) Acquire(p int) {
	checkPID(p, f.n)
	start := acqStart(f.m)
	if f.slowTree == nil {
		f.block.acquire(p)
		f.m.Path(false)
		acqDone(f.m, start)
		return
	}
	slow := decIfPositive(&f.x.v, f.m) == 0
	if slow {
		for _, node := range f.slowTree[f.group(p)] {
			node.acquire(p)
		}
	}
	f.tookSlow[p].v.Store(boolToInt32(slow))
	f.block.acquire(p)
	f.m.Path(slow)
	acqDone(f.m, start)
}

// Release implements KExclusion.
func (f *LocalSpinFastPath) Release(p int) {
	checkPID(p, f.n)
	f.m.Released()
	if f.slowTree == nil {
		f.block.release(p)
		return
	}
	f.block.release(p)
	if f.tookSlow[p].v.Load() != 0 {
		path := f.slowTree[f.group(p)]
		for i := len(path) - 1; i >= 0; i-- {
			path[i].release(p)
		}
	} else {
		f.x.v.Add(1)
	}
}

// K implements KExclusion.
func (f *LocalSpinFastPath) K() int { return f.k }

// N implements KExclusion.
func (f *LocalSpinFastPath) N() int { return f.n }
