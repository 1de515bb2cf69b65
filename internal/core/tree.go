package core

import "kexclusion/internal/obs"

// Tree is Theorem 2's (N,k)-exclusion: an arbitration tree of (2k,k)
// building blocks over ceil(N/k) leaf groups. A process acquires the
// blocks on its leaf-to-root path, so entry cost grows with
// log2(N/k) instead of N-k.
type Tree struct {
	paths [][]*figTwo // per leaf group, leaf-to-root
	m     *obs.Metrics
	n, k  int
}

var _ KExclusion = (*Tree)(nil)

// NewTree builds Theorem 2's arbitration tree.
func NewTree(n, k int, opts ...Option) *Tree {
	validate(n, k)
	o := buildOptions(opts)
	groups := (n + k - 1) / k
	t := &Tree{paths: make([][]*figTwo, groups), m: o.metrics, n: n, k: k}
	if groups > 1 {
		buildTreeLevel(t.paths, 0, groups, k, o)
	}
	return t
}

// buildTreeLevel constructs the subtree over leaf groups [lo,hi),
// appending each node's (2k,k) chain to the paths of the groups it
// covers, in leaf-to-root order.
func buildTreeLevel(paths [][]*figTwo, lo, hi, k int, o options) {
	if hi-lo <= 1 {
		return
	}
	mid := lo + (hi-lo+1)/2
	buildTreeLevel(paths, lo, mid, k, o)
	buildTreeLevel(paths, mid, hi, k, o)
	node := newChain(2*k, k, o)
	for g := lo; g < hi; g++ {
		paths[g] = append(paths[g], node)
	}
}

func (t *Tree) group(p int) int {
	g := p / t.k
	if g >= len(t.paths) {
		g = len(t.paths) - 1
	}
	return g
}

// Acquire implements KExclusion.
func (t *Tree) Acquire(p int) {
	checkPID(p, t.n)
	start := acqStart(t.m)
	for _, node := range t.paths[t.group(p)] {
		node.acquire(p)
	}
	acqDone(t.m, start)
}

// Release implements KExclusion.
func (t *Tree) Release(p int) {
	checkPID(p, t.n)
	t.m.Released()
	path := t.paths[t.group(p)]
	for i := len(path) - 1; i >= 0; i-- {
		path[i].release(p)
	}
}

// K implements KExclusion.
func (t *Tree) K() int { return t.k }

// N implements KExclusion.
func (t *Tree) N() int { return t.n }

// FastPath is Theorem 3's (N,k)-exclusion (Figure 4): when contention
// stays at or below k, an acquisition touches only a bounded-decrement
// counter and one (2k,k) building block; the arbitration-tree slow path
// is paid only when contention exceeds k.
type FastPath struct {
	x     padInt64
	slow  *Tree
	block *figTwo
	// tookSlow[p] records Figure 4's private "slow" flag: which path
	// process p's current acquisition took. Only p accesses its entry;
	// padding prevents false sharing.
	tookSlow []padInt32
	m        *obs.Metrics
	n, k     int
}

var _ KExclusion = (*FastPath)(nil)

// NewFastPath builds Theorem 3's fast-path composition with a tree slow
// path.
func NewFastPath(n, k int, opts ...Option) *FastPath {
	validate(n, k)
	o := buildOptions(opts)
	f := &FastPath{
		n:        n,
		k:        k,
		m:        o.metrics,
		block:    newChain(2*k, k, o),
		tookSlow: make([]padInt32, n),
	}
	f.x.v.Store(int64(k))
	if n > 2*k {
		// The slow-path tree shares the sink but not the top-level
		// accounting: only the composition's own Acquire records the
		// acquisition, so sink totals count end-to-end acquisitions.
		f.slow = newTreeUncounted(n, k, o)
	}
	return f
}

// newTreeUncounted builds a Tree whose figTwo layers feed spin counters
// into o's sink but whose own Acquire/Release record nothing (t.m stays
// nil) — for use as an inner layer of a composition that does its own
// top-level accounting.
func newTreeUncounted(n, k int, o options) *Tree {
	groups := (n + k - 1) / k
	t := &Tree{paths: make([][]*figTwo, groups), n: n, k: k}
	if groups > 1 {
		buildTreeLevel(t.paths, 0, groups, k, o)
	}
	return t
}

// Acquire implements KExclusion.
func (f *FastPath) Acquire(p int) {
	checkPID(p, f.n)
	start := acqStart(f.m)
	if f.slow == nil {
		f.block.acquire(p)
		f.m.Path(false)
		acqDone(f.m, start)
		return
	}
	slow := decIfPositive(&f.x.v, f.m) == 0 // statements 1-3
	if slow {
		f.slow.Acquire(p) // statement 4
	}
	f.tookSlow[p].v.Store(boolToInt32(slow))
	f.block.acquire(p) // statement 5
	f.m.Path(slow)
	acqDone(f.m, start)
}

// Release implements KExclusion.
func (f *FastPath) Release(p int) {
	checkPID(p, f.n)
	f.m.Released()
	if f.slow == nil {
		f.block.release(p)
		return
	}
	f.block.release(p) // statement 6
	if f.tookSlow[p].v.Load() != 0 {
		f.slow.Release(p) // statement 8
	} else {
		f.x.v.Add(1) // statement 9
	}
}

// K implements KExclusion.
func (f *FastPath) K() int { return f.k }

// N implements KExclusion.
func (f *FastPath) N() int { return f.n }

func boolToInt32(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// Graceful is Theorem 4's (N,k)-exclusion (Figure 3(b)): fast paths
// nested recursively, so an acquisition at contention c pays for about
// ceil(c/k) counter-plus-block levels — throughput degrades linearly
// with contention instead of stepping when it first exceeds k.
type Graceful struct {
	levels []*gracefulLevel
	base   *figTwo // innermost (2k,k) block
	depth  []padInt32
	m      *obs.Metrics
	n, k   int
}

type gracefulLevel struct {
	x     padInt64
	block *figTwo
}

var _ KExclusion = (*Graceful)(nil)

// NewGraceful builds Theorem 4's nested fast paths.
func NewGraceful(n, k int, opts ...Option) *Graceful {
	validate(n, k)
	o := buildOptions(opts)
	g := &Graceful{
		base:  newChain(2*k, k, o),
		depth: make([]padInt32, n),
		m:     o.metrics,
		n:     n,
		k:     k,
	}
	for count := n; count > 2*k; count -= k {
		lvl := &gracefulLevel{block: newChain(2*k, k, o)}
		lvl.x.v.Store(int64(k))
		g.levels = append(g.levels, lvl)
	}
	return g
}

// Acquire implements KExclusion.
func (g *Graceful) Acquire(p int) {
	checkPID(p, g.n)
	start := acqStart(g.m)
	// Descend until a level grants a fast slot (statement 2 at each
	// nesting level of Figure 3(b)).
	d := 0
	for d < len(g.levels) && decIfPositive(&g.levels[d].x.v, g.m) == 0 {
		d++
	}
	g.depth[p].v.Store(int32(d))
	descended := d
	if d == len(g.levels) {
		g.base.acquire(p)
		d = len(g.levels) - 1
	}
	// Climb back out, acquiring each level's building block.
	for i := d; i >= 0; i-- {
		g.levels[i].block.acquire(p)
	}
	// A fast take is one that got the outermost level's counter slot
	// (or the degenerate no-level shape); deeper descents pay extra
	// levels, the graceful analogue of the slow path.
	g.m.Path(descended != 0)
	acqDone(g.m, start)
}

// Release implements KExclusion.
func (g *Graceful) Release(p int) {
	checkPID(p, g.n)
	g.m.Released()
	d := int(g.depth[p].v.Load())
	last := d
	if last >= len(g.levels) {
		last = len(g.levels) - 1
	}
	for i := 0; i <= last; i++ {
		g.levels[i].block.release(p)
	}
	if d == len(g.levels) {
		g.base.release(p)
	} else {
		g.levels[d].x.v.Add(1)
	}
}

// K implements KExclusion.
func (g *Graceful) K() int { return g.k }

// N implements KExclusion.
func (g *Graceful) N() int { return g.n }
