package core

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kexclusion/internal/obs"
)

func TestWithSpinBudgetClamp(t *testing.T) {
	// The contract is polls >= 1: zero or negative budgets would make
	// spinUntil yield on every poll (or, before the clamp existed, made
	// the budget comparison meaningless). Both bounds clamp to 1.
	for _, budget := range []int{0, -1, -100} {
		kx := NewInductive(4, 2, WithSpinBudget(budget))
		if kx.chain.spin != 1 {
			t.Errorf("WithSpinBudget(%d): spin=%d, want clamp to 1", budget, kx.chain.spin)
		}
	}
	if kx := NewInductive(4, 2, WithSpinBudget(1)); kx.chain.spin != 1 {
		t.Errorf("WithSpinBudget(1): spin=%d, want 1", kx.chain.spin)
	}
	if kx := NewInductive(4, 2, WithSpinBudget(2)); kx.chain.spin != 2 {
		t.Errorf("WithSpinBudget(2): spin=%d, want 2 (clamp must not touch valid budgets)", kx.chain.spin)
	}
	// A clamped instance must still work: budget 1 yields on every
	// failed poll but must not change semantics.
	exercise(t, NewCounting(4, 2, WithSpinBudget(0)), 30)
}

// TestLocalSpinFastPathDegenerateGroupChurn drives the Theorem 7
// composition at a shape where n is not divisible by k (n=10, k=4): the
// last leaf group {8,9} has fewer than k members, exercising group()'s
// clamp, and the churn (goroutines racing through short and long
// critical sections) forces the bounded-decrement pool to empty so the
// tookSlow handoff runs both release paths concurrently. Run under
// -race this checks the happens-before edges of the handoff; the
// metrics sink proves both paths were actually taken.
func TestLocalSpinFastPathDegenerateGroupChurn(t *testing.T) {
	const (
		n, k   = 10, 4
		rounds = 80
	)
	m := obs.New()
	f := NewLocalSpinFastPath(n, k, WithMetrics(m))
	if f.groups != 3 {
		t.Fatalf("groups=%d, want 3 for (n,k)=(%d,%d)", f.groups, n, k)
	}
	for p := 0; p < n; p++ {
		if g := f.group(p); g < 0 || g >= f.groups {
			t.Fatalf("group(%d)=%d out of range [0,%d)", p, g, f.groups)
		}
	}

	var occ, maxOcc atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				f.Acquire(p)
				cur := occ.Add(1)
				for {
					mx := maxOcc.Load()
					if cur <= mx || maxOcc.CompareAndSwap(mx, cur) {
						break
					}
				}
				// Churn: odd rounds hold the slot across a scheduling
				// point so the fast-path pool drains and later arrivals
				// are forced onto the slow tree.
				if r%2 == 1 {
					time.Sleep(time.Microsecond)
				}
				occ.Add(-1)
				f.Release(p)
			}
		}(p)
	}
	wg.Wait()

	if got := maxOcc.Load(); got > k {
		t.Fatalf("k-exclusion violated under churn: occupancy %d > k=%d", got, k)
	}

	// The sleepy churn above usually drains the fast-path pool, but a
	// serially-scheduled run can finish without a single slow take, so
	// exercise the tookSlow handoff deterministically too: with the
	// counter drained — as if k fast holders were inside — an arrival
	// must pay the slow tree, and its release must return the slot
	// through the tree, not the counter.
	f.x.v.Add(int64(-k))
	f.Acquire(0)
	if f.tookSlow[0].v.Load() == 0 {
		t.Fatal("arrival with a drained fast-path counter took the fast path")
	}
	f.Release(0)
	f.x.v.Add(int64(k))

	s := m.Snapshot()
	total := int64(n*rounds + 1)
	if s.Acquires != total || s.Releases != total {
		t.Fatalf("metrics accounting wrong: acquires=%d releases=%d, want %d", s.Acquires, s.Releases, total)
	}
	if s.FastPathTakes+s.SlowPathTakes != total {
		t.Fatalf("path split %d+%d does not cover %d acquisitions", s.FastPathTakes, s.SlowPathTakes, total)
	}
	if s.SlowPathTakes == 0 {
		t.Fatal("churn never drained the fast-path pool; tookSlow handoff untested")
	}
	if s.PeakHolders > k {
		t.Fatalf("metrics saw peak occupancy %d > k=%d", s.PeakHolders, k)
	}
	if s.CurrentHolders != 0 {
		t.Fatalf("current_holders=%d after quiescence", s.CurrentHolders)
	}
}

// TestRegistryMetricsAccounting drives every registry entry (fixed-k
// entries at their own k) with n goroutines × ops acquire/release
// cycles under one metrics sink. The counters the workload determines
// must balance: every acquisition released, none left holding, and the
// sink never seeing more than k holders at once.
func TestRegistryMetricsAccounting(t *testing.T) {
	const n, k, ops = 6, 2, 8
	for _, c := range Registry() {
		kk := k
		if c.FixedK != 0 {
			kk = c.FixedK
		}
		t.Run(c.Name, func(t *testing.T) {
			m := obs.New()
			kx := c.New(n, kk, WithMetrics(m))
			var wg sync.WaitGroup
			for p := 0; p < n; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						kx.Acquire(p)
						runtime.Gosched()
						kx.Release(p)
					}
				}(p)
			}
			wg.Wait()
			s := m.Snapshot()
			if s.Acquires != s.Releases {
				t.Errorf("acquires=%d releases=%d, want equal", s.Acquires, s.Releases)
			}
			if s.Acquires < n*ops {
				t.Errorf("acquires=%d, want >= %d (the workload is fixed)", s.Acquires, n*ops)
			}
			if s.CurrentHolders != 0 {
				t.Errorf("current_holders=%d after quiescence", s.CurrentHolders)
			}
			if s.PeakHolders > int64(kk) {
				t.Errorf("peak_holders=%d > k=%d", s.PeakHolders, kk)
			}
		})
	}
}

// seedSpinUntil and seedDecIfPositive replicate the pre-instrumentation
// originals exactly — same call structure, same closure, no counters —
// so baselineCounting below is the "current code path" the nil-sink
// zero-overhead contract is measured against.
func seedSpinUntil(budget int, cond func() bool) {
	for i := 0; ; i++ {
		if cond() {
			return
		}
		if i >= budget {
			runtime.Gosched()
			i = 0
		}
	}
}

func seedDecIfPositive(x *atomic.Int64) int64 {
	for {
		v := x.Load()
		if v <= 0 {
			return v
		}
		if x.CompareAndSwap(v, v-1) {
			return v
		}
	}
}

type baselineCounting struct {
	x    atomic.Int64
	spin int
	n, k int
}

func (c *baselineCounting) Acquire(p int) {
	checkPID(p, c.n)
	seedSpinUntil(c.spin, func() bool { return seedDecIfPositive(&c.x) > 0 })
}

func (c *baselineCounting) Release(p int) {
	checkPID(p, c.n)
	c.x.Add(1)
}

func BenchmarkObsOverhead(b *testing.B) {
	b.Run("baseline", func(b *testing.B) {
		c := &baselineCounting{spin: defaultSpinBudget, n: 4, k: 2}
		c.x.Store(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Acquire(0)
			c.Release(0)
		}
	})
	b.Run("nilsink", func(b *testing.B) {
		c := NewCounting(4, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Acquire(0)
			c.Release(0)
		}
	})
	b.Run("metrics", func(b *testing.B) {
		c := NewCounting(4, 2, WithMetrics(obs.New()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Acquire(0)
			c.Release(0)
		}
	})
}

// TestNilSinkOverhead asserts the nil-sink zero-overhead contract
// numerically: an uncontended acquire/release pair through the
// instrumented code with a nil sink must cost within 2% of the
// uninstrumented baseline. Timing assertions flake on loaded shared
// runners, so the strict check is opt-in via KEX_OBS_OVERHEAD_STRICT=1
// (the benchmark above always reports the numbers).
func TestNilSinkOverhead(t *testing.T) {
	if os.Getenv("KEX_OBS_OVERHEAD_STRICT") == "" {
		t.Skip("set KEX_OBS_OVERHEAD_STRICT=1 to enforce the 2% bound")
	}
	best := func(f func(b *testing.B)) float64 {
		lo := 0.0
		for i := 0; i < 5; i++ {
			r := testing.Benchmark(f)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if lo == 0 || ns < lo {
				lo = ns
			}
		}
		return lo
	}
	base := best(func(b *testing.B) {
		c := &baselineCounting{spin: defaultSpinBudget, n: 4, k: 2}
		c.x.Store(2)
		for i := 0; i < b.N; i++ {
			c.Acquire(0)
			c.Release(0)
		}
	})
	nilSink := best(func(b *testing.B) {
		c := NewCounting(4, 2)
		for i := 0; i < b.N; i++ {
			c.Acquire(0)
			c.Release(0)
		}
	})
	if nilSink > base*1.02 {
		t.Fatalf("nil-sink overhead: baseline %.2fns/op, nil sink %.2fns/op (>2%%)", base, nilSink)
	}
	t.Logf("baseline %.2fns/op, nil sink %.2fns/op", base, nilSink)
}
