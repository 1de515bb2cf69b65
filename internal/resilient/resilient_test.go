package resilient

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"kexclusion/internal/core"
	"kexclusion/internal/renaming"
)

func TestUniversalSequential(t *testing.T) {
	u := NewUniversal[int64](3, 10, nil)
	got := u.Apply(0, func(s int64) (int64, any) { return s + 5, s + 5 })
	if got.(int64) != 15 {
		t.Fatalf("apply result = %v, want 15", got)
	}
	got = u.Apply(2, func(s int64) (int64, any) { return s * 2, s * 2 })
	if got.(int64) != 30 || u.Peek() != 30 {
		t.Fatalf("state = %v / %d, want 30", got, u.Peek())
	}
}

func TestUniversalAppliesEachOpExactlyOnce(t *testing.T) {
	// Helpers may *execute* an op several times against throwaway
	// copies, but its effect lands in the linearized state exactly
	// once: k processes each add 1 repeatedly; the final state is the
	// exact total.
	k, rounds := 4, 200
	u := NewUniversal[int64](k, 0, nil)
	var wg sync.WaitGroup
	for name := 0; name < k; name++ {
		wg.Add(1)
		go func(name int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				u.Apply(name, func(s int64) (int64, any) { return s + 1, nil })
			}
		}(name)
	}
	wg.Wait()
	if got := u.Peek(); got != int64(k*rounds) {
		t.Fatalf("final state %d, want %d (lost or duplicated ops)", got, k*rounds)
	}
}

func TestUniversalResultsPerName(t *testing.T) {
	// Each process must get its own op's result even when another
	// process's helping installed it.
	k := 3
	u := NewUniversal[int64](k, 0, nil)
	var wg sync.WaitGroup
	for name := 0; name < k; name++ {
		wg.Add(1)
		go func(name int) {
			defer wg.Done()
			for r := 0; r < 100; r++ {
				res := u.Apply(name, func(s int64) (int64, any) {
					return s + 1, int64(name*1000 + r)
				})
				if res.(int64) != int64(name*1000+r) {
					t.Errorf("name %d round %d got foreign result %v", name, r, res)
					return
				}
			}
		}(name)
	}
	wg.Wait()
}

func TestUniversalValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad name")
		}
	}()
	u := NewUniversal[int](2, 0, nil)
	u.Apply(2, func(s int) (int, any) { return s, nil })
}

func TestCounterLinearizedTotal(t *testing.T) {
	n, k := 8, 3
	c := NewCounter(n, k)
	rounds := 100
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c.Add(p, 1)
			}
		}(p)
	}
	wg.Wait()
	if got := c.Value(0); got != int64(n*rounds) {
		t.Fatalf("counter = %d, want %d", got, n*rounds)
	}
}

func TestCounterMonotoneReads(t *testing.T) {
	n, k := 4, 2
	c := NewCounter(n, k)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := c.Value(0)
			if v < last {
				t.Errorf("non-monotone read: %d after %d", v, last)
				return
			}
			last = v
		}
	}()
	for p := 1; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < 150; r++ {
				c.Add(p, 1)
			}
		}(p)
	}
	// Wait for the writers (they are wg members 2..n), then stop the reader.
	time.Sleep(time.Millisecond)
	for c.Value(0) < int64((n-1)*150) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

func TestQueueFIFOPerProducer(t *testing.T) {
	n, k := 6, 2
	q := NewQueue[[2]int](n, k)
	producers, items := 3, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < items; i++ {
				q.Enqueue(p, [2]int{p, i})
			}
		}(p)
	}
	// Each consumer records what it dequeued, in its own dequeue order:
	// that order is a subsequence of the queue's linearization, which a
	// log shared between consumers (appended to after Dequeue returns)
	// is not.
	got := make([][][2]int, n)
	var consumed atomic.Int64
	for p := producers; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for consumed.Load() < int64(producers*items) {
				v, ok := q.Dequeue(p)
				if !ok {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				got[p] = append(got[p], v)
				consumed.Add(1)
			}
		}(p)
	}
	wg.Wait()
	// FIFO implies: every consumer sees each producer's items strictly
	// increasing, and together they see every item exactly once.
	seen := make(map[[2]int]int)
	for c := producers; c < n; c++ {
		last := make(map[int]int)
		for _, v := range got[c] {
			if prev, ok := last[v[0]]; ok && v[1] <= prev {
				t.Fatalf("consumer %d saw producer %d out of order: %v", c, v[0], got[c])
			}
			last[v[0]] = v[1]
			seen[v]++
		}
	}
	for p := 0; p < producers; p++ {
		for i := 0; i < items; i++ {
			if seen[[2]int{p, i}] != 1 {
				t.Fatalf("item %d of producer %d consumed %d times, want 1", i, p, seen[[2]int{p, i}])
			}
		}
	}
	if len(seen) != producers*items {
		t.Fatalf("%d distinct items consumed, want %d", len(seen), producers*items)
	}
}

func TestRegisterCompareAndSet(t *testing.T) {
	n, k := 6, 3
	r := NewRegister(n, k, 0)
	// n goroutines race CAS-increments; exactly one wins each value.
	var wg sync.WaitGroup
	var wins atomic.Int64
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cur := r.Read(p)
				if r.CompareAndSet(p, cur, cur+1) {
					wins.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	if got := int64(r.Read(0)); got != wins.Load() {
		t.Fatalf("register %d != successful CAS count %d", got, wins.Load())
	}
}

// TestMethodologyResilience is the paper's headline claim, end to end:
// k-1 processes fail while holding slots of the k-assignment wrapper
// (the worst place to fail), and every remaining process still completes
// operations on the wait-free core.
func TestMethodologyResilience(t *testing.T) {
	n, k := 8, 3
	excl := core.NewFastPath(n, k)
	asg := renaming.NewAssignment(excl)
	u := NewUniversal[int64](k, 0, nil)

	// k-1 processes "fail" while inside the wrapper: they acquire a
	// slot and name and never come back.
	for p := 0; p < k-1; p++ {
		name := asg.Acquire(p)
		// Announce an operation too, as a process that died mid-Apply
		// would have; helpers must apply it exactly once.
		_ = name
	}

	var wg sync.WaitGroup
	var done atomic.Int64
	for p := k - 1; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				name := asg.Acquire(p)
				u.Apply(name, func(s int64) (int64, any) { return s + 1, nil })
				asg.Release(p, name)
				done.Add(1)
			}
		}(p)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatalf("survivors starved: only %d ops completed", done.Load())
	}
	if got := u.Peek(); got != int64((n-k+1)*50) {
		t.Fatalf("state %d, want %d", got, (n-k+1)*50)
	}
}

// TestSharedResilientCounterWithCustomExclusion exercises the Config
// hook with every exclusion algorithm.
func TestSharedResilientCounterWithCustomExclusion(t *testing.T) {
	n, k := 6, 2
	for name, excl := range map[string]core.KExclusion{
		"inductive": core.NewInductive(n, k),
		"localspin": core.NewLocalSpin(n, k),
		"graceful":  core.NewGraceful(n, k),
	} {
		t.Run(name, func(t *testing.T) {
			s := NewSharedConfig(n, k, int64(0), nil, Config{Excl: excl})
			var wg sync.WaitGroup
			for p := 0; p < n; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for r := 0; r < 40; r++ {
						s.Apply(p, func(v int64) (int64, any) { return v + 1, nil })
					}
				}(p)
			}
			wg.Wait()
			if got := s.Peek(); got != int64(n*40) {
				t.Fatalf("counter = %d, want %d", got, n*40)
			}
		})
	}
}

// TestQuickRegisterSequences property-tests the register against a
// sequential model under a single process.
func TestQuickRegisterSequences(t *testing.T) {
	f := func(writes []int16) bool {
		r := NewRegister(2, 1, 0)
		model := 0
		for _, w := range writes {
			r.Write(0, int(w))
			model = int(w)
			if r.Read(1) != model {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedAccessors covers the trivial accessors.
func TestSharedAccessors(t *testing.T) {
	s := NewShared(5, 2, 0, nil)
	if s.N() != 5 || s.K() != 2 {
		t.Fatalf("accessors wrong: N=%d K=%d", s.N(), s.K())
	}
	u := NewUniversal(3, 0, nil)
	if u.K() != 3 {
		t.Fatal("Universal.K wrong")
	}
	if s.Peek() != 0 {
		t.Fatal("Peek on fresh object should return the initial state")
	}
}
