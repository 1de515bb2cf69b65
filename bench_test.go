// Benchmarks regenerating the paper's evaluation artifacts.
//
// Two families:
//
//   - Simulator benchmarks (BenchmarkTable1, BenchmarkTheorems,
//     BenchmarkFig3b): run the algorithms on the simulated CC/DSM
//     machines and report the paper's metric — remote memory references
//     per critical-section acquisition — as the "remoterefs/acq" and
//     "maxremoterefs" benchmark metrics. These reproduce Table 1 and
//     Theorems 1-10; ns/op is incidental here.
//
//   - Native benchmarks (BenchmarkNative*, BenchmarkResilient*,
//     BenchmarkRenaming, BenchmarkUniversal): throughput of the
//     sync/atomic implementations under real goroutine contention.
//
// Run: go test -bench=. -benchmem
package kexclusion

import (
	"fmt"
	"sync"
	"testing"

	"kexclusion/internal/algo"
	"kexclusion/internal/bench"
	"kexclusion/internal/core"
	"kexclusion/internal/machine"
	"kexclusion/internal/proto"
	"kexclusion/internal/renaming"
	"kexclusion/internal/resilient"
)

// simOpts keeps simulator sub-benchmarks cheap enough to sweep broadly.
var simOpts = bench.Options{Seeds: 2, Acquisitions: 3}

// reportSim runs one simulator measurement per iteration and reports the
// paper's metric.
func reportSim(b *testing.B, pr proto.Protocol, model machine.Model, n, k, contention int) {
	b.Helper()
	var m bench.Measurement
	for i := 0; i < b.N; i++ {
		m = bench.Measure(pr, model, n, k, contention, simOpts)
	}
	b.ReportMetric(m.Mean, "remoterefs/acq")
	b.ReportMetric(float64(m.Max), "maxremoterefs")
}

// BenchmarkTable1 reproduces Table 1: every algorithm on its machine
// model(s), below and above the contention threshold k.
func BenchmarkTable1(b *testing.B) {
	const n, k = 32, 4
	for _, pr := range algo.All() {
		for _, model := range pr.Traits().Models {
			for _, c := range []int{k, n} {
				regime := "low"
				if c == n {
					regime = "high"
				}
				b.Run(fmt.Sprintf("%s/%s/%s", pr.Name(), model, regime), func(b *testing.B) {
					reportSim(b, pr, model, n, k, c)
				})
			}
		}
	}
}

// theoremBench is one Theorem 1-10 configuration.
type theoremBench struct {
	name       string
	pr         proto.Protocol
	model      machine.Model
	n, k, c    int
	paperBound int
}

func theoremBenches() []theoremBench {
	const n, k = 16, 4
	d := bench.Log2Ceil(n, k)
	return []theoremBench{
		{"Thm1_Inductive", algo.Inductive{}, machine.CacheCoherent, n, k, 0, 7 * (n - k)},
		{"Thm2_Tree", algo.Tree{}, machine.CacheCoherent, n, k, 0, 7 * k * d},
		{"Thm3_FastPath_low", algo.FastPath{}, machine.CacheCoherent, n, k, k, 7*k + 2},
		{"Thm3_FastPath_high", algo.FastPath{}, machine.CacheCoherent, n, k, 0, 7*k*(d+1) + 2},
		{"Thm4_Graceful_c8", algo.Graceful{}, machine.CacheCoherent, n, k, 8, bench.CeilDiv(8, k) * (7*k + 2)},
		{"Thm5_InductiveDSM", algo.InductiveDSM{}, machine.Distributed, n, k, 0, 14 * (n - k)},
		{"Thm6_TreeDSM", algo.TreeDSM{}, machine.Distributed, n, k, 0, 14 * k * d},
		{"Thm7_FastPathDSM_low", algo.FastPathDSM{}, machine.Distributed, n, k, k, 14*k + 2},
		{"Thm7_FastPathDSM_high", algo.FastPathDSM{}, machine.Distributed, n, k, 0, 14*k*(d+1) + 2},
		{"Thm8_GracefulDSM_c8", algo.GracefulDSM{}, machine.Distributed, n, k, 8, bench.CeilDiv(8, k) * (14*k + 2)},
		{"Thm9_AssignmentCC_low", algo.Assignment{Excl: algo.FastPath{}}, machine.CacheCoherent, n, k, k, 7*k + 2 + k},
		{"Thm10_AssignmentDSM_low", algo.Assignment{Excl: algo.FastPathDSM{}}, machine.Distributed, n, k, k, 14*k + 2 + k},
	}
}

// BenchmarkTheorems regenerates the Theorem 1-10 measurements and fails
// the benchmark run if any measured maximum exceeds its paper bound.
func BenchmarkTheorems(b *testing.B) {
	for _, tb := range theoremBenches() {
		b.Run(tb.name, func(b *testing.B) {
			var m bench.Measurement
			for i := 0; i < b.N; i++ {
				m = bench.Measure(tb.pr, tb.model, tb.n, tb.k, tb.c, simOpts)
			}
			b.ReportMetric(m.Mean, "remoterefs/acq")
			b.ReportMetric(float64(m.Max), "maxremoterefs")
			b.ReportMetric(float64(tb.paperBound), "paperbound")
			if m.Max > uint64(tb.paperBound) {
				b.Fatalf("measured %d exceeds paper bound %d", m.Max, tb.paperBound)
			}
		})
	}
}

// BenchmarkFig3b regenerates the Figure 3 contention sweep: tree versus
// fast path versus nested fast paths as contention rises past k.
func BenchmarkFig3b(b *testing.B) {
	const n, k = 16, 2
	for _, pr := range []proto.Protocol{algo.Tree{}, algo.FastPath{}, algo.Graceful{}} {
		for _, c := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/c%d", pr.Name(), c), func(b *testing.B) {
				reportSim(b, pr, machine.CacheCoherent, n, k, c)
			})
		}
	}
}

// benchContended drives a native k-exclusion with g goroutines sharing
// b.N acquire/release cycles.
func benchContended(b *testing.B, kx core.KExclusion, g int) {
	b.Helper()
	var wg sync.WaitGroup
	per := (b.N + g - 1) / g
	b.ResetTimer()
	for p := 0; p < g; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				kx.Acquire(p)
				kx.Release(p)
			}
		}(p)
	}
	wg.Wait()
}

// BenchmarkNativeKExclusion measures acquire/release throughput of every
// native implementation at three contention levels.
func BenchmarkNativeKExclusion(b *testing.B) {
	const n, k = 16, 4
	impls := []struct {
		name  string
		build func() core.KExclusion
	}{
		{"counting", func() core.KExclusion { return core.NewCounting(n, k) }},
		{"chansem", func() core.KExclusion { return core.NewChanSem(n, k) }},
		{"inductive", func() core.KExclusion { return core.NewInductive(n, k) }},
		{"tree", func() core.KExclusion { return core.NewTree(n, k) }},
		{"fastpath", func() core.KExclusion { return core.NewFastPath(n, k) }},
		{"graceful", func() core.KExclusion { return core.NewGraceful(n, k) }},
		{"localspin", func() core.KExclusion { return core.NewLocalSpin(n, k) }},
		{"lsfastpath", func() core.KExclusion { return core.NewLocalSpinFastPath(n, k) }},
	}
	for _, im := range impls {
		for _, g := range []int{1, k, n} {
			b.Run(fmt.Sprintf("%s/goroutines%d", im.name, g), func(b *testing.B) {
				benchContended(b, im.build(), g)
			})
		}
	}
}

// BenchmarkRenaming measures name acquire/release through the full
// k-assignment wrapper.
func BenchmarkRenaming(b *testing.B) {
	const n, k = 16, 4
	for _, g := range []int{1, k, n} {
		b.Run(fmt.Sprintf("goroutines%d", g), func(b *testing.B) {
			asg := renaming.New(n, k)
			var wg sync.WaitGroup
			per := (b.N + g - 1) / g
			b.ResetTimer()
			for p := 0; p < g; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						name := asg.Acquire(p)
						asg.Release(p, name)
					}
				}(p)
			}
			wg.Wait()
		})
	}
}

// BenchmarkUniversal measures the wait-free k-process core alone.
func BenchmarkUniversal(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			u := resilient.NewUniversal[int64](k, 0, nil)
			var wg sync.WaitGroup
			per := (b.N + k - 1) / k
			b.ResetTimer()
			for name := 0; name < k; name++ {
				wg.Add(1)
				go func(name int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						u.Apply(name, func(s int64) (int64, any) { return s + 1, nil })
					}
				}(name)
			}
			wg.Wait()
		})
	}
}

// BenchmarkResilientCounter measures the end-to-end methodology object
// (§1): wait-free core + k-assignment wrapper, against a plain
// mutex-protected counter for scale.
func BenchmarkResilientCounter(b *testing.B) {
	const n, k = 16, 4
	for _, g := range []int{1, k, n} {
		b.Run(fmt.Sprintf("resilient/goroutines%d", g), func(b *testing.B) {
			c := resilient.NewCounter(n, k)
			var wg sync.WaitGroup
			per := (b.N + g - 1) / g
			b.ResetTimer()
			for p := 0; p < g; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						c.Add(p, 1)
					}
				}(p)
			}
			wg.Wait()
		})
		b.Run(fmt.Sprintf("mutex/goroutines%d", g), func(b *testing.B) {
			var mu sync.Mutex
			var v int64
			var wg sync.WaitGroup
			per := (b.N + g - 1) / g
			b.ResetTimer()
			for p := 0; p < g; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						mu.Lock()
						v++
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			_ = v
		})
	}
}

// BenchmarkResilientQueue measures the resilient FIFO under produce/
// consume pairs.
func BenchmarkResilientQueue(b *testing.B) {
	const n, k = 8, 2
	q := resilient.NewQueue[int](n, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(0, i)
		q.Dequeue(1)
	}
}

// BenchmarkSnapshot measures the wait-free snapshot's two operations
// under writer churn.
func BenchmarkSnapshot(b *testing.B) {
	const k = 4
	b.Run("update", func(b *testing.B) {
		s := resilient.NewSnapshot[int64](k)
		for i := 0; i < b.N; i++ {
			s.Update(i%k, int64(i))
		}
	})
	b.Run("scan-quiet", func(b *testing.B) {
		s := resilient.NewSnapshot[int64](k)
		s.Update(0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Scan()
		}
	})
	b.Run("scan-under-churn", func(b *testing.B) {
		s := resilient.NewSnapshot[int64](k)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < k-1; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				v := int64(0)
				for {
					select {
					case <-stop:
						return
					default:
					}
					v++
					s.Update(w, v)
				}
			}(w)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Scan()
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}

// BenchmarkResilientStackStore measures the remaining resilient objects.
func BenchmarkResilientStackStore(b *testing.B) {
	b.Run("stack-push-pop", func(b *testing.B) {
		st := resilient.NewStack[int](8, 2)
		for i := 0; i < b.N; i++ {
			st.Push(0, i)
			st.Pop(1)
		}
	})
	b.Run("store-put-get", func(b *testing.B) {
		kv := resilient.NewStore[int, int](8, 2)
		for i := 0; i < b.N; i++ {
			kv.Put(0, i%64, i)
			kv.Get(1, i%64)
		}
	})
}

// BenchmarkIDPool measures identity leasing.
func BenchmarkIDPool(b *testing.B) {
	for _, g := range []int{1, 4} {
		b.Run(fmt.Sprintf("goroutines%d", g), func(b *testing.B) {
			p := renaming.NewIDPool(8)
			var wg sync.WaitGroup
			per := (b.N + g - 1) / g
			b.ResetTimer()
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						id := p.Get()
						p.Put(id)
					}
				}()
			}
			wg.Wait()
		})
	}
}
