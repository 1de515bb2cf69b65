package durable

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"kexclusion/internal/object"
	"kexclusion/internal/resilient"
)

// TestConcurrentApplyAndPeek is the sharing the persistent maps exist
// for, under the race detector: n appliers (k at a time in the core,
// helpers re-running each other's ops on clones of one committed
// state) put into one map while a reader walks whatever state Peek
// returns. Applier p only ever writes key p, with 1, 2, 3, …, so every
// committed state must read as a consistent cut: no key goes
// backwards, and Ver counts exactly the puts it holds.
func TestConcurrentApplyAndPeek(t *testing.T) {
	const n, k, ops = 4, 2, 400
	key := func(p int) string { return fmt.Sprintf("applier-%d", p) }

	var initial ShardState
	StepOp(&initial, 0, 0, 0, Op{Kind: OpCreate, Obj: "kv", Arg: int64(object.TypeMap)})
	sh := resilient.NewShared[ShardState](n, k, initial, ShardState.Clone)

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		last := make([]int64, n)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := sh.Peek()
			var sum int64
			for p := 0; p < n; p++ {
				v, _ := objOf(st, "kv").M.Get(key(p))
				if v < last[p] {
					t.Errorf("key of applier %d went back from %d to %d", p, last[p], v)
					return
				}
				if e, _ := st.Dedup.Get(uint64(p + 1)); int64(e.Seq) != v {
					t.Errorf("applier %d: map holds put %d, dedup window op %d", p, v, e.Seq)
					return
				}
				last[p] = v
				sum += v
			}
			if st.Ver != uint64(1+sum) {
				t.Errorf("state at version %d holds %d puts", st.Ver, sum)
				return
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= ops; i++ {
				op := Op{Kind: OpMapPut, Obj: "kv", Key: key(p), Arg: int64(i)}
				out := sh.Apply(p, func(s ShardState) (ShardState, any) {
					o := StepOp(&s, 8, uint64(p+1), uint64(i), op)
					return s, o
				}).(Outcome)
				if !out.Applied || out.Val != int64(i) {
					t.Errorf("applier %d put %d: %+v", p, i, out)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	st := sh.Peek()
	if st.Ver != 1+n*ops {
		t.Fatalf("final version %d, want %d", st.Ver, 1+n*ops)
	}
	for p := 0; p < n; p++ {
		if v, _ := objOf(st, "kv").M.Get(key(p)); v != ops {
			t.Fatalf("applier %d ended at %d, want %d", p, v, ops)
		}
	}
}
