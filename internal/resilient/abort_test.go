package resilient

import (
	"context"
	"errors"
	"sync"
	"testing"

	"kexclusion/internal/obs"
)

func TestApplyCtxExactlyOnceOrNotAtAll(t *testing.T) {
	const n, k = 6, 2
	m := obs.New()
	s := NewSharedConfig(n, k, int64(0), nil, Config{Metrics: m})
	inc := func(st int64) (int64, any) { return st + 1, st + 1 }

	// Occupy both slots with ops parked inside the critical section.
	var hold sync.WaitGroup
	entered := make(chan int, k)
	release := make(chan struct{})
	for p := 0; p < k; p++ {
		hold.Add(1)
		go func(p int) {
			defer hold.Done()
			s.Apply(p, func(st int64) (int64, any) {
				entered <- p
				<-release
				return st + 1, st + 1
			})
		}(p)
	}
	for i := 0; i < k; i++ {
		<-entered
	}

	// A third process with an expired context withdraws: its op is not
	// applied and no capacity is consumed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ApplyCtx(ctx, k, inc); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyCtx on full object = %v, want context.Canceled", err)
	}

	close(release)
	hold.Wait()

	// The withdrawn op must not have been applied; the retried op must
	// apply exactly once.
	if got := s.Peek(); got != int64(k) {
		t.Fatalf("state = %d after %d held ops and one withdrawal, want %d", got, k, k)
	}
	v, err := s.ApplyCtx(context.Background(), k, inc)
	if err != nil {
		t.Fatalf("ApplyCtx retry = %v", err)
	}
	if v != int64(k+1) || s.Peek() != int64(k+1) {
		t.Fatalf("retry result %v, state %d; want %d", v, s.Peek(), k+1)
	}
	if got := m.Snapshot().Aborts; got < 1 {
		t.Fatalf("aborts = %d, want >= 1 after withdrawal", got)
	}
}

// TestSharedMetricsAccounting: under one sink, the universal core
// counts every applied op once, and the wrapper grants one name per
// slot acquisition.
func TestSharedMetricsAccounting(t *testing.T) {
	const n, k, ops = 6, 2, 8
	m := obs.New()
	s := NewSharedConfig(n, k, int64(0), nil, Config{Metrics: m})
	inc := func(st int64) (int64, any) { return st + 1, st + 1 }
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				s.Apply(p, inc)
			}
		}(p)
	}
	wg.Wait()
	snap := m.Snapshot()
	if snap.AppliedOps != n*ops || s.Peek() != n*ops {
		t.Fatalf("applied_ops=%d state=%d, want %d", snap.AppliedOps, s.Peek(), n*ops)
	}
	if snap.NameAttempts != snap.Acquires {
		t.Fatalf("name grants=%d acquires=%d, want equal", snap.NameAttempts, snap.Acquires)
	}
	if snap.CurrentHolders != 0 {
		t.Fatalf("current_holders=%d after quiescence", snap.CurrentHolders)
	}
}

func TestApplyCtxConcurrentMixedDeadlines(t *testing.T) {
	const n, k, iters = 8, 2, 50
	s := NewShared(n, k, int64(0), nil)
	inc := func(st int64) (int64, any) { return st + 1, nil }

	var applied int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if i%4 == 0 {
					cancel() // pre-expired: may still succeed uncontended
				}
				_, err := s.ApplyCtx(ctx, p, inc)
				cancel()
				if err == nil {
					mu.Lock()
					applied++
					mu.Unlock()
				}
			}
		}(p)
	}
	wg.Wait()
	if got := s.Peek(); got != applied {
		t.Fatalf("state %d != successful ApplyCtx count %d: an op was lost or doubled", got, applied)
	}
}
