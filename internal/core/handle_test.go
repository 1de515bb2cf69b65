package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestHandleLocker(t *testing.T) {
	kx := NewFastPath(4, 2)
	hs := Handles(kx)
	if len(hs) != 4 {
		t.Fatalf("got %d handles, want 4", len(hs))
	}
	// k = 2 admits two holders at once, so the counter they share must be
	// atomic: the test checks the Locker adapter, not exclusion.
	var shared atomic.Int64
	var wg sync.WaitGroup
	for p := range hs {
		wg.Add(1)
		go func(l sync.Locker) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Lock()
				shared.Add(1)
				l.Unlock()
			}
		}(hs[p])
	}
	wg.Wait()
	if got := shared.Load(); got != 400 {
		t.Fatalf("%d increments, want 400", got)
	}
	if hs[3].PID() != 3 {
		t.Fatal("PID wrong")
	}
}

func TestHandleMutualExclusion(t *testing.T) {
	kx := NewLocalSpin(4, 1)
	hs := Handles(kx)
	shared := 0
	var wg sync.WaitGroup
	for p := range hs {
		wg.Add(1)
		go func(l sync.Locker) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Lock()
				shared++
				l.Unlock()
			}
		}(hs[p])
	}
	wg.Wait()
	if shared != 4*200 {
		t.Fatalf("lost updates through handles: %d", shared)
	}
}

func TestWithReleasesOnPanic(t *testing.T) {
	kx := NewCounting(2, 1)
	func() {
		defer func() { recover() }()
		With(kx, 0, func() { panic("boom") })
	}()
	// The slot must have been released.
	if !kx.TryAcquire(1) {
		t.Fatal("slot leaked after panic inside With")
	}
	kx.Release(1)
}

func TestNewHandleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad pid")
		}
	}()
	NewHandle(NewCounting(2, 1), 5)
}
