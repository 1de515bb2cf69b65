package main

import (
	"math/rand"
	"testing"
)

// fakeClock is a pacer whose time moves only when told to: sleeping
// jumps to the wake-up time, a send costs what the test says.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64         { return c.t }
func (c *fakeClock) sleepUntil(t int64) { c.t = t }

// A server that stalls must lengthen the latency of every arrival that
// came due during the stall, by the time each one waited: the schedule
// does not restart when the server comes back.
func TestOpenLoopChargesAStallToTheArrivalsItDelayed(t *testing.T) {
	const (
		gap     = 1000 // one arrival per µs-scale tick
		service = 100
		stall   = 50_000
		burst   = 4
	)
	due := make([]int64, 200)
	for i := range due {
		due[i] = int64(i+1) * gap
	}
	clk := &fakeClock{}
	stalled := false
	send := func(first, n int) {
		if !stalled && due[first] >= 20*gap {
			stalled = true
			clk.t += stall
		}
		clk.t += service
	}
	lat := make([]int64, len(due))
	genLate := make([]int64, len(due))
	openLoop(clk, due, burst, due[len(due)-1]+1, 1<<40, send, func(i int, a arrival) {
		lat[i] = a.doneAt - a.due
		genLate[i] = a.genLate
	})

	for i := 0; i < 19; i++ {
		if lat[i] != service {
			t.Fatalf("arrival %d before the stall: latency %d, want %d", i, lat[i], service)
		}
	}
	// Arrival 19 (due at 20 gaps) took the stall itself; the ones due
	// while it lasted were sent late, in bursts, and each must be
	// charged from its own due time.
	if lat[19] != stall+service {
		t.Fatalf("stalled arrival: latency %d, want %d", lat[19], stall+service)
	}
	for i := 20; i < 20+stall/gap; i++ {
		waited := due[19] + stall + service - due[i] // until the stalled burst returned
		if waited < 0 {
			waited = 0
		}
		if lat[i] < waited+service {
			t.Fatalf("arrival %d came due during the stall and waited %d for the connection, yet its latency is %d", i, waited, lat[i])
		}
		if i > 20 && lat[i] > lat[i-1] && (i-20)%burst != 0 {
			t.Fatalf("within one burst a later arrival (%d) cannot have waited longer than an earlier one: %d > %d", i, lat[i], lat[i-1])
		}
	}
	// The backlog drains at four per send, and the generator was never
	// itself late: the fake clock wakes exactly on time.
	for i, l := range genLate {
		if l != 0 {
			t.Fatalf("arrival %d: generator lateness %d with an exact clock", i, l)
		}
	}
	if last := lat[len(lat)-1]; last != service {
		t.Fatalf("after the backlog drained latency should be back to %d, got %d", service, last)
	}
}

func TestOpenLoopCountsBacklogAndUnsent(t *testing.T) {
	due := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	clk := &fakeClock{}
	send := func(first, n int) { clk.t += 45 } // slower than the arrivals
	backlog, unsent := openLoop(clk, due, 1, 80, 200, send, func(int, arrival) {})
	if backlog == 0 {
		t.Fatal("a connection slower than its arrivals ended with no backlog")
	}
	if unsent == 0 {
		t.Fatal("the hard stop left nothing unsent, yet the loop cannot have sent 8 x 45 by 200")
	}
}

func TestPoissonArrivalsAreSeeded(t *testing.T) {
	a := poissonArrivals(rand.New(rand.NewSource(7)), 4000, 1e9)
	b := poissonArrivals(rand.New(rand.NewSource(7)), 4000, 1e9)
	if len(a) != len(b) || len(a) < 3600 || len(a) > 4400 {
		t.Fatalf("%d and %d arrivals in one second at 4000/s", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two draws from the same seed", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d is before arrival %d", i, i-1)
		}
	}
}
