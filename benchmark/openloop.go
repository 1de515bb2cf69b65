package main

import (
	"math/rand"
	"syscall"
	"time"
)

// pacer is the clock the open-loop scheduler runs against: the real
// one below, a fake one in the scheduler's test. Times are nanoseconds
// since the pacer's own origin.
type pacer interface {
	now() int64
	sleepUntil(t int64)
}

// wallPacer sleeps with nanosleep(2) and spins through the last
// stretch. time.Sleep cannot be used here: the Go runtime parks timers
// on epoll with a millisecond timeout, so on Linux a 250 µs sleep
// returns after ~1.1 ms — four arrivals late at this workload's rate.
type wallPacer struct{ origin time.Time }

func (p wallPacer) now() int64 { return int64(time.Since(p.origin)) }

// spinWindow is how early nanosleep is asked to return: its typical
// overshoot (timer slack plus wake-up) on the reference box is 60–100 µs.
const spinWindow = 90 * time.Microsecond

func (p wallPacer) sleepUntil(t int64) {
	for {
		d := time.Duration(t - p.now())
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
		}
		// else: spin on the clock
	}
}

// poissonArrivals pre-draws one connection's arrival times: exponential
// gaps at ratePerSec, from r, covering [0, until).
func poissonArrivals(r *rand.Rand, ratePerSec float64, until int64) []int64 {
	var due []int64
	t := 0.0
	for {
		t += r.ExpFloat64() / ratePerSec * 1e9
		if int64(t) >= until {
			return due
		}
		due = append(due, int64(t))
	}
}

// arrival is what the scheduler reports for one operation.
type arrival struct {
	due    int64 // when it should have been sent
	sentAt int64 // when its burst was handed to the connection
	doneAt int64 // when its reply arrived
	// genLate is the part of sentAt-due the generator itself caused:
	// time past both the due time and the moment the connection became
	// free. The rest of sentAt-due is the connection waiting for the
	// previous burst's replies — the server's doing, which belongs in
	// the latency and not in the generator's lateness.
	genLate int64
}

// openLoop sends one connection's arrivals on schedule. Whatever is
// due when the connection is free goes out as one burst of at most
// maxBurst operations; send performs the burst and returns when its
// last reply has arrived. Latency is the caller's to compute from
// arrival.due, never from sentAt, so a stalled server delays — and
// lengthens — every arrival that came due during the stall.
//
// The loop gives up at hardStop. backlogAtEnd is the number of
// arrivals already due but not yet sent at time end; unsent is what
// was still unsent when the loop returned.
func openLoop(clk pacer, due []int64, maxBurst int, end, hardStop int64,
	send func(first, n int), report func(i int, a arrival)) (backlogAtEnd, unsent int) {
	next := 0
	freeAt := int64(0)
	sawEnd := false
	noteEnd := func(now int64) {
		if sawEnd || now < end {
			return
		}
		sawEnd = true
		for i := next; i < len(due) && due[i] <= end; i++ {
			backlogAtEnd++
		}
	}
	for next < len(due) {
		now := clk.now()
		noteEnd(now)
		if now >= hardStop {
			break
		}
		if due[next] > now {
			clk.sleepUntil(due[next])
			continue
		}
		n := 1
		for next+n < len(due) && n < maxBurst && due[next+n] <= now {
			n++
		}
		send(next, n)
		done := clk.now()
		for i := next; i < next+n; i++ {
			ready := due[i]
			if freeAt > ready {
				ready = freeAt
			}
			report(i, arrival{due: due[i], sentAt: now, doneAt: done, genLate: now - ready})
		}
		freeAt = done
		next += n
	}
	noteEnd(clk.now())
	return backlogAtEnd, len(due) - next
}
