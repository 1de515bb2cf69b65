package main

import (
	"math"
	"sort"
)

// quantile reads the q-quantile of an ascending slice, interpolating
// between neighbours so that a reported time is not pinned to one
// sample's clock reading.
func quantile[T uint32 | int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles placed where Python's
// statistics.quantiles(v, n=4) places them (the "exclusive" method) —
// the spread the acceptance rule for this benchmark is stated in.
func quartileSpread(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(v)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}

// trimmedMean is the mean of v without its lowest and its highest
// value (the plain mean below three values).
func trimmedMean(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) > 2 {
		s = s[1 : len(s)-1]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// windowStat reduces per-window samples to one number: f of each
// window in [lo, hi), then the trimmed mean over those windows — one
// window lost to a hiccup, or one flattered by an idle neighbour, does
// not count, and the rest average out a trend within the run (the
// median window, measured on this benchmark's own runs, moves twice as
// far between runs of quorum-put, whose rate falls all through a run,
// and no less on the steady workloads). When some window holds fewer
// than minPerWindow samples, f is applied once to the pooled samples of
// the whole range instead, and pooled reports so.
func windowStat(wins [][]uint32, lo, hi, minPerWindow int, f func(sorted []uint32) float64) (v float64, n int, pooled bool) {
	for w := lo; w < hi; w++ {
		n += len(wins[w])
		if len(wins[w]) < minPerWindow {
			pooled = true
		}
	}
	if n == 0 {
		return 0, 0, true
	}
	if pooled {
		var all []uint32
		for w := lo; w < hi; w++ {
			all = append(all, wins[w]...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		return f(all), n, true
	}
	per := make([]float64, 0, hi-lo)
	for w := lo; w < hi; w++ {
		per = append(per, f(wins[w]))
	}
	return trimmedMean(per), n, false
}
