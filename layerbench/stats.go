package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile; with fewer, the percentile is an extrapolation from a
// handful of points and the run is rejected.
const minBeyond = 10

// tail returns the p-th percentile (nearest rank) of xs. It fails when
// fewer than minBeyond samples lie beyond that rank.
func tail(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return percentile(xs, p), nil
}

// percentile returns the p-th percentile (nearest rank) of xs, or 0 for
// no samples.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	rank := max(1, min(int(math.Ceil(p/100*float64(n))), n))
	return sorted(xs)[rank-1]
}

// minSamples is the smallest sample count whose p-th percentile has
// minBeyond samples beyond it.
func minSamples(p float64) int {
	n := minBeyond
	for {
		if _, err := tail(make([]float64, n), p); err == nil {
			return n
		}
		n++
	}
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer that did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
