package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before it
// is reported: with fewer, the value is set by a handful of outliers and does
// not repeat from run to run.
const minBeyond = 10

// median returns the middle of the samples (the mean of the two middle ones
// for an even count), or 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sorted(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (50 < p < 100) by the nearest-rank
// rule, and refuses when fewer than minBeyond samples lie beyond it.
func percentile(samples []float64, p float64) (float64, error) {
	if p <= 50 || p >= 100 {
		return 0, fmt.Errorf("percentile %v is not a tail percentile", p)
	}
	n := len(samples)
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if beyond := n - 1 - idx; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has fewer than %d samples beyond it", p, n, minBeyond)
	}
	return sorted(samples)[idx], nil
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
