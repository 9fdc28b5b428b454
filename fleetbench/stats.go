package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so p90 needs 100 samples and p99
// needs 1,000.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank method. It refuses a percentile with fewer than minBeyond
// samples beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if beyond := samplesBeyond(n, p); beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples give %.1f",
			p, minBeyond, n, beyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// samplesBeyond is how many of n samples lie beyond the p-th percentile,
// rounded to a millionth so that 100 − 99.9 counts as 0.1.
func samplesBeyond(n int, p float64) float64 {
	return math.Round(float64(n)*(100-p)/100*1e6) / 1e6
}

// tailPercentiles are the candidates highestPercentile picks from.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// highestPercentile returns the highest of tailPercentiles that the
// percentile rule allows for n samples, or 0 when none does.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if samplesBeyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// counters is one process's numeric /debug/vars counters, flattened.
type counters map[string]float64

// delta returns after − before for every counter in after. A counter
// missing from before counts from zero.
func delta(before, after counters) counters {
	out := make(counters, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds the counters of several processes key by key.
func sum(cs ...counters) counters {
	out := counters{}
	for _, c := range cs {
		for k, v := range c {
			out[k] += v
		}
	}
	return out
}

// ratio is num/den, and 0 when den is 0 (nothing attempted, nothing lost).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
