package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie strictly beyond a tail
// percentile before it is reported: a p99 read off fewer than ten slower
// samples is one outlier, not a tail.
const minBeyond = 10

// failedLatency is the latency a failed request enters the percentiles
// with: it missed every limit, so a fix can only move a percentile down.
var failedLatency = math.Inf(1)

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs.
// It refuses a tail percentile (p > 50) with fewer than minBeyond samples
// beyond it; the median is always reported, with its sample count, as the
// one timing every run can give. It also refuses a percentile that lands
// on a failed (+Inf) sample, since that is no latency at all.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("p%g: no samples", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if beyond := len(s) - rank; p > 50 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g: only %d of %d samples lie beyond it (need %d)", p, beyond, len(s), minBeyond)
	}
	v := s[rank-1]
	if math.IsInf(v, 1) {
		return 0, fmt.Errorf("p%g: falls on a failed request", p)
	}
	return v, nil
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
