package bench

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Median returns the median of xs (0 for an empty slice).
func Median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method) — the
// rule the benchmark driver applies to ten runs of a metric. It needs
// at least two samples.
func Quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		return 0, 0, 0, false
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// Spread is the interquartile distance of xs as a share of its median:
// the run-to-run spread the regression bounds are compared against.
// Fewer than two samples, or a median that is not positive (every
// metric here is a time, a rate or a size), give 0.
func Spread(xs []float64) float64 {
	q1, med, q3, ok := Quartiles(xs)
	if !ok || !(med > 0) {
		return 0
	}
	return (q3 - q1) / med
}

// QuantileSpread estimates, from one run's samples, the run-to-run
// spread of their pct-th percentile: the distance between the order
// statistics that bracket the middle half of the percentile's sampling
// distribution — ranks n·p + ½ ± 0.6745·sqrt(n·p·(1−p)), interpolated —
// as a share of the percentile itself. It is the within-run counterpart
// of Spread over the medians of repeated runs, which the spread of the
// raw samples overstates by about sqrt(n).
func QuantileSpread(xs []float64, pct int) float64 {
	s := sorted(xs)
	n, p := float64(len(s)), float64(pct)/100
	q, _ := Percentile(xs, p)
	if len(s) < 2 || !(q > 0) {
		return 0
	}
	at := func(rank float64) float64 {
		rank = math.Max(1, math.Min(n, rank))
		lo := int(rank)
		if lo == len(s) {
			return s[lo-1]
		}
		frac := rank - float64(lo)
		return s[lo-1]*(1-frac) + s[lo]*frac
	}
	half := 0.6745 * math.Sqrt(n*p*(1-p))
	return (at(n*p+0.5+half) - at(n*p+0.5-half)) / q
}

// MeanSpread is the same estimate for the mean of xs (and so for a
// rate, the reciprocal of a mean latency): the samples' own spread
// shrunk by sqrt(n).
func MeanSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Spread(xs) / math.Sqrt(float64(len(xs)))
}

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 1) of
// xs and the number of samples strictly beyond that rank.
func Percentile(xs []float64, p float64) (value float64, beyond int) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n - rank
}

// minTailSamples is the number of samples that must lie beyond a
// percentile before it is reported (choosing-metrics: "the highest
// percentile that has at least ten samples beyond it").
const minTailSamples = 10

// Tail returns the 80th percentile of xs when at least minTailSamples
// samples lie beyond it, and the median otherwise; pct says which (80
// or 50). A closed loop of a handful of solves therefore reports its
// median twice rather than a near-maximum dressed up as a percentile.
func Tail(xs []float64) (value float64, pct int) {
	if v, beyond := Percentile(xs, 0.80); beyond >= minTailSamples {
		return v, 80
	}
	return Median(xs), 50
}

// minMax returns the extremes of xs (0, 0 when empty).
func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}
