package bench

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func Median(xs []float64) float64 {
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

// Quartiles returns the first, second and third quartile of xs by the
// same rule as Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, so spreads computed here match ones computed from
// the printed results with the standard library. It needs two samples;
// with one, every quartile is that sample.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// Spread is the interquartile distance of xs as a share of its median
// (0 when the median is 0).
func Spread(xs []float64) float64 {
	q1, _, q3 := Quartiles(xs)
	med := Median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// Percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100):
// the smallest sample with at least p% of the samples at or below it.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := nearestRank(len(s), p)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// nearestRank is ceil(p% of n), rounded so that binary fractions such as
// 99.9% of 10000 land on their exact rank.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// Beyond returns how many of n samples lie strictly beyond the
// nearest-rank p-th percentile's rank.
func Beyond(n int, p float64) int {
	rank := nearestRank(n, p)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// WinFraction pairs a[i] with b[i] and returns the share of pairs in which
// b is better than a (higher when higherBetter, lower otherwise). Ties
// count for neither side; pairs beyond the shorter slice are ignored.
func WinFraction(a, b []float64, higherBetter bool) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	wins := 0
	for i := 0; i < n; i++ {
		if (higherBetter && b[i] > a[i]) || (!higherBetter && b[i] < a[i]) {
			wins++
		}
	}
	return float64(wins) / float64(n)
}

// Geomean returns the geometric mean of positive xs (0 for none).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
