// Package stats holds the order statistics the benchmark and its
// comparator share: interpolated percentiles, the rule for which tail
// percentile a sample supports, and quartiles computed exactly as
// Python's statistics.quantiles does, so a spread reads the same here as
// in any script that checks the result files.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the q-quantile (0 <= q <= 1) of sorted values,
// interpolating linearly between the two nearest ranks. It returns NaN
// for an empty sample.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// TailSupported reports whether n samples leave at least ten beyond the
// q-quantile, the least a tail percentile may rest on: p99 needs 1000
// samples.
func TailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9
}

// Median returns the median of values without reordering them.
func Median(values []float64) float64 {
	return Percentile(Sorted(values), 0.5)
}

// Sorted returns a sorted copy of values.
func Sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// Quartiles returns the three cut points of values as Python's
// statistics.quantiles(values, n=4) computes them with its default
// "exclusive" method. One value is its own quartiles; none gives NaN.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	s := Sorted(values)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var cut [n - 1]float64
	for i := 1; i < n; i++ {
		j := max(1, min(i*m/n, len(s)-1))
		delta := float64(i*m - j*n)
		cut[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut[0], cut[1], cut[2]
}

// Spread returns the interquartile range of values as a share of their
// median: the run-to-run noise a metric's bound must exceed.
func Spread(values []float64) float64 {
	q1, q2, q3 := Quartiles(values)
	return (q3 - q1) / math.Abs(q2)
}
