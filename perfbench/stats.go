package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile's rank before
// the benchmark reports it: a p99 over 200 samples rests on two
// observations and is refused rather than printed.
const minTail = 10

// quantile returns the nearest-rank q-quantile of ascending samples: the
// smallest sample v with at least q·n samples <= v. tail is the number of
// samples ranked above it. It refuses when tail < minTail.
func quantile(sorted []int64, q float64) (v int64, tail int, err error) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	tail = n - rank
	if n == 0 || tail < minTail {
		return 0, tail, fmt.Errorf("p%g refused: %d samples, %d beyond the rank (need %d)", q*100, n, max(tail, 0), minTail)
	}
	return sorted[rank-1], tail, nil
}

// latency is a percentile of a latency sample with its sample count.
type latency struct {
	q    float64
	v    time.Duration
	n    int
	tail int
}

func (l latency) ms() float64 { return float64(l.v) / 1e6 }
func (l latency) us() float64 { return float64(l.v) / 1e3 }

func (l latency) String() string {
	return fmt.Sprintf("p%g of n=%d (%d beyond)", l.q*100, l.n, l.tail)
}

// percentile sorts samples in place and returns their q-quantile.
func percentile(samples []int64, q float64) (latency, error) {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	v, tail, err := quantile(samples, q)
	return latency{q: q, v: time.Duration(v), n: len(samples), tail: tail}, err
}

// ratio is a derived number kept with its base so the output can say what
// it was divided by. A zero base yields 0 and prints as n/a.
type ratio struct {
	num, den float64
}

func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	if r.den == 0 {
		return fmt.Sprintf("n/a (%.6g / base 0)", r.num)
	}
	return fmt.Sprintf("%.6g / %.6g", r.num, r.den)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), sorting a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
