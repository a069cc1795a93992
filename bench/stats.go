package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// samples is a set of per-operation latencies.
type samples []time.Duration

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the q-quantile of sorted samples (nearest rank, 0 if empty).
func quantile(sorted samples, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func (s samples) median() time.Duration { return quantile(s.sorted(), 0.5) }

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// timed runs fn and returns how long it took.
func timed(fn func() error) (time.Duration, error) {
	t := time.Now()
	err := fn()
	return time.Since(t), err
}

// tail returns the highest percentile that still has at least ten samples
// beyond it, and which percentile that is (0, 0 with fewer than 20 samples:
// nothing above the median would qualify).
func tail(sorted samples) (time.Duration, float64) {
	n := len(sorted)
	if n < 20 {
		return 0, 0
	}
	i := n - 11 // exactly ten samples lie beyond index i
	return sorted[i], 100 * float64(i+1) / float64(n)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quartiles returns the first quartile, the median and the third quartile by
// the exclusive method Python's statistics.quantiles(v, n=4) uses, so -compare
// computes the spread the way the driver does.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
