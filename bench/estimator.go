package main

import (
	"math"
	"sort"
	"time"
)

// stat is one reported metric: the median over the run's samples (timed
// segments, set-up repetitions) with the inter-quartile range beside it as
// the in-run noise figure. Obs is how many raw observations (operations)
// stood behind each sample, where the sample is itself a percentile.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Obs   int     `json:"obs,omitempty"`
}

// summarize reports samples as median and quartiles. A single sample is its
// own median with a zero-width range.
func summarize(samples []float64) stat {
	if len(samples) == 0 {
		return stat{}
	}
	q1, med, q3 := quartiles(samples)
	return stat{Value: med, Q1: q1, Q3: q3, N: len(samples)}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method: position
// i*(n+1)/4 with linear interpolation between the two neighbours), which is the
// estimator the acceptance driver applies across runs.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile range as a share of the median.
func (s stat) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

// tailQuantile is the highest quantile a sample of n observations supports
// with at least ten observations beyond it, capped at want (0.99) and never
// below the median.
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return want
	}
	q := 1 - 10/float64(n)
	if q > want {
		q = want
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func sortDurations(ds []time.Duration) []time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}
