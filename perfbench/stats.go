package main

import (
	"math"
	"sort"
	"time"
)

// samples is one operation type's latencies.
type samples []time.Duration

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of s, which
// must be sorted: the smallest sample with at least a share p of the
// samples at or below it.
func (s samples) percentile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

// tailQuantile is the highest quantile, at most p99, that n samples
// support with at least ten samples beyond it: 0.99 from 1000 samples on.
func tailQuantile(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	return math.Max(0.5, math.Floor(1000*(1-10/float64(n)))/1000)
}

// recorder collects one goroutine's latencies per operation type.
type recorder struct {
	lat  [len(opNames)]samples
	late samples // open loop: send time minus due time
}

// add records one request's latency and, for a scheduled request, how
// late it was sent.
func (r *recorder) add(k opKind, latency, late time.Duration, scheduled bool) {
	r.lat[k] = append(r.lat[k], latency)
	if scheduled {
		r.late = append(r.late, late)
	}
}

func (r *recorder) merge(o *recorder) {
	for i := range r.lat {
		r.lat[i] = append(r.lat[i], o.lat[i]...)
	}
	r.late = append(r.late, o.late...)
}

func (r *recorder) count(kinds ...opKind) int {
	n := 0
	for _, k := range kinds {
		n += len(r.lat[k])
	}
	return n
}

func (r *recorder) joined(kinds ...opKind) samples {
	var out samples
	for _, k := range kinds {
		out = append(out, r.lat[k]...)
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
