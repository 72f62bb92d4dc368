package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method); xs is not modified. NaN for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailQuantile is the highest percentile, capped at p99, that still has
// at least ten samples beyond it: p99 needs 1000 samples, 500 samples give
// p98. It returns the quantile and its label, e.g. "p98.0".
func tailQuantile(xs []float64) (float64, string) {
	q := 0.99
	if n := float64(len(xs)); n > 0 && 1-10/n < q {
		q = math.Max(0.5, 1-10/n)
	}
	return quantile(xs, q), fmt.Sprintf("p%.1f", 100*q)
}

// spreadNote summarizes a sample for the report.
func spreadNote(xs []float64) string {
	return fmt.Sprintf("n=%d min %.1f q1 %.1f p50 %.1f q3 %.1f p90 %.1f p95 %.1f p98 %.1f p99 %.1f max %.1f",
		len(xs), quantile(xs, 0), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 0.9),
		quantile(xs, 0.95), quantile(xs, 0.98), quantile(xs, 0.99), quantile(xs, 1))
}

// series is a timed sample: each value with the time, in seconds into the
// timed window, at which its op completed.
type series struct{ at, v []float64 }

func (s *series) add(at, v float64) {
	s.at = append(s.at, at)
	s.v = append(s.v, v)
}

func (s *series) len() int { return len(s.v) }

// byWindow cuts the timed window into whole windows of w seconds, applies
// stat to the values of each, and returns the median over the windows and
// their number. A stall of the machine or of the program that hits one
// window moves that window's figure only, so the median over windows is a
// steadier figure than one pass over the whole run. Samples past the last
// whole window are dropped.
func (s *series) byWindow(w float64, total float64, stat func([]float64) float64) (float64, int) {
	n := int(total / w)
	if n < 1 {
		return stat(s.v), 1
	}
	buckets := make([][]float64, n)
	for i, at := range s.at {
		if k := int(at / w); k < n {
			buckets[k] = append(buckets[k], s.v[i])
		}
	}
	var per []float64
	for _, b := range buckets {
		if len(b) > 0 {
			per = append(per, stat(b))
		}
	}
	return median(per), len(per)
}

// p50 and p90 are quantile shorthands for byWindow.
func p50(xs []float64) float64 { return quantile(xs, 0.5) }
func p90(xs []float64) float64 { return quantile(xs, 0.9) }
