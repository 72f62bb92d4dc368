package dds

import "math"

// densityOf is a convenience for |E(S,T)| already known.
func densityOf(e int64, s, t int) float64 {
	if s == 0 || t == 0 {
		return 0
	}
	return float64(e) / math.Sqrt(float64(s)*float64(t))
}
