package dds

import (
	"testing"

	"repro/internal/gen"
)

// BenchmarkWStarSubgraph times the w*-decomposition (Algorithm 3 with the
// d_max warm start) on a digraph shaped like the benchmark's TW input: an
// RMAT body on 2^13 vertices with 130k generated arcs plus a planted 44×61
// biclique. It reports the arc slots the peel visits per run.
func BenchmarkWStarSubgraph(b *testing.B) {
	d := gen.CompositeDirected(gen.RMATDirected(13, 130_000, 0.55, 0.19, 0.19, 2024), 44, 61, 2025)
	b.ReportAllocs()
	b.ResetTimer()
	var res WStarResult
	for i := 0; i < b.N; i++ {
		res = WStarSubgraph(d, 0)
	}
	b.ReportMetric(float64(res.ArcsScanned), "arcs_scanned/op")
	b.ReportMetric(float64(res.Levels), "levels")
}
