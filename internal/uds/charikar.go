package uds

import (
	"context"

	"repro/internal/bucket"
	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/solver"
)

// Charikar is the classic serial 2-approximation: peel the minimum-degree
// vertex one at a time and return the intermediate subgraph of highest
// density. O(m + n) with a bucket queue. It is inherently sequential — each
// removal must update neighbor degrees before the next minimum is valid —
// which is exactly the dependency the paper's parallel algorithms break.
func Charikar(ctx context.Context, g *graph.Undirected, _ solver.Params) (solver.Result, error) {
	if err := cancel.Check(ctx); err != nil {
		return solver.Result{}, err
	}
	n := g.N()
	if n == 0 {
		return solver.Result{Algorithm: "Charikar"}, nil
	}
	q := bucket.New(g.Degrees(), g.MaxDegree())
	edgesLeft := g.M()
	bestDensity := float64(edgesLeft) / float64(n)
	bestRemovals := 0
	order := make([]int32, 0, n)
	for q.Len() > 1 {
		v, k := q.ExtractMin()
		order = append(order, v)
		edgesLeft -= int64(k)
		for _, u := range g.Neighbors(v) {
			q.Decrement(u)
		}
		if d := float64(edgesLeft) / float64(n-len(order)); d > bestDensity {
			bestDensity = d
			bestRemovals = len(order)
		}
	}
	removed := make([]bool, n)
	for _, v := range order[:bestRemovals] {
		removed[v] = true
	}
	keep := make([]int32, 0, n-bestRemovals)
	for v := 0; v < n; v++ {
		if !removed[v] {
			keep = append(keep, int32(v))
		}
	}
	return solver.Result{
		Algorithm:  "Charikar",
		Vertices:   keep,
		Density:    g.InducedDensity(keep),
		Iterations: n - 1, // one peel step per vertex
	}, nil
}
