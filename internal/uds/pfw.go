package uds

import (
	"context"

	"repro/internal/graph"
	"repro/internal/solver"
)

// DefaultPFWIterations is the Frank–Wolfe iteration budget used when
// Params.Iterations is <= 0. Danisch et al. need O(Δ/ε²)-ish iterations for
// a certified (1+ε) bound; 100 sweeps reproduces the paper's setting (ε=1)
// on the benchmark graphs while exposing PFW's characteristic ~two orders
// of magnitude gap to PKMC (each sweep is a full O(m) pass).
const DefaultPFWIterations = 100

// PFW solves UDS with the parallel Frank–Wolfe convex-programming approach
// of Danisch, Chan & Sozio: each edge holds a unit load split between its
// endpoints (alpha[e] = share assigned to the smaller-id endpoint), r(v) is
// the total load on v, and every iteration moves each edge's load toward
// its currently lighter endpoint with the standard 2/(t+2) step size. The
// dense subgraph is extracted by sweeping vertices in decreasing load order
// and keeping the densest prefix ("fractional peeling").
//
// ctx is polled once per Frank–Wolfe sweep (each sweep is a full O(m)
// pass) and a wrapped cancel.ErrCanceled is returned once it is done. A nil
// ctx never cancels. The sweeps and the rounding run on a pooled
// gradScratch (see scratch.go); the per-sweep kernels are //dsd:hotpath and
// allocate nothing.
func PFW(ctx context.Context, g *graph.Undirected, p solver.Params) (solver.Result, error) {
	n := g.N()
	if n == 0 {
		return solver.Result{Algorithm: "PFW"}, nil
	}
	iters := p.Iterations
	if iters <= 0 {
		iters = DefaultPFWIterations
	}
	edges := g.Edges()
	s := getGradScratch(edges, n, p.Workers)
	defer s.release()
	if err := s.frankWolfe(ctx, iters, nil); err != nil {
		return solver.Result{}, err
	}
	view, _ := s.densestPrefix()
	set := append([]int32(nil), view...)
	return solver.Result{
		Algorithm:  "PFW",
		Vertices:   set,
		Density:    g.InducedDensity(set),
		Iterations: iters,
	}, nil
}
