package uds

import (
	"context"

	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/trace"
)

// PKMC returns the k*-core computed by the paper's Algorithm 2 — a
// 2-approximate densest subgraph (Lemma 1) — with p.Workers workers. With
// p.Trace armed it records phase timings and the per-sweep h-index
// convergence (Algorithm 2's h_max / candidate-count pair and the
// Theorem-1 early-stop trigger).
func PKMC(ctx context.Context, g *graph.Undirected, p solver.Params) (solver.Result, error) {
	if err := cancel.Check(ctx); err != nil {
		return solver.Result{}, err
	}
	tr := p.Trace
	tr.SetAlgorithm("PKMC")
	endCore := tr.StartPhase("core-decomposition")
	res := core.PKMCWithOptions(g, p.Workers, core.PKMCOptions{Trace: tr})
	endCore()
	return kStarResult("PKMC", g, res.KStar, res.Vertices, res.Iterations, tr), nil
}

// Local returns the k*-core via full h-index convergence (Algorithm 1), the
// paper's "Local" baseline, recording the same per-sweep trace as PKMC —
// the full-convergence baseline against which PKMC's early stop is judged.
func Local(ctx context.Context, g *graph.Undirected, p solver.Params) (solver.Result, error) {
	if err := cancel.Check(ctx); err != nil {
		return solver.Result{}, err
	}
	tr := p.Trace
	tr.SetAlgorithm("Local")
	endCore := tr.StartPhase("core-decomposition")
	res := core.LocalWithTrace(g, p.Workers, tr)
	k, vs := core.KStarCore(res.CoreNum)
	endCore()
	return kStarResult("Local", g, k, vs, res.Iterations, tr), nil
}

// kStarResult evaluates a k*-core answer's density as the traced
// "density-evaluation" phase and records its k* and size.
func kStarResult(name string, g *graph.Undirected, k int32, vs []int32, iters int, tr *trace.Trace) solver.Result {
	endDensity := tr.StartPhase("density-evaluation")
	density := g.InducedDensity(vs)
	endDensity()
	tr.Counter("k_star", int64(k))
	tr.Counter("core_size", int64(len(vs)))
	return solver.Result{Algorithm: name, Vertices: vs, Density: density, Iterations: iters, KStar: k}
}

// PKC returns the k*-core via parallel level peeling (Kabir–Madduri), the
// paper's "PKC" baseline.
func PKC(ctx context.Context, g *graph.Undirected, p solver.Params) (solver.Result, error) {
	if err := cancel.Check(ctx); err != nil {
		return solver.Result{}, err
	}
	k, vs, iters := core.PKCKStarCore(g, p.Workers)
	return solver.Result{
		Algorithm:  "PKC",
		Vertices:   vs,
		Density:    g.InducedDensity(vs),
		Iterations: iters,
		KStar:      k,
	}, nil
}

// BZ returns the k*-core via the serial Batagelj–Zaveršnik decomposition —
// not one of the paper's compared algorithms, but the natural single-thread
// reference point.
func BZ(ctx context.Context, g *graph.Undirected, p solver.Params) (solver.Result, error) {
	if err := cancel.Check(ctx); err != nil {
		return solver.Result{}, err
	}
	k, vs := core.KStarCore(core.BZ(g))
	return solver.Result{
		Algorithm: "BZ",
		Vertices:  vs,
		Density:   g.InducedDensity(vs),
		KStar:     k,
	}, nil
}
