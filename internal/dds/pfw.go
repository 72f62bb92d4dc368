package dds

import (
	"context"
	"sort"
	"time"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/solver"
)

// DefaultPFWIterations is the directed Frank–Wolfe iteration budget when
// Params.Iterations is <= 0. Each iteration is a full O(m) pass; the
// large constant is what puts PFW orders of magnitude behind PWC in Exp-5.
const DefaultPFWIterations = 100

// PFW solves DDS with a Frank–Wolfe load-balancing scheme, the directed
// analogue of the Danisch et al. convex program: every arc (u, v) splits a
// unit load between its tail's S-role and its head's T-role, each
// iteration shifts arc loads toward the currently lighter role with the
// 2/(t+2) step size, and the answer is extracted by sweeping a threshold τ
// downward over the role loads — S(τ) = {u : load_S(u) >= τ},
// T(τ) = {v : load_T(v) >= τ} — keeping the densest pair. The extraction is
// O(m) total because arcs join E(S, T) incrementally as their endpoints
// cross the threshold.
//
// (Substitution note: the paper's PFW cites Su & Vu's distributed dual
// algorithm; this shared-memory reformulation keeps the same convex
// objective, per-iteration cost, and qualitative convergence behaviour.)
//
// ctx is polled once per Frank–Wolfe sweep alongside the p.Budget
// deadline. A budget expiry keeps the best-so-far answer (TimedOut set); a
// ctx expiry abandons the run with a wrapped cancel.ErrCanceled. A nil ctx
// never cancels.
func PFW(ctx context.Context, d *graph.Directed, p solver.Params) (solver.DirectedResult, error) {
	n := d.N()
	m := int(d.M())
	if n == 0 || m == 0 {
		return solver.DirectedResult{Algorithm: "PFW"}, nil
	}
	iters := p.Iterations
	if iters <= 0 {
		iters = DefaultPFWIterations
	}
	deadline := time.Time{}
	if p.Budget > 0 {
		deadline = time.Now().Add(p.Budget)
	}
	arcs := d.Arcs()
	alpha := make([]float64, m) // load share on the tail's S-role
	rS := make([]float64, n)
	rT := make([]float64, n)
	for i := range alpha {
		alpha[i] = 0.5
	}
	recompute := func() {
		workers := parallel.Threads(p.Workers)
		partS := make([][]float64, workers)
		partT := make([][]float64, workers)
		parallel.Workers(workers, func(w int) {
			ls := make([]float64, n)
			lt := make([]float64, n)
			lo, hi := m*w/workers, m*(w+1)/workers
			for i := lo; i < hi; i++ {
				ls[arcs[i].U] += alpha[i]
				lt[arcs[i].V] += 1 - alpha[i]
			}
			partS[w] = ls
			partT[w] = lt
		})
		parallel.For(n, p.Workers, func(v int) {
			var s, t float64
			for w := 0; w < workers; w++ {
				s += partS[w][v]
				t += partT[w][v]
			}
			rS[v] = s
			rT[v] = t
		})
	}
	recompute()
	done := 0
	timedOut := false
	for t := 0; t < iters; t++ {
		if err := cancel.Check(ctx); err != nil {
			return solver.DirectedResult{}, err
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			timedOut = true
			break
		}
		gamma := 2.0 / float64(t+2)
		parallel.For(m, p.Workers, func(i int) {
			a := arcs[i]
			var target float64
			switch {
			case rS[a.U] < rT[a.V]:
				target = 1
			case rS[a.U] > rT[a.V]:
				target = 0
			default:
				target = 0.5
			}
			alpha[i] = (1-gamma)*alpha[i] + gamma*target
		})
		recompute()
		done++
	}

	s, t, density := thresholdExtract(d, rS, rT)
	return solver.DirectedResult{
		Algorithm:  "PFW",
		S:          s,
		T:          t,
		Density:    density,
		Iterations: done,
		TimedOut:   timedOut,
	}, nil
}

// thresholdExtract sweeps the distinct load values downward, adding each
// vertex to S (resp. T) when its S-load (resp. T-load) crosses the
// threshold, maintaining |E(S, T)| incrementally, and returns the densest
// pair encountered.
func thresholdExtract(d *graph.Directed, rS, rT []float64) (bestS, bestT []int32, bestDensity float64) {
	n := d.N()
	type event struct {
		load  float64
		v     int32
		sRole bool
	}
	events := make([]event, 0, 2*n)
	for v := int32(0); int(v) < n; v++ {
		if rS[v] > 0 {
			events = append(events, event{rS[v], v, true})
		}
		if rT[v] > 0 {
			events = append(events, event{rT[v], v, false})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].load > events[j].load })

	inS := make([]bool, n)
	inT := make([]bool, n)
	var sizeS, sizeT int
	var edges int64
	bestDensity = -1
	var order []event // events applied so far, for replay
	bestLen := 0
	for i, ev := range events {
		if ev.sRole {
			inS[ev.v] = true
			sizeS++
			for _, w := range d.OutNeighbors(ev.v) {
				if inT[w] {
					edges++
				}
			}
		} else {
			inT[ev.v] = true
			sizeT++
			for _, u := range d.InNeighbors(ev.v) {
				if inS[u] {
					edges++
				}
			}
		}
		order = append(order, ev)
		// Only evaluate at distinct-threshold boundaries: equal loads
		// join together before the density test.
		if i+1 < len(events) && events[i+1].load == ev.load {
			continue
		}
		if dd := densityOf(edges, sizeS, sizeT); dd > bestDensity {
			bestDensity = dd
			bestLen = len(order)
		}
	}
	for v := range inS {
		inS[v] = false
		inT[v] = false
	}
	for _, ev := range order[:bestLen] {
		if ev.sRole {
			inS[ev.v] = true
		} else {
			inT[ev.v] = true
		}
	}
	for v := int32(0); int(v) < n; v++ {
		if inS[v] {
			bestS = append(bestS, v)
		}
		if inT[v] {
			bestT = append(bestT, v)
		}
	}
	if bestDensity < 0 {
		bestDensity = 0
	}
	return bestS, bestT, bestDensity
}
