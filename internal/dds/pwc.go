package dds

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/solver"
)

// PWC is the paper's Algorithm 4: the parallel 2-approximate DDS solver
// built on the w-induced subgraph. It (1) computes the w*-induced subgraph
// with Algorithm 3 plus the d_max warm start, (2) locates the maximum
// cn-pair [x*, y*] inside it by deleting exact-weight edges per candidate
// in-degree until the subgraph collapses (Lemma 6), and (3) peels the
// [x*, y*]-core out of the w*-induced subgraph (legitimate since the core
// is contained in it by Lemma 4 + Theorem 2).
//
// An armed p.Trace times the three stages as phases and records the
// paper's Table-7 arc counts as counters: arcs_input (all m, what PXY
// re-processes per candidate), arcs_after_warm_start ("PWC₁", after the
// first d_max level), arcs_at_wstar ("PWC_w*", the w*-induced subgraph),
// arcs_densest ("PWC_D*", |E(S,T)| of the returned core), wstar and
// levels.
func PWC(ctx context.Context, d *graph.Directed, p solver.Params) (solver.DirectedResult, error) {
	if err := cancel.Check(ctx); err != nil {
		return solver.DirectedResult{}, err
	}
	tr := p.Trace
	tr.SetAlgorithm("PWC")
	var ws WStarResult
	var arcsDensest int64
	defer func() {
		tr.Counter("arcs_input", d.M())
		tr.Counter("arcs_after_warm_start", ws.ArcsAfterWarmStart)
		tr.Counter("arcs_at_wstar", ws.ArcsAtWStar)
		tr.Counter("arcs_densest", arcsDensest)
		tr.Counter("wstar", ws.WStar)
		tr.Counter("levels", int64(ws.Levels))
		tr.RaisePeak(ws.ArcsAfterWarmStart)
	}()
	if d.M() == 0 {
		return solver.DirectedResult{Algorithm: "PWC"}, nil
	}
	endDecomp := tr.StartPhase("wstar-decomposition")
	ws = WStarSubgraph(d, p.Workers)
	endDecomp()

	h := ws.Subgraph
	endSearch := tr.StartPhase("cnpair-search")
	x, y := findMaxCNPair(h, ws.WStar, p.Workers)
	endSearch()
	if x < 1 || y < 1 {
		return solver.DirectedResult{Algorithm: "PWC"}, nil
	}
	// Extract the [x*, y*]-core from the w*-induced subgraph. The peel on
	// h equals the peel on d restricted to h because the core of d is a
	// subgraph of h.
	endExtract := tr.StartPhase("core-extraction")
	s, t := XYCore(h, x, y)
	if len(s) == 0 || len(t) == 0 {
		// Defensive fallback (see findMaxCNPair): scan the divisor pairs
		// of w* for a non-empty core; Theorem 2 guarantees one exists.
		x, y, s, t = bestDivisorCore(h, ws.WStar)
		if len(s) == 0 {
			endExtract()
			return solver.DirectedResult{Algorithm: "PWC"}, nil
		}
	}
	sOrig := mapBack(s, ws.Original)
	tOrig := mapBack(t, ws.Original)
	arcsDensest = d.EdgesST(sOrig, tOrig)
	endExtract()
	return solver.DirectedResult{
		Algorithm:  "PWC",
		S:          sOrig,
		T:          tOrig,
		Density:    densityOf(arcsDensest, len(sOrig), len(tOrig)),
		XStar:      x,
		YStar:      y,
		Iterations: ws.Levels,
	}, nil
}

// findMaxCNPair runs the edge-deletion search of Algorithm 4 on the
// w*-induced subgraph h: collect the candidate in-degrees d* of arcs whose
// weight is exactly w*, and for each (ascending), delete to a fixpoint both
// the arcs that fell below w* (cleanup) and the arcs whose endpoints'
// degrees are exactly (w*/d*, d*). The candidate charged with emptying the
// graph is the maximum cn-pair [x*, y*] (Lemma 6). Degrees only decrease,
// so exhausted candidate lists are re-collected until the graph collapses.
func findMaxCNPair(h *graph.Directed, wstar int64, p int) (xstar, ystar int32) {
	if wstar <= 0 || h.M() == 0 {
		return 0, 0
	}
	st := newWState(h, p)
	for st.arcsLeft.Load() > 0 {
		cands := exactInDegrees(st, wstar, p)
		if len(cands) == 0 {
			// No arc currently weighs exactly w*: every live arc weighs
			// more, which contradicts w* being the maximum induce-number
			// (Proposition 4) unless rounding races delayed a cleanup.
			// One cleanup pass below w* restores the invariant.
			if st.peelBelow(wstar, p) == 0 {
				break // defensive: avoid looping on a theory violation
			}
			st.refreshActive(p)
			continue
		}
		for _, dstar := range cands {
			xc := int32(wstar / int64(dstar))
			if st.deleteExact(wstar, dstar, p) {
				xstar, ystar = xc, dstar
			}
			st.refreshActive(p)
			if st.arcsLeft.Load() == 0 {
				return xstar, ystar
			}
		}
	}
	return xstar, ystar
}

// exactInDegrees collects the distinct head in-degrees of live arcs whose
// current weight is exactly wstar, ascending (the pop order of Algorithm
// 4's P set, per the paper's Example 4).
func exactInDegrees(st *wState, wstar int64, p int) []int32 {
	seen := make(map[int32]struct{})
	var mu sync.Mutex
	parallel.ForBlocks(len(st.active), p, 256, func(lo, hi int) {
		local := map[int32]struct{}{}
		for i := lo; i < hi; i++ {
			u := st.active[i]
			du := int64(st.dplus[u].Load())
			if du == 0 {
				continue
			}
			alo, ahi := st.d.OutArcRange(u)
			for a := alo; a < ahi; a++ {
				if !st.alive[a].Load() {
					continue
				}
				dv := st.dminus[st.d.ArcHead(a)].Load()
				if du*int64(dv) == wstar {
					local[dv] = struct{}{}
				}
			}
		}
		if len(local) > 0 {
			mu.Lock()
			for k := range local {
				seen[k] = struct{}{}
			}
			mu.Unlock()
		}
	})
	out := make([]int32, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// peelBelow removes, to a fixpoint, arcs whose weight dropped strictly
// below wstar; returns how many arcs were removed.
func (st *wState) peelBelow(wstar int64, p int) int64 {
	before := st.arcsLeft.Load()
	st.peelLevel(wstar-1, nil, p)
	return before - st.arcsLeft.Load()
}

// deleteExact removes, to a fixpoint, both sub-w* arcs and arcs whose
// endpoint degrees are exactly (w*/d*, d*); reports whether any exact-pair
// arc was removed (Algorithm 4, lines 14-17).
func (st *wState) deleteExact(wstar int64, dstar int32, p int) bool {
	var removedExact atomic.Bool
	for {
		var changed atomic.Bool
		parallel.ForBlocks(len(st.active), p, 256, func(lo, hi int) {
			localChanged := false
			for i := lo; i < hi; i++ {
				u := st.active[i]
				alo, ahi := st.d.OutArcRange(u)
				for a := alo; a < ahi; a++ {
					if !st.alive[a].Load() {
						continue
					}
					du := int64(st.dplus[u].Load())
					dv := st.dminus[st.d.ArcHead(a)].Load()
					w := du * int64(dv)
					if w < wstar {
						if st.remove(u, a) {
							localChanged = true
						}
					} else if w == wstar && dv == dstar {
						if st.remove(u, a) {
							removedExact.Store(true)
							localChanged = true
						}
					}
				}
			}
			if localChanged {
				changed.Store(true)
			}
		})
		if !changed.Load() {
			return removedExact.Load()
		}
	}
}

// bestDivisorCore enumerates the divisor pairs (x, w*/x) of w* and returns
// the non-empty [x, y]-core of h with the highest density — the provably
// safe route from Theorem 2 when the edge-deletion search is inconclusive.
func bestDivisorCore(h *graph.Directed, wstar int64) (x, y int32, s, t []int32) {
	bestDensity := -1.0
	maxX := int64(h.MaxOutDegree())
	maxY := int64(h.MaxInDegree())
	for xd := int64(1); xd*xd <= wstar; xd++ {
		if wstar%xd != 0 {
			continue
		}
		for _, pair := range [][2]int64{{xd, wstar / xd}, {wstar / xd, xd}} {
			if pair[0] > maxX || pair[1] > maxY {
				continue // no vertex can meet the degree bound
			}
			cs, ct := XYCore(h, int32(pair[0]), int32(pair[1]))
			if len(cs) == 0 || len(ct) == 0 {
				continue
			}
			if dd := h.DensityST(cs, ct); dd > bestDensity {
				bestDensity = dd
				x, y, s, t = int32(pair[0]), int32(pair[1]), cs, ct
			}
		}
	}
	return x, y, s, t
}

func mapBack(local []int32, original []int32) []int32 {
	out := make([]int32, len(local))
	for i, v := range local {
		out[i] = original[v]
	}
	return out
}
