package dds

import (
	"context"
	"slices"

	"repro/internal/cancel"
	"repro/internal/graph"
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
// levels, plus the decomposition's work: arcs_scanned (arc slots its
// scans and re-checks visited) and peel_rounds (its frontier rounds).
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
		tr.Counter("arcs_scanned", ws.ArcsScanned)
		tr.Counter("peel_rounds", ws.PeelRounds)
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
// the arcs that fell below w* and the arcs whose endpoints' degrees are
// exactly (w*/d*, d*). The candidate charged with emptying the graph is the
// maximum cn-pair [x*, y*] (Lemma 6). Degrees only decrease, so exhausted
// candidate lists are re-collected until the graph collapses.
//
// Every deletion is one frontier peel with the predicate w < w*, or w = w*
// and d⁻(head) = d*. A deletion starts with no arc below w* (h is the
// w*-induced subgraph, and each deletion ends at its fixpoint), so it
// removes an exact-pair arc whenever it removes anything.
func findMaxCNPair(h *graph.Directed, wstar int64, p int) (xstar, ystar int32) {
	if wstar <= 0 || h.M() == 0 {
		return 0, 0
	}
	st := newPeelState(h)
	for st.left > 0 {
		if w := st.scan(true, p); w != wstar {
			// While arcs remain, the minimum is w*: none weighs
			// less (see above), and if all weighed more, the
			// (w*+1)-induced subgraph would be non-empty, which
			// contradicts w* being the maximum induce-number
			// (Proposition 4). Weights are exact integer products and
			// a scan runs between rounds, when no removal can leave
			// its degree reads stale, so any other minimum is a
			// theory violation; stop rather than loop on it.
			break
		}
		for _, dstar := range exactInDegrees(st) {
			if st.peel(wstar, dstar, p) > 0 {
				xstar, ystar = int32(wstar/int64(dstar)), dstar
			}
			if st.left == 0 {
				return xstar, ystar
			}
		}
	}
	return xstar, ystar
}

// exactInDegrees returns the distinct head in-degrees of the arcs a
// minimum-weight scan collected, ascending (the pop order of Algorithm 4's
// P set, per the paper's Example 4).
func exactInDegrees(st *peelState) []int32 {
	front := st.front[:st.nFront.Load()]
	out := make([]int32, len(front))
	for i, a := range front {
		out[i] = st.dminus[st.d.ArcHead(a)].Load()
	}
	slices.Sort(out)
	return slices.Compact(out)
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
