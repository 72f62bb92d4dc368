package dds

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// This file keeps the sweep-to-fixpoint w-induced decomposition as a
// test-only oracle for the frontier peel in wcore.go. Each level sweeps
// every active vertex's out-arcs in parallel and repeats until a sweep
// removes nothing; the live graph is re-materialized whenever it shrinks
// 8x, and the state entering each level is snapshotted so the last one is
// the w*-induced subgraph. Both engines reach the same unique fixpoint per
// level, so every figure they report must agree.

// refState is the mutable arc-peeling state over a Directed: per-arc alive
// flags (arc ids are out-CSR positions) plus atomic degree counters. The
// level-sweep block bodies are prebound as method values at construction
// (with their per-call inputs staged in fields).
type refState struct {
	d        *graph.Directed
	alive    []atomic.Bool
	dplus    []atomic.Int32
	dminus   []atomic.Int32
	arcsLeft atomic.Int64
	active   []int32 // vertices that may still have out-arcs (refreshed between levels)

	// Staged inputs and accumulators of the prebound sweep bodies.
	level   int64   // peel threshold of the sweep in flight
	induce  []int64 // optional induce-number sink of the sweep in flight
	changed atomic.Bool
	minW    atomic.Int64
	peelFn  func(lo, hi int)
	minFn   func(lo, hi int)
}

func newRefState(d *graph.Directed, p int) *refState {
	n := d.N()
	st := &refState{
		d:      d,
		alive:  make([]atomic.Bool, d.M()),
		dplus:  make([]atomic.Int32, n),
		dminus: make([]atomic.Int32, n),
	}
	st.peelFn = st.peelBlock
	st.minFn = st.minBlock
	parallel.For(n, p, func(v int) {
		st.dplus[v].Store(d.OutDegree(int32(v)))
		st.dminus[v].Store(d.InDegree(int32(v)))
	})
	parallel.For(int(d.M()), p, func(a int) {
		st.alive[a].Store(true)
	})
	st.arcsLeft.Store(d.M())
	st.refreshActive(p)
	return st
}

// refreshActive rebuilds the list of vertices with live out-arcs.
func (st *refState) refreshActive(p int) {
	var mu sync.Mutex
	var act []int32
	parallel.ForBlocks(st.d.N(), p, parallel.DefaultGrain, func(lo, hi int) {
		var local []int32
		for v := lo; v < hi; v++ {
			if st.dplus[v].Load() > 0 {
				local = append(local, int32(v))
			}
		}
		if len(local) > 0 {
			mu.Lock()
			act = append(act, local...)
			mu.Unlock()
		}
	})
	sort.Slice(act, func(i, j int) bool { return act[i] < act[j] })
	st.active = act
}

// weight returns the current weight of the arc u -> head(a). Degrees only
// decrease, so a stale read can only overestimate — the peel sweeps repeat
// to a fixpoint, which makes overestimates safe (an arc is never removed
// above the level, only kept one sweep too long).
func (st *refState) weight(u int32, a int64) int64 {
	return int64(st.dplus[u].Load()) * int64(st.dminus[st.d.ArcHead(a)].Load())
}

// minWeight returns the minimum live arc weight, or -1 if no arcs remain.
func (st *refState) minWeight(p int) int64 {
	st.minW.Store(int64(1) << 62)
	parallel.ForBlocks(len(st.active), p, 256, st.minFn)
	if st.minW.Load() == int64(1)<<62 {
		return -1
	}
	return st.minW.Load()
}

// minBlock is minWeight's block body, reached through the prebound method
// value: it folds the block's live arc weights into a local minimum and
// publishes it with one atomic min at the end.
func (st *refState) minBlock(lo, hi int) {
	local := int64(1) << 62
	for i := lo; i < hi; i++ {
		u := st.active[i]
		alo, ahi := st.d.OutArcRange(u)
		du := int64(st.dplus[u].Load())
		if du == 0 {
			continue
		}
		for a := alo; a < ahi; a++ {
			if !st.alive[a].Load() {
				continue
			}
			if w := du * int64(st.dminus[st.d.ArcHead(a)].Load()); w < local {
				local = w
			}
		}
	}
	parallel.MinInt64(&st.minW, local)
}

// remove deletes arc a = (u, head) if still alive; returns whether this call
// won the removal. Exactly one caller wins via the CAS, so degrees are
// decremented once per arc.
func (st *refState) remove(u int32, a int64) bool {
	if !st.alive[a].CompareAndSwap(true, false) {
		return false
	}
	st.dplus[u].Add(-1)
	st.dminus[st.d.ArcHead(a)].Add(-1)
	st.arcsLeft.Add(-1)
	return true
}

// peelLevel removes, to a fixpoint, every live arc whose current weight is
// at most level, optionally recording induce-numbers. It is the inner
// while-loop of Algorithm 3 (lines 6-15): each sweep walks the active
// vertices in parallel; removals lower neighbor degrees, which can pull
// more arcs under the level, so sweeps repeat until one changes nothing.
// Returns the number of sweeps.
func (st *refState) peelLevel(level int64, induce []int64, p int) int {
	st.level = level
	st.induce = induce
	sweeps := 0
	for {
		sweeps++
		st.changed.Store(false)
		parallel.ForBlocks(len(st.active), p, 256, st.peelFn)
		if !st.changed.Load() {
			return sweeps
		}
	}
}

// peelBlock is peelLevel's block body, reached through the prebound method
// value; its threshold and induce sink are staged in st.level/st.induce.
func (st *refState) peelBlock(lo, hi int) {
	localChanged := false
	for i := lo; i < hi; i++ {
		u := st.active[i]
		alo, ahi := st.d.OutArcRange(u)
		for a := alo; a < ahi; a++ {
			if !st.alive[a].Load() {
				continue
			}
			if st.weight(u, a) <= st.level {
				if st.remove(u, a) {
					if st.induce != nil {
						st.induce[a] = st.level
					}
					localChanged = true
				}
			}
		}
	}
	if localChanged {
		st.changed.Store(true)
	}
}

// snapshotArcs returns the live arc ids (out-CSR order).
func (st *refState) snapshotArcs() []int64 {
	var arcs []int64
	for _, u := range st.active {
		alo, ahi := st.d.OutArcRange(u)
		for a := alo; a < ahi; a++ {
			if st.alive[a].Load() {
				arcs = append(arcs, a)
			}
		}
	}
	return arcs
}

// wDecomposeRef runs the paper's Algorithm 3 to completion: it iteratively
// peels the arcs of minimum weight (cascading within each level in
// parallel) and records every arc's induce-number. O(m·d_max) worst case.
func wDecomposeRef(d *graph.Directed, p int) DecomposeResult {
	st := newRefState(d, p)
	induce := make([]int64, d.M())
	res := DecomposeResult{InduceNumber: induce}
	for st.arcsLeft.Load() > 0 {
		level := st.minWeight(p)
		st.peelLevel(level, induce, p)
		st.refreshActive(p)
		res.Levels++
		if level > res.WStar {
			res.WStar = level
		}
	}
	return res
}

// wStarSubgraphRef is the sweep engine's WStarSubgraphOpts. It leaves
// ArcsScanned and PeelRounds zero: the engines count work differently.
func wStarSubgraphRef(d *graph.Directed, p int, warmStart bool) WStarResult {
	var res WStarResult
	if d.M() == 0 {
		res.Subgraph = d
		return res
	}
	st := newRefState(d, p)
	if warmStart {
		dmax := int64(d.MaxOutDegree())
		if in := int64(d.MaxInDegree()); in > dmax {
			dmax = in
		}
		// Warm start: remove everything strictly below d_max. The
		// remainder is the d_max-induced subgraph, non-empty by the Remark.
		st.peelLevel(dmax-1, nil, p)
		st.refreshActive(p)
		res.Levels = 1
	}
	res.ArcsAfterWarmStart = st.arcsLeft.Load()

	// cur is the current working graph; orig maps its vertex ids back to
	// d's ids (nil = identity).
	cur := d
	var orig []int32
	cur, orig, st = compactStateRef(cur, orig, st, p)
	lastCompact := st.arcsLeft.Load()

	// Level loop: remember the state entering each level; when a level's
	// peel empties the graph, that snapshot is the w*-induced subgraph.
	prevArcs := st.snapshotArcs()
	prevGraph, prevOrig := cur, orig
	for {
		level := st.minWeight(p)
		if level < 0 {
			// Defensive: cannot happen (the warm-start remainder is
			// non-empty); treat the previous snapshot as final.
			break
		}
		st.peelLevel(level, nil, p)
		st.refreshActive(p)
		res.Levels++
		if st.arcsLeft.Load() == 0 {
			res.WStar = level
			break
		}
		if st.arcsLeft.Load() < lastCompact/8 {
			cur, orig, st = compactStateRef(cur, orig, st, p)
			lastCompact = st.arcsLeft.Load()
		}
		prevArcs = st.snapshotArcs()
		prevGraph, prevOrig = cur, orig
	}
	res.ArcsAtWStar = int64(len(prevArcs))
	sub, subOrig := induceFromArcsRef(prevGraph, prevArcs)
	res.Subgraph = sub
	res.Original = composeMappingRef(prevOrig, subOrig)
	return res
}

// compactStateRef materializes the live subgraph of st as a fresh compact
// digraph with fresh peeling state, composing the id mapping.
func compactStateRef(cur *graph.Directed, orig []int32, st *refState, p int) (*graph.Directed, []int32, *refState) {
	live := st.snapshotArcs()
	sub, subOrig := induceFromArcsRef(cur, live)
	return sub, composeMappingRef(orig, subOrig), newRefState(sub, p)
}

// composeMappingRef resolves sub-ids through an optional outer mapping
// (nil = identity).
func composeMappingRef(orig, subOrig []int32) []int32 {
	if orig == nil {
		return subOrig
	}
	out := make([]int32, len(subOrig))
	for i, v := range subOrig {
		out[i] = orig[v]
	}
	return out
}

// induceFromArcsRef builds a re-labeled digraph from a set of arc ids of d.
func induceFromArcsRef(d *graph.Directed, arcIDs []int64) (*graph.Directed, []int32) {
	tails := make([]int32, 0, len(arcIDs))
	// Recover tails by walking arc ids against the CSR offsets; arcIDs is
	// sorted (snapshot order), so a single forward scan suffices.
	u := int32(0)
	for _, a := range arcIDs {
		for {
			_, hi := d.OutArcRange(u)
			if a < hi {
				break
			}
			u++
		}
		tails = append(tails, u)
	}
	local := make(map[int32]int32)
	var original []int32
	lookup := func(v int32) int32 {
		if lv, ok := local[v]; ok {
			return lv
		}
		lv := int32(len(original))
		local[v] = lv
		original = append(original, v)
		return lv
	}
	arcs := make([]graph.Edge, len(arcIDs))
	for i, a := range arcIDs {
		arcs[i] = graph.Edge{U: lookup(tails[i]), V: lookup(d.ArcHead(a))}
	}
	return graph.NewDirected(len(original), arcs), original
}

// findMaxCNPairRef runs the edge-deletion search of Algorithm 4 on the
// w*-induced subgraph h: collect the candidate in-degrees d* of arcs whose
// weight is exactly w*, and for each (ascending), delete to a fixpoint both
// the arcs that fell below w* (cleanup) and the arcs whose endpoints'
// degrees are exactly (w*/d*, d*). The candidate charged with emptying the
// graph is the maximum cn-pair [x*, y*] (Lemma 6). Degrees only decrease,
// so exhausted candidate lists are re-collected until the graph collapses.
func findMaxCNPairRef(h *graph.Directed, wstar int64, p int) (xstar, ystar int32) {
	if wstar <= 0 || h.M() == 0 {
		return 0, 0
	}
	st := newRefState(h, p)
	for st.arcsLeft.Load() > 0 {
		cands := exactInDegreesRef(st, wstar, p)
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

// exactInDegreesRef collects the distinct head in-degrees of live arcs whose
// current weight is exactly wstar, ascending (the pop order of Algorithm
// 4's P set, per the paper's Example 4).
func exactInDegreesRef(st *refState, wstar int64, p int) []int32 {
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
func (st *refState) peelBelow(wstar int64, p int) int64 {
	before := st.arcsLeft.Load()
	st.peelLevel(wstar-1, nil, p)
	return before - st.arcsLeft.Load()
}

// deleteExact removes, to a fixpoint, both sub-w* arcs and arcs whose
// endpoint degrees are exactly (w*/d*, d*); reports whether any exact-pair
// arc was removed (Algorithm 4, lines 14-17).
func (st *refState) deleteExact(wstar int64, dstar int32, p int) bool {
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
