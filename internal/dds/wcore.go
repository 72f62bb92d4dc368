package dds

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// This file implements the paper's w-induced subgraph model (Definitions
// 8-10) and its parallel decomposition (Algorithm 3). The weight of arc
// (u, v) within a subgraph H is d⁺_H(u)·d⁻_H(v); the w-induced subgraph is
// the maximal subgraph whose every arc weighs at least w; w* is the largest
// w with a non-empty w-induced subgraph. Theorem 2 states w* = x*·y*, which
// is what lets PWC find the [x*, y*]-core from one decomposition.
//
// Every pass is one engine, a frontier peel. A peel removes, to the
// fixpoint, the live arcs that a removal predicate holds for: w < below,
// or w = below with d⁻(head) = exact. Weights only fall and the predicate
// stays true once it holds, so the fixpoint is unique: the result does not
// depend on the removal order or the worker count. A peel starts with one
// fused scan of the live arc list, which drops dead ids and collects the
// first frontier. Each round then removes the frontier and re-checks only
// the out-arcs of tails whose d⁺ dropped and the in-arcs of heads whose d⁻
// dropped; the arcs the predicate now holds for form the next frontier.

// Grains of the peel's parallel regions. A scan or round smaller than its
// grain runs inline on the calling goroutine. They are variables so the
// differential tests can shrink them, which splits even a small graph's
// scans into many blocks and its rounds across workers.
var (
	scanGrain  = 4096 // live arc ids per level-scan block
	roundGrain = 256  // frontier arcs or dirty vertices per round block
)

// noWeight exceeds every arc weight (degrees are int32, so weights are
// below 2^62).
const noWeight = int64(1) << 62

// peelState is the frontier peel's state over a Directed. Arc ids are
// out-CSR positions. Degrees, removal stamps and dirty marks are atomics
// because the round blocks update them concurrently; every buffer is
// allocated once, at construction, and the block bodies are prebound as
// method values, so the //dsd:hotpath kernels never allocate.
type peelState struct {
	d     *graph.Directed
	tails []int32 // tail vertex of each arc id
	// outArcs[OutArcRange(v)] and inArcs[InArcRange(v)] list the arc ids
	// of v's out- and in-arcs; their first outLen[v] / inLen[v] entries
	// hold every live one. A re-check of v compacts its list, dropping
	// the arcs removed since its last re-check.
	outArcs []int64
	inArcs  []int64
	outLen  []int32
	inLen   []int32
	dplus   []atomic.Int32
	dminus  []atomic.Int32
	// gone[a] is 0 while arc a is alive, else the level that removed it.
	gone []atomic.Int32
	// outMark[v] / inMark[v] hold the last round in which v was queued
	// as a dirty tail / head, so each is queued once per round.
	outMark []atomic.Int32
	inMark  []atomic.Int32

	live     []int64 // arcs alive at the last scan, in id order; may hold ids removed since
	front    []int64 // frontier buffer: one peel's frontiers, round after round
	dirtyOut []int32 // tails whose d⁺ dropped in the round in flight
	dirtyIn  []int32 // heads whose d⁻ dropped in the round in flight
	left     int64   // live arcs

	// Inputs of the kernels in flight.
	level     int32 // stamp of the peel in flight, written into gone
	round     int32 // stamp of the round in flight, written into the marks
	below     int64 // removal predicate: w < below,
	exact     int32 // or w = below and d⁻(head) = exact (0: never, heads have d⁻ >= 1)
	findMin   bool  // the scan collects the minimum-weight arcs instead
	roundLo   int   // the round's frontier starts at front[roundLo]
	nDirtyOut int   // dirty tails of the round, read by the re-check blocks
	nFront    atomic.Int64
	nOut      atomic.Int64
	nIn       atomic.Int64

	// Per-block results of a scan, indexed by lo/scanGrain.
	blockHi    []int
	blockLive  []int
	blockFront []int
	blockMin   []int64

	// Work counters: arc slots visited by scans and re-checks, and rounds.
	scanned atomic.Int64
	rounds  int64

	scanFn    func(lo, hi int)
	applyFn   func(lo, hi int)
	recheckFn func(lo, hi int)
}

func newPeelState(d *graph.Directed) *peelState {
	n, m := d.N(), d.M()
	blocks := int(m)/scanGrain + 1
	st := &peelState{
		d:          d,
		tails:      d.ArcTails(),
		outArcs:    make([]int64, m),
		inArcs:     d.InArcIDs(),
		outLen:     make([]int32, n),
		inLen:      make([]int32, n),
		dplus:      make([]atomic.Int32, n),
		dminus:     make([]atomic.Int32, n),
		gone:       make([]atomic.Int32, m),
		outMark:    make([]atomic.Int32, n),
		inMark:     make([]atomic.Int32, n),
		live:       make([]int64, m),
		front:      make([]int64, m),
		dirtyOut:   make([]int32, n),
		dirtyIn:    make([]int32, n),
		left:       m,
		blockHi:    make([]int, blocks),
		blockLive:  make([]int, blocks),
		blockFront: make([]int, blocks),
		blockMin:   make([]int64, blocks),
	}
	st.scanFn = st.scanBlock
	st.applyFn = st.applyBlock
	st.recheckFn = st.recheckBlock
	for v := int32(0); int(v) < n; v++ {
		st.dplus[v].Store(d.OutDegree(v))
		st.dminus[v].Store(d.InDegree(v))
		st.outLen[v], st.inLen[v] = d.OutDegree(v), d.InDegree(v)
	}
	for a := range st.live {
		st.live[a] = int64(a)
		st.outArcs[a] = int64(a)
	}
	return st
}

// removes is the removal predicate on an arc of weight w whose head has
// in-degree dv.
//
//dsd:hotpath
func (st *peelState) removes(w int64, dv int32) bool {
	return w < st.below || (w == st.below && dv == st.exact)
}

// peel removes, to the fixpoint, every live arc with w < below, or with
// w = below and d⁻(head) = exact (exact = 0 disables the second clause).
// It returns the number of arcs removed.
//
//dsd:hotpath
func (st *peelState) peel(below int64, exact int32, p int) int64 {
	st.level++
	st.below, st.exact = below, exact
	st.scan(false, p)
	before := st.left
	st.drain(p)
	return before - st.left
}

// peelMin is one level of Algorithm 3: it removes the live arcs of minimum
// weight w and, to the fixpoint, every arc their removal pulls down to w.
// It returns w. The caller ensures some arc is live.
//
//dsd:hotpath
func (st *peelState) peelMin(p int) int64 {
	st.level++
	w := st.scan(true, p)
	st.below, st.exact = w+1, 0
	st.drain(p)
	return w
}

// scan is the fused level scan: one pass over the live list that drops
// the ids of removed arcs and collects a frontier into front[0:f]. With
// findMin it collects the arcs of minimum weight and returns that weight;
// otherwise it collects the arcs the removal predicate holds for. Blocks
// compact their ids and frontier in place; the serial merge then closes
// the gaps between blocks, so the live list stays in id order.
//
//dsd:hotpath
func (st *peelState) scan(findMin bool, p int) int64 {
	n := len(st.live)
	st.scanned.Add(int64(n))
	st.findMin = findMin
	parallel.ForBlocks(n, p, scanGrain, st.scanFn)
	wmin := noWeight
	for lo := 0; lo < n; lo = st.blockHi[lo/scanGrain] {
		wmin = min(wmin, st.blockMin[lo/scanGrain])
	}
	k, f := 0, 0
	for lo := 0; lo < n; {
		b := lo / scanGrain
		k += copy(st.live[k:], st.live[lo:lo+st.blockLive[b]])
		if !findMin || st.blockMin[b] == wmin {
			f += copy(st.front[f:], st.front[lo:lo+st.blockFront[b]])
		}
		lo = st.blockHi[b]
	}
	st.live = st.live[:k]
	st.nFront.Store(int64(f))
	return wmin
}

// scanBlock is scan's block body over live[lo:hi]. It records the block's
// end, live count, frontier count and minimum weight under lo/scanGrain.
//
//dsd:hotpath
func (st *peelState) scanBlock(lo, hi int) {
	live, front, gone, tails := st.live, st.front, st.gone, st.tails
	dplus, dminus, d := st.dplus, st.dminus, st.d
	k, f := lo, lo
	wmin := noWeight
	for i := lo; i < hi; i++ {
		a := live[i]
		if gone[a].Load() != 0 {
			continue
		}
		live[k] = a
		k++
		dv := dminus[d.ArcHead(a)].Load()
		w := int64(dplus[tails[a]].Load()) * int64(dv)
		if st.findMin {
			if w < wmin {
				wmin, f = w, lo
			}
			if w == wmin {
				front[f] = a
				f++
			}
		} else if st.removes(w, dv) {
			front[f] = a
			f++
		}
	}
	b := lo / scanGrain
	st.blockHi[b], st.blockLive[b], st.blockFront[b], st.blockMin[b] = hi, k-lo, f-lo, wmin
}

// drain runs frontier rounds from the scan's frontier until one claims no
// arc. A round removes its frontier (applyBlock), then re-checks the live
// arcs of the vertices whose degree dropped (recheckBlock), which append
// the arcs they claim to front. Each arc enters a frontier at most once per
// peel, so front never outgrows the live list.
//
//dsd:hotpath
func (st *peelState) drain(p int) {
	lo, hi := 0, int(st.nFront.Load())
	for lo < hi {
		st.round++
		st.rounds++
		st.roundLo = lo
		st.nOut.Store(0)
		st.nIn.Store(0)
		parallel.ForBlocks(hi-lo, p, roundGrain, st.applyFn)
		st.left -= int64(hi - lo)
		st.nDirtyOut = int(st.nOut.Load())
		parallel.ForBlocks(st.nDirtyOut+int(st.nIn.Load()), p, roundGrain, st.recheckFn)
		lo, hi = hi, int(st.nFront.Load())
	}
}

// applyBlock removes the frontier arcs front[roundLo+lo : roundLo+hi]:
// it stamps them gone, lowers their endpoints' degrees and queues each
// endpoint once per round as a dirty tail or head.
//
//dsd:hotpath
func (st *peelState) applyBlock(lo, hi int) {
	for _, a := range st.front[st.roundLo+lo : st.roundLo+hi] {
		st.gone[a].Store(st.level)
		u, v := st.tails[a], st.d.ArcHead(a)
		st.dplus[u].Add(-1)
		st.dminus[v].Add(-1)
		if st.outMark[u].Swap(st.round) != st.round {
			st.dirtyOut[st.nOut.Add(1)-1] = u
		}
		if st.inMark[v].Swap(st.round) != st.round {
			st.dirtyIn[st.nIn.Add(1)-1] = v
		}
	}
}

// recheckBlock re-checks the dirty vertices lo..hi-1 of the round (tails
// first, then heads): every live out-arc of a dirty tail and in-arc of a
// dirty head that the removal predicate now holds for is claimed with one
// CAS and appended to the next frontier. No degree changes while it runs,
// so its weights are exact. A vertex is queued once per round as a tail
// and once as a head, so each arc list has one writer.
//
//dsd:hotpath
func (st *peelState) recheckBlock(lo, hi int) {
	gone, tails, dplus, dminus, d := st.gone, st.tails, st.dplus, st.dminus, st.d
	var slots int64
	for i := lo; i < hi; i++ {
		if i < st.nDirtyOut {
			u := st.dirtyOut[i]
			du := int64(dplus[u].Load())
			if du == 0 {
				continue
			}
			alo, _ := d.OutArcRange(u)
			list := st.outArcs[alo : alo+int64(st.outLen[u])]
			slots += int64(len(list))
			k := 0
			for _, a := range list {
				if gone[a].Load() != 0 {
					continue
				}
				list[k] = a
				k++
				dv := dminus[d.ArcHead(a)].Load()
				if st.removes(du*int64(dv), dv) {
					st.claim(a)
				}
			}
			st.outLen[u] = int32(k)
			continue
		}
		v := st.dirtyIn[i-st.nDirtyOut]
		dv := dminus[v].Load()
		if dv == 0 {
			continue
		}
		alo, _ := d.InArcRange(v)
		list := st.inArcs[alo : alo+int64(st.inLen[v])]
		slots += int64(len(list))
		k := 0
		for _, a := range list {
			if gone[a].Load() != 0 {
				continue
			}
			list[k] = a
			k++
			if st.removes(int64(dplus[tails[a]].Load())*int64(dv), dv) {
				st.claim(a)
			}
		}
		st.inLen[v] = int32(k)
	}
	st.scanned.Add(slots)
}

// claim stamps live arc a gone and appends it to the next frontier, unless
// another re-check claimed it first.
//
//dsd:hotpath
func (st *peelState) claim(a int64) {
	if st.gone[a].CompareAndSwap(0, st.level) {
		st.front[st.nFront.Add(1)-1] = a
	}
}

// liveArcs compacts the live list to the arcs still alive and returns it,
// in id order. The slice aliases the state.
func (st *peelState) liveArcs() []int64 {
	k := 0
	for _, a := range st.live {
		if st.gone[a].Load() == 0 {
			st.live[k] = a
			k++
		}
	}
	st.live = st.live[:k]
	return st.live
}

// DecomposeResult is the outcome of the full w-induced decomposition.
type DecomposeResult struct {
	// InduceNumber[a] is the induce-number (Definition 10) of arc id a.
	InduceNumber []int64
	// WStar is the maximum induce-number.
	WStar int64
	// Levels is the number of distinct weight levels processed.
	Levels int
}

// WDecompose runs the paper's Algorithm 3 to completion: it peels the arcs
// of minimum weight level by level (cascading within each level in
// parallel) and records every arc's induce-number, the weight of the level
// that removed it. O(m·levels) for the scans plus the re-checks.
func WDecompose(d *graph.Directed, p int) DecomposeResult {
	res := DecomposeResult{InduceNumber: make([]int64, d.M())}
	if d.M() == 0 {
		return res
	}
	st := newPeelState(d)
	var weights []int64 // weights[k-1] is the weight of level k
	for st.left > 0 {
		weights = append(weights, st.peelMin(p))
	}
	for a := range res.InduceNumber {
		res.InduceNumber[a] = weights[st.gone[a].Load()-1]
	}
	res.Levels = len(weights)
	res.WStar = weights[len(weights)-1]
	return res
}

// WStarResult is the outcome of the PWC-oriented w*-subgraph computation.
type WStarResult struct {
	WStar int64
	// Subgraph is the w*-induced subgraph re-labeled to dense ids;
	// Original maps its vertices back to the input digraph.
	Subgraph *graph.Directed
	Original []int32
	// ArcsAfterWarmStart is |E| remaining after the warm-start peel at
	// w⁰ = d_max (the "PWC₁" column of the paper's Table 7).
	ArcsAfterWarmStart int64
	// ArcsAtWStar is |E| of the w*-induced subgraph ("PWC_w*" in Table 7).
	ArcsAtWStar int64
	// Levels is the number of weight levels processed (including the warm
	// start), i.e. the t counter of Algorithm 3.
	Levels int
	// ArcsScanned counts the arc slots the peel visited: the live list
	// once per level scan, plus, per re-check, the dirty vertex's out- or
	// in-arc list, which still holds the arcs removed since its previous
	// re-check.
	ArcsScanned int64
	// PeelRounds counts the frontier rounds over all levels.
	PeelRounds int64
}

// WStarSubgraph computes only the w*-induced subgraph, using the paper's
// Remark: w* >= d_max (the hub vertex and its neighbors form a d_max-induced
// subgraph), so the first level can immediately peel every arc of weight
// < d_max — on the benchmark graphs this one step discards most of the
// graph, which is where PWC's advantage over PXY comes from (Exp-6).
//
// The levels then run on a shrinking live arc list: each level's scan
// visits only the arcs alive at its start and drops the ids removed since,
// and its rounds visit only the arcs of vertices whose degree dropped. This
// is the "reduce the size of the graph in each iteration" step of the
// paper's Exp-6. The last level removes every remaining arc; those arcs,
// the live list at its scan, are the w*-induced subgraph.
func WStarSubgraph(d *graph.Directed, p int) WStarResult {
	return WStarSubgraphOpts(d, p, true)
}

// WStarSubgraphOpts is WStarSubgraph with the d_max warm start switchable —
// warmStart=false climbs from the global minimum weight like the plain
// Algorithm 3, which is what the warm-start ablation bench compares
// against.
func WStarSubgraphOpts(d *graph.Directed, p int, warmStart bool) WStarResult {
	var res WStarResult
	if d.M() == 0 {
		res.Subgraph = d
		return res
	}
	st := newPeelState(d)
	if warmStart {
		// Warm start: remove everything strictly below d_max. The
		// remainder is the d_max-induced subgraph, non-empty by the Remark.
		st.peel(max(int64(d.MaxOutDegree()), int64(d.MaxInDegree())), 0, p)
		res.Levels = 1
	}
	res.ArcsAfterWarmStart = st.left
	var last []int64
	for st.left > 0 {
		res.WStar = st.peelMin(p)
		res.Levels++
		last = st.live
	}
	res.ArcsAtWStar = int64(len(last))
	res.Subgraph, res.Original = induceFromArcs(d, st.tails, last)
	res.ArcsScanned = st.scanned.Load()
	res.PeelRounds = st.rounds
	return res
}

// induceFromArcs builds a re-labeled digraph from a set of arc ids of d,
// numbering vertices in order of first appearance.
func induceFromArcs(d *graph.Directed, tails []int32, arcIDs []int64) (*graph.Directed, []int32) {
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
		arcs[i] = graph.Edge{U: lookup(tails[a]), V: lookup(d.ArcHead(a))}
	}
	return graph.NewDirected(len(original), arcs), original
}
