package uds

import (
	"context"
	"fmt"

	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/solver"
)

// Exact solves the UDS problem exactly with Goldberg's flow construction,
// searched by Newton (Dinkelbach) iteration from the whole vertex set.
//
// Network for threshold a/b, every capacity scaled by b: source s, sink t,
// one node per vertex; s -> v with capacity b·deg(v); u <-> v with capacity
// b per edge; v -> t with capacity 2a. A cut with source side S costs
// 2b·m − 2(b|E(S)| − a|S|), so the source side of a min cut maximises
// b|E(S)| − a|S|: it is non-empty iff some subgraph has density > a/b, and
// then it is such a subgraph. Each probe takes that denser side as the next
// a/b; the first probe whose smallest source side is empty proves a/b = ρ*,
// and its largest source side is the maximal densest subgraph.
//
// Capacities and flows are integers below 2^53, so the float64 max-flow
// engine computes every probe exactly; a graph too large for that bound
// gets an error rather than an inexact answer. Cost: a handful of
// max-flows on one network with n+2 nodes and 2n+m arcs — practical up to
// ~10^5-edge graphs, and the oracle every approximation algorithm in this
// package is tested against.
//
// The search polls ctx between min-cut probes (and inside each flow
// computation, between blocking-flow phases) and returns a wrapped
// cancel.ErrCanceled once ctx is done. A nil ctx never cancels. An armed
// p.Trace times the search as one "flow-search" phase.
func Exact(ctx context.Context, g *graph.Undirected, p solver.Params) (solver.Result, error) {
	tr := p.Trace
	tr.SetAlgorithm("Exact")
	if g.M() == 0 {
		return edgeless(g, "Exact"), nil
	}
	endFlow := tr.StartPhase("flow-search")
	vs, probes, err := newtonSearch(ctx, g, g.M(), int64(g.N()))
	endFlow()
	if err != nil {
		return solver.Result{}, err
	}
	tr.Counter("flow_probes", int64(probes))
	return solver.Result{
		Algorithm:  "Exact",
		Vertices:   vs,
		Density:    g.InducedDensity(vs),
		Iterations: probes,
	}, nil
}

// edgeless answers a graph without edges, where every vertex set has
// density 0: no vertex for the empty graph, vertex 0 otherwise.
func edgeless(g *graph.Undirected, algorithm string) solver.Result {
	res := solver.Result{Algorithm: algorithm}
	if g.N() > 0 {
		res.Vertices = []int32{0}
	}
	return res
}

// newtonSearch runs Exact's Newton search on g, which has at least one
// edge, from the density a/b of some vertex set of g: a edges on b >= 1
// vertices. It returns the maximal densest subgraph and the number of
// min-cut probes.
func newtonSearch(ctx context.Context, g *graph.Undirected, a, b int64) ([]int32, int, error) {
	if err := checkExactRange(g.N(), g.M()); err != nil {
		return nil, 0, err
	}
	net := newGoldbergNet(ctx, g)
	for probes := 1; ; probes++ {
		if err := net.probe(ctx, float64(a), float64(b)); err != nil {
			return nil, 0, err
		}
		denser := net.minSide()
		if len(denser) == 0 {
			return net.maxSide(), probes, nil
		}
		var size int
		a, size = g.InducedEdges(denser)
		b = int64(size)
	}
}

// checkExactRange rejects a graph whose Newton search could meet flow
// values of 2^53 or more, where float64 stops representing every integer.
// Every probe's threshold a/b has b <= n and a <= m, so its flow is at most
// the source capacity b·2m <= 2nm, and each capacity is at most that.
func checkExactRange(n int, m int64) error {
	if n > 0 && m > (1<<52-1)/int64(n) {
		return fmt.Errorf("uds: exact search on %d vertices and %d edges would need flow values of 2^53 or more, beyond exact float64 arithmetic", n, m)
	}
	return nil
}

// goldbergNet is Goldberg's network for one graph, built once; probe
// rewrites its capacities for each threshold.
type goldbergNet struct {
	nw       *maxflow.Network
	src, snk int32
	degs     []int32
	srcArcs  []maxflow.Arc // s -> v, by vertex
	snkArcs  []maxflow.Arc // v -> t, by vertex
	edgeArcs []maxflow.Arc // u <-> v, by edge
}

// newGoldbergNet lays out the network for g: nodes 0..n-1 are the
// vertices, n the source and n+1 the sink. Every capacity starts at zero.
func newGoldbergNet(ctx context.Context, g *graph.Undirected) *goldbergNet {
	n := g.N()
	edges := g.Edges()
	net := &goldbergNet{
		nw:       maxflow.NewNetwork(n + 2),
		src:      int32(n),
		snk:      int32(n + 1),
		degs:     g.Degrees(),
		srcArcs:  make([]maxflow.Arc, n),
		snkArcs:  make([]maxflow.Arc, n),
		edgeArcs: make([]maxflow.Arc, len(edges)),
	}
	net.nw.SetContext(ctx)
	for v := int32(0); int(v) < n; v++ {
		net.srcArcs[v] = net.nw.AddArc(net.src, v, 0)
		net.snkArcs[v] = net.nw.AddArc(v, net.snk, 0)
	}
	for i, e := range edges {
		net.edgeArcs[i] = net.nw.AddArc(e.U, e.V, 0)
	}
	return net
}

// probe computes a min cut for threshold num/den: s -> v gets den·deg(v),
// each edge den both ways, v -> t gets 2·num. A non-nil error means ctx
// expired before the min cut finished.
func (net *goldbergNet) probe(ctx context.Context, num, den float64) error {
	if err := cancel.Check(ctx); err != nil {
		return err
	}
	for v, d := range net.degs {
		net.nw.SetCapacity(net.srcArcs[v], den*float64(d), 0)
		net.nw.SetCapacity(net.snkArcs[v], 2*num, 0)
	}
	for _, e := range net.edgeArcs {
		net.nw.SetCapacity(e, den, den)
	}
	net.nw.Solve(net.src, net.snk)
	if net.nw.Canceled() {
		return cancel.Check(ctx)
	}
	return nil
}

// minSide returns the vertices on the smallest source side of the last
// probe's min cut: a subgraph denser than the threshold, or none.
func (net *goldbergNet) minSide() []int32 {
	side := net.nw.MinCutSource(net.src)
	out := make([]int32, 0, len(side))
	for _, v := range side {
		if v != net.src {
			out = append(out, v)
		}
	}
	return out
}

// maxSide returns the vertices on the largest source side of the last
// probe's min cut: every vertex that cannot reach the sink in the residual
// network. At threshold ρ* that is the union of all densest subgraphs.
func (net *goldbergNet) maxSide() []int32 {
	toSink := make([]bool, net.nw.N())
	for _, v := range net.nw.MinCutSink(net.snk) {
		toSink[v] = true
	}
	var out []int32
	for v := int32(0); v < net.src; v++ {
		if !toSink[v] {
			out = append(out, v)
		}
	}
	return out
}

// ExactPruned is the core-accelerated exact solver of Fang et al. (the
// paper's [6]): the densest subgraph is contained in the ⌈ρ*⌉-core, and any
// lower bound ρ̃ <= ρ* gives ⌈ρ̃⌉-core ⊇ ⌈ρ*⌉-core. One serial BZ core
// decomposition yields both: the k*-core's density is ρ̃ (a 2-approximation,
// Lemma 1), and the core numbers give the ⌈ρ̃⌉-core. Exact's Newton search
// then runs on that remnant from ρ̃ — typically orders of magnitude
// fewer flow nodes than Exact on power-law graphs, and a handful of probes.
//
// It has Exact's cancellation contract and ignores p.Workers. An armed
// p.Trace splits the solve into the paper's natural phases — the BZ pass
// ("core-decomposition"), the k*-core and its density ("approx-lower-bound"),
// the ⌈ρ̃⌉-core extraction ("prune"), and the Newton search on the remnant
// ("flow-search") — and counts the remnant's vertices and edges and the
// probes.
func ExactPruned(ctx context.Context, g *graph.Undirected, p solver.Params) (solver.Result, error) {
	tr := p.Trace
	tr.SetAlgorithm("ExactPruned")
	if g.M() == 0 {
		return edgeless(g, "ExactPruned"), nil
	}
	if err := cancel.Check(ctx); err != nil {
		return solver.Result{}, err
	}
	endDecomp := tr.StartPhase("core-decomposition")
	coreNum := core.BZ(g)
	endDecomp()
	endApprox := tr.StartPhase("approx-lower-bound")
	kStar, kCore := core.KStarCore(coreNum)
	edges, size := g.InducedEdges(kCore) // ρ̃ = edges/size <= ρ*
	endApprox()
	k := int32((edges + int64(size) - 1) / int64(size)) // ⌈ρ̃⌉
	endPrune := tr.StartPhase("prune")
	sub, orig := g.Induced(core.KCore(coreNum, k))
	endPrune()
	tr.Counter("pruned_vertices", int64(g.N()-sub.N()))
	tr.Counter("flow_vertices", int64(sub.N()))
	tr.Counter("flow_edges", sub.M())
	tr.RaisePeak(int64(sub.N()))
	// The k*-core lies inside the remnant (⌈ρ̃⌉ <= k*), so the search
	// starts from its density.
	endFlow := tr.StartPhase("flow-search")
	vs, probes, err := newtonSearch(ctx, sub, edges, int64(size))
	endFlow()
	if err != nil {
		return solver.Result{}, err
	}
	tr.Counter("flow_probes", int64(probes))
	for i, v := range vs {
		vs[i] = orig[v]
	}
	return solver.Result{
		Algorithm:  "ExactPruned",
		Vertices:   vs,
		Density:    g.InducedDensity(vs),
		Iterations: probes,
		KStar:      kStar,
	}, nil
}

// ExactEpsilon is the (1+ε)-approximate flow solver: a float binary search
// over Goldberg's network (at scale 1) that stops once the density interval
// is within a relative ε instead of proving ρ* exactly — trading the last
// bits of precision for a O(log(1/ε)) probe count, the trade-off behind the
// (1+ε) flow algorithms of the paper's related work (Chekuri et al. [29]).
// With the PKMC lower bound seeding the interval, a handful of min-cuts
// suffice. ε is p.Epsilon (default 0.1), and the cancellation contract is
// Exact's.
func ExactEpsilon(ctx context.Context, g *graph.Undirected, p solver.Params) (solver.Result, error) {
	if g.M() == 0 {
		return edgeless(g, "ExactEpsilon"), nil
	}
	eps := p.Epsilon
	if eps <= 0 {
		eps = 0.1
	}
	if err := cancel.Check(ctx); err != nil {
		return solver.Result{}, err
	}
	approx := core.PKMC(g, p.Workers)
	lower := g.InducedDensity(approx.Vertices)
	net := newGoldbergNet(ctx, g)
	lo, hi := lower, 2*lower+1 // ρ* <= 2ρ̃ by Lemma 1
	best := approx.Vertices
	probes := 0
	for hi-lo > eps*lo {
		mid := (lo + hi) / 2
		probes++
		if err := net.probe(ctx, mid, 1); err != nil {
			return solver.Result{}, err
		}
		if s := net.minSide(); len(s) > 0 {
			lo = mid
			best = s
		} else {
			hi = mid
		}
	}
	return solver.Result{
		Algorithm:  "ExactEpsilon",
		Vertices:   best,
		Density:    g.InducedDensity(best),
		Iterations: probes,
		KStar:      approx.KStar,
	}, nil
}
