package uds

import (
	"context"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/trace"
)

// fuzzGraph decodes data into a graph of at most 16 vertices: the first
// byte picks the vertex count, each later byte pair an edge mod that count.
func fuzzGraph(data []byte) *graph.Undirected {
	if len(data) == 0 {
		return graph.NewUndirected(0, nil)
	}
	n := 1 + int(data[0]%16)
	var edges []graph.Edge
	for i := 1; i+1 < len(data); i += 2 {
		edges = append(edges, graph.Edge{U: int32(int(data[i]) % n), V: int32(int(data[i+1]) % n)})
	}
	return graph.NewUndirected(n, edges)
}

func FuzzExactVsBruteForce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2})
	f.Add([]byte{1, 0, 1})
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0, 2, 3})                         // triangle plus pendant
	f.Add([]byte{7, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 3, 4, 4, 5, 5, 6}) // K4 minus an edge, plus a path
	f.Add([]byte{15, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		bf := bruteForce(g)
		for name, fn := range map[string]func(context.Context, *graph.Undirected, solver.Params) (solver.Result, error){
			"Exact": Exact, "ExactPruned": ExactPruned,
		} {
			res, err := fn(context.Background(), g, solver.Params{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := checkExact(g, res, bf); err != nil {
				t.Fatalf("%s on %d vertices, edges %v: %v", name, g.N(), g.Edges(), err)
			}
		}
	})
}

// TestExactProbeSeparatesRationalGap probes Goldberg's network on a 50k-vertex
// graph at ρ* and at the closest smaller candidate density, ρ* − 1/(n(n−1)).
// Scaled to integers the two thresholds are told apart exactly; unscaled,
// the difference is far below maxflow.Eps.
func TestExactProbeSeparatesRationalGap(t *testing.T) {
	base := gen.ErdosRenyi(50000, 60000, 41)
	g, planted := gen.PlantClique(base, 12, 42)
	slices.Sort(planted)
	res := solve(ExactPruned, g, solver.Params{})
	edges, size := g.InducedEdges(res.Vertices)
	if edges*2 != 11*int64(size) {
		t.Fatalf("ρ* = %d/%d, want the planted 12-clique's 11/2", edges, size)
	}
	// ρ* = p/q = 11/2; the threshold below it is (p·n(n−1) − q)/(q·n(n−1)).
	n := int64(g.N())
	p, q := int64(11), int64(2)
	gapDen := q * n * (n - 1)
	if 2*gapDen*g.M() >= 1<<53 {
		t.Fatalf("flow bound 2·%d·%d is not below 2^53", gapDen, g.M())
	}
	ctx := context.Background()
	net := newGoldbergNet(ctx, g)

	if err := net.probe(ctx, float64(p*n*(n-1)-q), float64(gapDen)); err != nil {
		t.Fatal(err)
	}
	if below := net.minSide(); !slices.Equal(below, planted) {
		t.Fatalf("probe at ρ* − 1/(n(n−1)): side %v, want the planted set %v", below, planted)
	}

	if err := net.probe(ctx, float64(p), float64(q)); err != nil {
		t.Fatal(err)
	}
	if at := net.minSide(); len(at) != 0 {
		t.Fatalf("probe at ρ*: smallest side has %d vertices, want none", len(at))
	}
	if at := net.maxSide(); !slices.Equal(at, planted) {
		t.Fatalf("probe at ρ*: largest side %v, want the planted set %v", at, planted)
	}
}

func TestCheckExactRange(t *testing.T) {
	for _, tc := range []struct {
		n  int
		m  int64
		ok bool
	}{
		{0, 0, true},
		{692, 56343, true},
		{1 << 26, 1<<26 - 1, true}, // 2nm = 2^53 − 2^27
		{1 << 26, 1 << 26, false},  // 2nm = 2^53
		{3, 1 << 62, false},
	} {
		if err := checkExactRange(tc.n, tc.m); (err == nil) != tc.ok {
			t.Errorf("checkExactRange(%d, %d) = %v, want ok=%v", tc.n, tc.m, err, tc.ok)
		}
	}
}

func TestExactPrunedTrace(t *testing.T) {
	base := gen.ChungLu(2000, 20000, 2.3, 16)
	g, _ := gen.PlantClique(base, 40, 17)
	tr := &trace.Trace{}
	res, err := ExactPruned(context.Background(), g, solver.Params{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	for _, ph := range tr.Phases {
		phases = append(phases, ph.Name)
	}
	want := []string{"core-decomposition", "approx-lower-bound", "prune", "flow-search"}
	if !slices.Equal(phases, want) {
		t.Fatalf("phases %v, want %v", phases, want)
	}
	c := tr.Counters
	if c["flow_vertices"] < int64(len(res.Vertices)) || c["flow_vertices"] >= int64(g.N()) {
		t.Errorf("flow_vertices = %d, want a remnant in [%d, %d)", c["flow_vertices"], len(res.Vertices), g.N())
	}
	if c["flow_edges"] <= 0 || c["flow_edges"] >= g.M() {
		t.Errorf("flow_edges = %d, want a remnant in (0, %d)", c["flow_edges"], g.M())
	}
	if c["flow_probes"] < 1 || c["flow_probes"] != int64(res.Iterations) {
		t.Errorf("flow_probes = %d, want Iterations = %d >= 1", c["flow_probes"], res.Iterations)
	}
}
