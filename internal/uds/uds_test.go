package uds

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
)

// solve runs one of the package's solvers under a background context,
// which never cancels, so an error is a test failure.
func solve(f func(context.Context, *graph.Undirected, solver.Params) (solver.Result, error), g *graph.Undirected, p solver.Params) solver.Result {
	r, err := f(context.Background(), g, p)
	if err != nil {
		panic(err)
	}
	return r
}

// bruteForce solves UDS by enumerating all 2^n - 1 non-empty vertex
// subsets in integer arithmetic, and returns the union of every densest
// one: the maximal densest subgraph, which the exact solvers return. It is
// their test oracle and panics above 20 vertices.
func bruteForce(g *graph.Undirected) solver.Result {
	n := g.N()
	if n == 0 {
		return solver.Result{Algorithm: "BruteForce"}
	}
	if n > 20 {
		panic("uds: BruteForce beyond 20 vertices")
	}
	nbr := make([]uint32, n)
	for u := range nbr {
		for _, v := range g.Neighbors(int32(u)) {
			nbr[u] |= 1 << v
		}
	}
	// edges[mask] = |E(mask)|, built from mask minus its lowest vertex.
	edges := make([]int64, 1<<n)
	bestE, bestS := int64(0), int64(1)
	var union uint32
	for mask := uint32(1); mask < 1<<n; mask++ {
		v := bits.TrailingZeros32(mask)
		rest := mask &^ (1 << v)
		e := edges[rest] + int64(bits.OnesCount32(nbr[v]&rest))
		edges[mask] = e
		size := int64(bits.OnesCount32(mask))
		switch c := e*bestS - bestE*size; {
		case c > 0:
			bestE, bestS, union = e, size, mask
		case c == 0:
			union |= mask
		}
	}
	var best []int32
	for v := 0; v < n; v++ {
		if union&(1<<v) != 0 {
			best = append(best, int32(v))
		}
	}
	return solver.Result{Algorithm: "BruteForce", Vertices: best, Density: float64(bestE) / float64(bestS)}
}

// checkExact compares an exact solver's answer res on g with the
// brute-force optimum bf: the densities must be equal as rationals and the
// sets identical. On a graph without edges the solvers answer one vertex
// (none for the empty graph) instead of bruteForce's union.
func checkExact(g *graph.Undirected, res, bf solver.Result) error {
	e, size := g.InducedEdges(res.Vertices)
	if g.M() == 0 {
		if e != 0 || len(res.Vertices) != min(g.N(), 1) {
			return fmt.Errorf("edgeless graph: got %v", res.Vertices)
		}
		return nil
	}
	be, bsize := g.InducedEdges(bf.Vertices)
	if e*int64(bsize) != be*int64(size) {
		return fmt.Errorf("density %d/%d, want %d/%d", e, size, be, bsize)
	}
	got := slices.Clone(res.Vertices)
	slices.Sort(got)
	if !slices.Equal(got, bf.Vertices) {
		return fmt.Errorf("vertices %v, want the maximal densest set %v", got, bf.Vertices)
	}
	return nil
}

func randomGraph(seed int64, maxN, mult int) *graph.Undirected {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(maxN)
	var edges []graph.Edge
	for i := 0; i < rng.Intn(n*mult+1); i++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	return graph.NewUndirected(n, edges)
}

// --- Exact solver ---

func TestExactMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 19, 3) // up to 20 vertices
		bf := bruteForce(g)
		for _, fn := range []func(context.Context, *graph.Undirected, solver.Params) (solver.Result, error){Exact, ExactPruned} {
			if err := checkExact(g, solve(fn, g, solver.Params{}), bf); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestExactPaperFig1a(t *testing.T) {
	// The paper's Fig. 1(a): the densest subgraph has 5 edges over 4
	// vertices (density 5/4). Reconstruct the shape: 4 vertices with 5
	// edges among them (K4 minus an edge), plus sparse surroundings.
	g := graph.NewUndirected(7, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, // K4 minus {2,3}
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 6},
	})
	res := solve(Exact, g, solver.Params{})
	if math.Abs(res.Density-1.25) > 1e-9 {
		t.Fatalf("density = %v, want 1.25", res.Density)
	}
	if len(res.Vertices) != 4 {
		t.Fatalf("|S| = %d, want 4", len(res.Vertices))
	}
}

func TestExactRecoversPlantedClique(t *testing.T) {
	base := gen.ErdosRenyi(300, 600, 5)
	g, planted := gen.PlantClique(base, 12, 6)
	res := solve(Exact, g, solver.Params{})
	// Planted density (12-clique) is 5.5; the ER body has density ~2.
	if res.Density < 5.49 {
		t.Fatalf("density = %v, want >= 5.5", res.Density)
	}
	in := map[int32]bool{}
	for _, v := range res.Vertices {
		in[v] = true
	}
	found := 0
	for _, v := range planted {
		if in[v] {
			found++
		}
	}
	if found < 12 {
		t.Fatalf("only %d of 12 planted vertices recovered", found)
	}
}

func TestExactTrivialGraphs(t *testing.T) {
	if res := solve(Exact, graph.NewUndirected(0, nil), solver.Params{}); res.Density != 0 {
		t.Fatal("empty graph")
	}
	res := solve(Exact, graph.NewUndirected(3, nil), solver.Params{})
	if res.Density != 0 || len(res.Vertices) != 1 {
		t.Fatalf("edgeless: %+v", res)
	}
	res = solve(Exact, graph.NewUndirected(2, []graph.Edge{{U: 0, V: 1}}), solver.Params{})
	if math.Abs(res.Density-0.5) > 1e-9 {
		t.Fatalf("single edge density = %v, want 0.5", res.Density)
	}
}

func TestBruteForcePanicsOnLargeGraph(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	bruteForce(gen.ErdosRenyi(21, 30, 1))
}

// --- approximation guarantees, all algorithms vs Exact ---

func TestApproximationGuarantees(t *testing.T) {
	algos := []struct {
		name  string
		run   func(context.Context, *graph.Undirected, solver.Params) (solver.Result, error)
		p     solver.Params
		bound float64
	}{
		{"Charikar", Charikar, solver.Params{}, 2.0},
		{"PBU", PBU, solver.Params{Epsilon: 0.5, Workers: 2}, 3.0}, // 2(1+0.5)
		{"PKMC", PKMC, solver.Params{Workers: 2}, 2.0},
		{"Local", Local, solver.Params{Workers: 2}, 2.0},
		{"PKC", PKC, solver.Params{Workers: 2}, 2.0},
		{"BZ", BZ, solver.Params{}, 2.0},
		{"PFW", PFW, solver.Params{Iterations: 60, Workers: 2}, 2.0}, // (1+ε) in theory; 2 is a loose test bound
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng.Int63(), 40, 4)
		if g.M() == 0 {
			continue
		}
		opt := solve(Exact, g, solver.Params{}).Density
		for _, a := range algos {
			res := solve(a.run, g, a.p)
			if res.Density <= 0 && opt > 0 {
				t.Fatalf("%s returned density %v on a graph with optimum %v", a.name, res.Density, opt)
			}
			if res.Density*a.bound < opt-1e-9 {
				t.Fatalf("%s: density %v violates %v-approximation (opt %v)", a.name, res.Density, a.bound, opt)
			}
			if res.Density > opt+1e-9 {
				t.Fatalf("%s: density %v exceeds the optimum %v", a.name, res.Density, opt)
			}
		}
	}
}

// --- Charikar ---

func TestCharikarOnCliquePlusNoise(t *testing.T) {
	base := gen.ErdosRenyi(200, 300, 7)
	g, _ := gen.PlantClique(base, 15, 8)
	res := solve(Charikar, g, solver.Params{})
	// Optimum >= 7 (the 15-clique); 2-approx floor is 3.5.
	if res.Density < 3.5 {
		t.Fatalf("Charikar density = %v", res.Density)
	}
}

func TestCharikarEmpty(t *testing.T) {
	if res := solve(Charikar, graph.NewUndirected(0, nil), solver.Params{}); res.Density != 0 {
		t.Fatal("empty")
	}
}

// --- PBU ---

func TestPBURoundsLogarithmic(t *testing.T) {
	g := gen.ChungLu(5000, 50000, 2.2, 9)
	res := solve(PBU, g, solver.Params{Epsilon: 0.5, Workers: 4})
	// O(log n / log 1.5) rounds ≈ 21 for n=5000; allow generous slack.
	if res.Iterations > 60 {
		t.Fatalf("PBU used %d rounds", res.Iterations)
	}
	if res.Density <= 0 {
		t.Fatal("PBU found nothing")
	}
}

func TestPBUDefaultEpsilon(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 10)
	res := solve(PBU, g, solver.Params{Workers: 2}) // eps <= 0 falls back to 0.5
	if res.Density <= 0 {
		t.Fatal("PBU with default epsilon found nothing")
	}
}

func TestPBUParallelMatchesSerial(t *testing.T) {
	g := gen.ChungLu(2000, 20000, 2.3, 11)
	a := solve(PBU, g, solver.Params{Epsilon: 0.5, Workers: 1})
	b := solve(PBU, g, solver.Params{Epsilon: 0.5, Workers: 8})
	if math.Abs(a.Density-b.Density) > 1e-9 {
		t.Fatalf("PBU parallel (%v) != serial (%v)", b.Density, a.Density)
	}
}

// --- PFW ---

func TestPFWConvergesTowardsExact(t *testing.T) {
	base := gen.ErdosRenyi(150, 250, 12)
	g, _ := gen.PlantClique(base, 12, 13)
	opt := solve(Exact, g, solver.Params{}).Density
	res := solve(PFW, g, solver.Params{Iterations: 150, Workers: 2})
	if res.Density < opt*0.85 {
		t.Fatalf("PFW density %v too far from optimum %v", res.Density, opt)
	}
}

func TestPFWDefaultIterations(t *testing.T) {
	g := gen.ErdosRenyi(50, 100, 14)
	res := solve(PFW, g, solver.Params{Workers: 2})
	if res.Iterations != DefaultPFWIterations {
		t.Fatalf("iterations = %d, want default %d", res.Iterations, DefaultPFWIterations)
	}
}

// --- core-based wrappers ---

func TestCoreWrappersAgree(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 60, 4)
		a, b, c, d := solve(PKMC, g, solver.Params{Workers: 2}), solve(Local, g, solver.Params{Workers: 2}), solve(PKC, g, solver.Params{Workers: 2}), solve(BZ, g, solver.Params{})
		return a.KStar == b.KStar && b.KStar == c.KStar && c.KStar == d.KStar &&
			math.Abs(a.Density-b.Density) < 1e-9 &&
			math.Abs(b.Density-c.Density) < 1e-9 &&
			math.Abs(c.Density-d.Density) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKStarCoreDensityAtLeastHalfKStar(t *testing.T) {
	// ρ(k*-core) >= k*/2 because every vertex has >= k* in-core neighbors.
	f := func(seed int64) bool {
		g := randomGraph(seed, 60, 5)
		res := solve(PKMC, g, solver.Params{Workers: 2})
		return res.Density >= float64(res.KStar)/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestResultString(t *testing.T) {
	res := solve(PKMC, gen.ErdosRenyi(50, 100, 15), solver.Params{Workers: 2})
	if res.String() == "" || res.Algorithm != "PKMC" {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestExactPrunedMatchesExact(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 40, 4)
		a := solve(Exact, g, solver.Params{})
		b := solve(ExactPruned, g, solver.Params{})
		slices.Sort(a.Vertices)
		slices.Sort(b.Vertices)
		return slices.Equal(a.Vertices, b.Vertices)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExactPrunedOnPlantedClique(t *testing.T) {
	base := gen.ChungLu(2000, 20000, 2.3, 16)
	g, planted := gen.PlantClique(base, 40, 17)
	res := solve(ExactPruned, g, solver.Params{Workers: 2})
	// The 40-clique plus stray body edges: density >= 19.5.
	if res.Density < float64(len(planted)-1)/2 {
		t.Fatalf("density = %v", res.Density)
	}
}

func TestExactPrunedTrivial(t *testing.T) {
	if res := solve(ExactPruned, graph.NewUndirected(3, nil), solver.Params{Workers: 2}); res.Algorithm != "ExactPruned" || res.Density != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestGreedyPPAtLeastCharikar(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 50, 4)
		gp := solve(GreedyPP, g, solver.Params{Iterations: 8})
		ch := solve(Charikar, g, solver.Params{})
		return gp.Density >= ch.Density-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPPConvergesToExact(t *testing.T) {
	hits := 0
	trials := 0
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 20; i++ {
		g := randomGraph(rng.Int63(), 30, 4)
		if g.M() == 0 {
			continue
		}
		trials++
		opt := solve(Exact, g, solver.Params{}).Density
		gp := solve(GreedyPP, g, solver.Params{Iterations: 32})
		if gp.Density > opt+1e-9 {
			t.Fatalf("GreedyPP density %v exceeds optimum %v", gp.Density, opt)
		}
		if gp.Density >= opt-1e-9 {
			hits++
		}
	}
	// Boob et al.'s observation: iterated peeling is near-exact in
	// practice. Demand it lands on the optimum in most trials.
	if hits*3 < trials*2 {
		t.Fatalf("GreedyPP hit the optimum only %d / %d times", hits, trials)
	}
}

func TestGreedyPPDefaults(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 18)
	res := solve(GreedyPP, g, solver.Params{})
	if res.Iterations != DefaultGreedyPPRounds || res.Density <= 0 {
		t.Fatalf("%+v", res)
	}
	if r := solve(GreedyPP, graph.NewUndirected(0, nil), solver.Params{Iterations: 4}); r.Density != 0 {
		t.Fatal("empty graph")
	}
}

func TestGreedyPPOnPlantedClique(t *testing.T) {
	base := gen.ChungLu(1000, 8000, 2.4, 19)
	g, planted := gen.PlantClique(base, 30, 20)
	res := solve(GreedyPP, g, solver.Params{Iterations: 16})
	if res.Density < float64(len(planted)-1)/2 {
		t.Fatalf("density %v below the clique floor", res.Density)
	}
}

func TestDensityFriendlyProperties(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 35, 4)
		tiers := DensityFriendly(g)
		if g.M() > 0 && len(tiers) == 0 {
			return false
		}
		seen := map[int32]bool{}
		prev := math.Inf(1)
		for i, tier := range tiers {
			// Tiers are disjoint.
			for _, v := range tier.Vertices {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
			// Densities are non-increasing.
			if tier.Density > prev+1e-9 {
				return false
			}
			prev = tier.Density
			// The first tier is the densest subgraph of G.
			if i == 0 {
				if math.Abs(tier.Density-solve(Exact, g, solver.Params{}).Density) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDensityFriendlyTwoCommunities(t *testing.T) {
	// Two planted cliques of different sizes: the decomposition must peel
	// the larger one first, then the smaller.
	base := gen.ErdosRenyi(300, 400, 70)
	g1, big := gen.PlantClique(base, 20, 71)
	g, small := gen.PlantClique(g1, 10, 72)
	tiers := DensityFriendly(g)
	if len(tiers) < 2 {
		t.Fatalf("only %d tiers", len(tiers))
	}
	inFirst := map[int32]bool{}
	for _, v := range tiers[0].Vertices {
		inFirst[v] = true
	}
	bigHits := 0
	for _, v := range big {
		if inFirst[v] {
			bigHits++
		}
	}
	if bigHits < len(big) {
		t.Fatalf("first tier captured %d/%d of the big clique", bigHits, len(big))
	}
	// The small clique surfaces in a later tier.
	later := map[int32]bool{}
	for _, tier := range tiers[1:] {
		for _, v := range tier.Vertices {
			later[v] = true
		}
	}
	smallHits := 0
	for _, v := range small {
		if later[v] || inFirst[v] {
			smallHits++
		}
	}
	if smallHits < len(small) {
		t.Fatalf("small clique lost: %d/%d", smallHits, len(small))
	}
}

func TestDensityFriendlyEmpty(t *testing.T) {
	if tiers := DensityFriendly(graph.NewUndirected(4, nil)); len(tiers) != 0 {
		t.Fatalf("edgeless graph produced tiers: %v", tiers)
	}
}

func TestExactEpsilonBound(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 40, 4)
		if g.M() == 0 {
			return true
		}
		opt := solve(Exact, g, solver.Params{}).Density
		for _, eps := range []float64{0.01, 0.1, 0.5} {
			res := solve(ExactEpsilon, g, solver.Params{Epsilon: eps, Workers: 2})
			if res.Density*(1+eps) < opt-1e-9 || res.Density > opt+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestExactEpsilonCheaperThanExact(t *testing.T) {
	base := gen.ChungLu(1500, 12000, 2.3, 80)
	g, _ := gen.PlantClique(base, 25, 81)
	res := solve(ExactEpsilon, g, solver.Params{Epsilon: 0.1, Workers: 2})
	// log2(1/0.1) ≈ 4 probes, versus Exact's ~40.
	if res.Iterations > 8 {
		t.Fatalf("probes = %d, want <= 8", res.Iterations)
	}
	if res.Density < 12*0.9 { // clique density 12, within 10%
		t.Fatalf("density = %v", res.Density)
	}
}
