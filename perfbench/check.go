package main

import (
	"fmt"
	"math"
)

// The answer checker. It holds the benchmark's own copy of every input and
// recomputes each returned answer from it, so a wrong answer from the
// program cannot pass by agreeing with the program's own bookkeeping.

// refGraph is an undirected graph in CSR form, built by the benchmark from
// the edge list it generated (not by the program's graph package).
type refGraph struct {
	n   int
	m   int64
	off []int64
	adj []int32
}

// newRefGraph builds the CSR of an undirected simple graph; self-loops are
// dropped, and the edge list must hold each edge once.
func newRefGraph(n int, edges [][2]int32) *refGraph {
	deg := make([]int64, n+1)
	var m int64
	for _, e := range edges {
		if e[0] != e[1] {
			deg[e[0]+1]++
			deg[e[1]+1]++
			m++
		}
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	adj := make([]int32, deg[n])
	pos := append([]int64(nil), deg[:n]...)
	for _, e := range edges {
		if e[0] != e[1] {
			adj[pos[e[0]]] = e[1]
			pos[e[0]]++
			adj[pos[e[1]]] = e[0]
			pos[e[1]]++
		}
	}
	return &refGraph{n: n, m: m, off: deg, adj: adj}
}

func (g *refGraph) neighbors(v int32) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

// members marks a returned vertex set, rejecting empty sets, ids out of
// range and repeated ids.
func members(n int, s []int32) ([]bool, error) {
	if len(s) == 0 {
		return nil, fmt.Errorf("empty vertex set")
	}
	in := make([]bool, n)
	for _, v := range s {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("vertex %d outside [0,%d)", v, n)
		}
		if in[v] {
			return nil, fmt.Errorf("vertex %d returned twice", v)
		}
		in[v] = true
	}
	return in, nil
}

// inducedDensity is |E(S)|/|S| recomputed from the reference graph.
func (g *refGraph) inducedDensity(s []int32) (float64, error) {
	in, err := members(g.n, s)
	if err != nil {
		return 0, err
	}
	var twice int64
	for _, u := range s {
		for _, v := range g.neighbors(u) {
			if in[v] {
				twice++
			}
		}
	}
	return float64(twice/2) / float64(len(s)), nil
}

// coreNumbers is the Batagelj–Zaveršnik bucket peel: O(n+m), serial. The
// benchmark's own reference for k*.
func coreNumbers(n int, deg func(v int32) int32, neighbors func(v int32) []int32) []int32 {
	d := make([]int32, n)
	var maxDeg int32
	for v := range d {
		d[v] = deg(int32(v))
		maxDeg = max(maxDeg, d[v])
	}
	bin := make([]int32, maxDeg+2)
	for _, x := range d {
		bin[x+1]++
	}
	for i := 1; i < len(bin); i++ {
		bin[i] += bin[i-1]
	}
	pos := make([]int32, n)
	vert := make([]int32, n)
	next := append([]int32(nil), bin...)
	for v, x := range d {
		pos[v] = next[x]
		vert[pos[v]] = int32(v)
		next[x]++
	}
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, u := range neighbors(v) {
			if d[u] > d[v] {
				du := d[u]
				pu, pw := pos[u], bin[du]
				w := vert[pw]
				if u != w {
					vert[pu], vert[pw] = w, u
					pos[u], pos[w] = pw, pu
				}
				bin[du]++
				d[u]--
			}
		}
	}
	return d
}

// kCore is the k*-core of a graph: k*, the core's density and its size.
// PKMC must return exactly this subgraph.
type kCore struct {
	K       int32   `json:"k_star"`
	Density float64 `json:"density"`
	Size    int     `json:"size"`
}

// kStarCore returns the k*-core of a graph given its core numbers.
func kStarCore(core []int32, neighbors func(v int32) []int32) kCore {
	var k int32
	for _, c := range core {
		k = max(k, c)
	}
	var size, twice int64
	for v, c := range core {
		if c < k {
			continue
		}
		size++
		for _, u := range neighbors(int32(v)) {
			if core[u] >= k {
				twice++
			}
		}
	}
	if size == 0 {
		return kCore{}
	}
	return kCore{K: k, Density: float64(twice/2) / float64(size), Size: int(size)}
}

func (g *refGraph) kStar() kCore {
	core := coreNumbers(g.n, func(v int32) int32 { return int32(g.off[v+1] - g.off[v]) }, g.neighbors)
	return kStarCore(core, g.neighbors)
}

// refDigraph is a directed graph as out-adjacency CSR.
type refDigraph struct {
	n   int
	m   int64
	off []int64
	adj []int32
}

func newRefDigraph(n int, arcs [][2]int32) *refDigraph {
	off := make([]int64, n+1)
	for _, a := range arcs {
		off[a[0]+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adj := make([]int32, len(arcs))
	pos := append([]int64(nil), off[:n]...)
	for _, a := range arcs {
		adj[pos[a[0]]] = a[1]
		pos[a[0]]++
	}
	return &refDigraph{n: n, m: int64(len(arcs)), off: off, adj: adj}
}

// densityST is |E(S,T)|/√(|S||T|) recomputed from the reference digraph.
func (d *refDigraph) densityST(s, t []int32) (float64, error) {
	if _, err := members(d.n, s); err != nil {
		return 0, fmt.Errorf("S: %w", err)
	}
	inT, err := members(d.n, t)
	if err != nil {
		return 0, fmt.Errorf("T: %w", err)
	}
	var e int64
	for _, u := range s {
		for _, v := range d.adj[d.off[u]:d.off[u+1]] {
			if inT[v] {
				e++
			}
		}
	}
	return float64(e) / math.Sqrt(float64(len(s))*float64(len(t))), nil
}

// sameDensity compares a reported density with the recomputed one. Both
// are a ratio of the same integers, so anything beyond rounding is wrong.
func sameDensity(reported, recomputed float64) error {
	if math.Abs(reported-recomputed) > 1e-9*math.Max(1, recomputed) {
		return fmt.Errorf("reported density %.9g, recomputed %.9g", reported, recomputed)
	}
	return nil
}

// udsAnswer is one returned undirected answer as the checker sees it.
type udsAnswer struct {
	Vertices []int32
	Density  float64
	KStar    int32
}

// checkUDS recomputes the density of the returned set and compares it with
// the reported one.
func checkUDS(g *refGraph, a udsAnswer) error {
	got, err := g.inducedDensity(a.Vertices)
	if err != nil {
		return err
	}
	return sameDensity(a.Density, got)
}

// checkPKMC adds the k*-core checks: PKMC returns the k*-core, so its k*,
// its size and its density must all be the reference k*-core's.
func checkPKMC(g *refGraph, a udsAnswer, ref kCore) error {
	if a.KStar != ref.K {
		return fmt.Errorf("k* = %d, reference k* = %d", a.KStar, ref.K)
	}
	if len(a.Vertices) != ref.Size {
		return fmt.Errorf("%d vertices, reference k*-core has %d", len(a.Vertices), ref.Size)
	}
	if err := checkUDS(g, a); err != nil {
		return err
	}
	return sameDensity(a.Density, ref.Density)
}

// checkOrder enforces pkmc density ≤ exact density ≤ k*: the k*-core is a
// feasible subgraph, and no subgraph is denser than its max core number.
func checkOrder(pkmc, exact float64, kStar int32) error {
	const tol = 1e-9
	if exact+tol < pkmc {
		return fmt.Errorf("exact density %.9g below pkmc density %.9g", exact, pkmc)
	}
	if exact > float64(kStar)+tol {
		return fmt.Errorf("exact density %.9g above k* = %d", exact, kStar)
	}
	return nil
}

// checkDDS recomputes |E(S,T)|/√(|S||T|) and holds PWC to its factor-2
// guarantee against the planted S×T biclique, whose density is a lower
// bound on the optimum.
func checkDDS(d *refDigraph, s, t []int32, density, planted float64) error {
	got, err := d.densityST(s, t)
	if err != nil {
		return err
	}
	if err := sameDensity(density, got); err != nil {
		return err
	}
	if 2*got+1e-9 < planted {
		return fmt.Errorf("density %.6g below half the planted biclique's %.6g", got, planted)
	}
	return nil
}

// tally counts operations. An op fails when it errors, is refused (any
// 4xx/5xx), times out or returns an answer that fails its check. Any failed
// op makes the run incorrect; Wrong counts the failed checks apart.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Wrong     int      `json:"wrong"`
	Samples   []string `json:"samples,omitempty"` // the first few failures
}

// opError marks a failure that is not a wrong answer (transport error,
// refusal, timeout).
type opError struct{ error }

// record counts one op; err nil is a success, an opError a failed op, any
// other error a wrong answer. It reports whether the op succeeded.
func (t *tally) record(op string, err error) bool {
	t.Attempted++
	if err == nil {
		return true
	}
	t.Failed++
	if _, ok := err.(opError); !ok {
		t.Wrong++
	}
	if len(t.Samples) < 8 {
		t.Samples = append(t.Samples, op+": "+err.Error())
	}
	return false
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Wrong += o.Wrong
	for _, s := range o.Samples {
		if len(t.Samples) < 8 {
			t.Samples = append(t.Samples, s)
		}
	}
}

func (t *tally) failedFrac() float64 {
	if t.Attempted == 0 {
		return 1
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// correct reports whether every op succeeded and every answer passed its
// check.
func (t *tally) correct() bool { return t.Attempted > 0 && t.Failed == 0 }
