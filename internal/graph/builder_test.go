package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// messyEdges returns m random edges on n vertices with self-loops,
// repeats and both orientations of some edges mixed in.
func messyEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, 0, 2*m)
	for i := 0; i < m; i++ {
		e := Edge{int32(rng.Intn(n)), int32(rng.Intn(n))}
		edges = append(edges, e)
		switch rng.Intn(6) {
		case 0:
			edges = append(edges, e)
		case 1:
			edges = append(edges, Edge{e.V, e.U})
		case 2:
			edges = append(edges, Edge{e.U, e.U})
		}
	}
	return edges
}

// cleanEdges sorts edges and drops self-loops and repeats; undirected
// edges are first turned so that U < V.
func cleanEdges(edges []Edge, undirected bool) []Edge {
	var out []Edge
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if undirected && e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b Edge) int {
		if a.U != b.U {
			return int(a.U - b.U)
		}
		return int(a.V - b.V)
	})
	return slices.Compact(out)
}

// wantCSR builds the CSR arrays of a clean, sorted edge list by hand.
func wantCSR(n int, clean []Edge, reverse bool) ([]int64, []int32) {
	lists := make([][]int32, n)
	for _, e := range clean {
		if reverse {
			e.U, e.V = e.V, e.U
		}
		lists[e.U] = append(lists[e.U], e.V)
	}
	off := make([]int64, n+1)
	var adj []int32
	for v, l := range lists {
		slices.Sort(l)
		adj = append(adj, l...)
		off[v+1] = int64(len(adj))
	}
	return off, adj
}

// TestBuildersIndependentOfEdgeOrder builds both graph kinds from shuffled
// edge lists with repeats, self-loops and flipped endpoints: the CSR arrays
// must equal those of the sorted, de-duplicated list, and those built by
// hand from it.
func TestBuildersIndependentOfEdgeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(60)
		edges := messyEdges(rng, n, rng.Intn(4*n))
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

		g, err := NewUndirectedChecked(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		clean := cleanEdges(edges, true)
		ref := NewUndirected(n, clean)
		var sym []Edge
		for _, e := range clean {
			sym = append(sym, e, Edge{e.V, e.U})
		}
		off, adj := wantCSR(n, sym, false)
		for _, h := range []*Undirected{g, ref} {
			if !reflect.DeepEqual(h.offsets, off) || !slices.Equal(h.adj, adj) {
				t.Fatalf("trial %d: undirected CSR (%v, %v), want (%v, %v)", trial, h.offsets, h.adj, off, adj)
			}
		}

		d, err := NewDirectedChecked(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		arcs := cleanEdges(edges, false)
		dref := NewDirected(n, arcs)
		outOff, outAdj := wantCSR(n, arcs, false)
		inOff, inAdj := wantCSR(n, arcs, true)
		for _, h := range []*Directed{d, dref} {
			if !reflect.DeepEqual(h.outOff, outOff) || !slices.Equal(h.outAdj, outAdj) ||
				!reflect.DeepEqual(h.inOff, inOff) || !slices.Equal(h.inAdj, inAdj) {
				t.Fatalf("trial %d: directed CSR differs from the clean arc list's", trial)
			}
		}
	}
}
