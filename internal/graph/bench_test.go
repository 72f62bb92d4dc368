package graph

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
)

// benchInput is the layer benchmarks' graph: a seeded Chung–Lu power-law
// edge list (β = 2.2) on 2^16 vertices with 2^19 sampled pairs, in shuffled
// order, plus its text form.
type benchInput struct {
	n     int
	edges []Edge
	text  []byte
}

var benchGraph = sync.OnceValue(func() benchInput {
	const n, m, beta = 1 << 16, 1 << 19, 2.2
	rng := rand.New(rand.NewSource(1))
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -1/(beta-1))
		cdf[i] = sum
	}
	perm := rng.Perm(n)
	pick := func() int32 {
		return int32(perm[sort.SearchFloat64s(cdf, rng.Float64()*sum)])
	}
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{pick(), pick()}
	}
	var text []byte
	for _, e := range edges {
		text = strconv.AppendInt(text, int64(e.U), 10)
		text = append(text, ' ')
		text = strconv.AppendInt(text, int64(e.V), 10)
		text = append(text, '\n')
	}
	return benchInput{n: n, edges: edges, text: text}
})

func BenchmarkReadEdgeList(b *testing.B) {
	in := benchGraph()
	b.SetBytes(int64(len(in.text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ReadEdgeList(bytes.NewReader(in.text)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewUndirectedChecked(b *testing.B) {
	in := benchGraph()
	for _, c := range []struct {
		name  string
		edges []Edge
	}{
		{"shuffled", in.edges},
		{"csr-order", NewUndirected(in.n, in.edges).Edges()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewUndirectedChecked(in.n, c.edges); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNewDirectedChecked(b *testing.B) {
	in := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDirectedChecked(in.n, in.edges); err != nil {
			b.Fatal(err)
		}
	}
}
