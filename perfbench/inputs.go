package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Input sizes. The Chung–Lu body samples clM endpoint pairs; dropping
// self-loops and repeats leaves m ≈ 1.46M edges on n = 200k vertices. The
// digraph is the TW catalog model at scale 0.1: an RMAT body on 2^13
// vertices with 130k arcs and a planted twS×twT biclique (the catalog's
// nucleus sizes at that scale), so the densest (S, T) is not a star.
//
// The graphs' structure comes from structureSeed; the run's seed shuffles
// the edge order and the endpoint order of each edge, and with them the
// vertex ids. Every seed thus gives other files, but the same amount of
// solver work, so the spread between runs measures the system and not the
// random graph model (k*, the flow probes and PWC's levels are the same
// for every seed).
const (
	clN    = 200_000
	clM    = 1_600_000
	clBeta = 2.2

	twScale = 13
	twM     = 130_000
	twS     = 44
	twT     = 61

	structureSeed = 2023
)

// inputMeta is what every part of a run knows about the generated inputs:
// sizes for the environment stamp and the set-up-time references the
// checker compares answers against.
type inputMeta struct {
	Seed    int64   `json:"seed"`
	CLN     int     `json:"cl_n"`
	CLM     int64   `json:"cl_m"`
	CLCore  kCore   `json:"cl_k_star_core"` // BZ reference k*-core of the Chung–Lu graph
	TWN     int     `json:"tw_n"`
	TWM     int64   `json:"tw_m"`
	Planted float64 `json:"tw_planted_density"` // √(|S||T|) of the planted biclique
	TextMB  float64 `json:"cl_text_mb"`
}

// inputSet is the generated inputs: the files the program reads and the
// benchmark's own reference copies.
type inputSet struct {
	dir  string
	meta inputMeta
	cl   *refGraph
	clW  []float64 // Chung–Lu endpoint weights, in the relabelled ids
	tw   *refDigraph
	clE  [][2]int32
}

func (in *inputSet) path(name string) string { return filepath.Join(in.dir, name) }

// relabel renumbers the vertices in order of first appearance in the edge
// list. Written in this order, the text file's ids are exactly the compact
// ids the program's parser assigns, so answers from the text and the
// binary file share one id space; isolated vertices disappear.
func relabel(n int, edges []graph.Edge) (int, [][2]int32, []int32) {
	id := make([]int32, n)
	for i := range id {
		id[i] = -1
	}
	next := int32(0)
	out := make([][2]int32, len(edges))
	for i, e := range edges {
		for j, v := range [2]int32{e.U, e.V} {
			if id[v] < 0 {
				id[v] = next
				next++
			}
			out[i][j] = id[v]
		}
	}
	return int(next), out, id
}

// generate writes the inputs for one seed into dir.
func generate(dir string, seed int64) (*inputSet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputSet{dir: dir, meta: inputMeta{Seed: seed}}

	rng := rand.New(rand.NewSource(seed))
	body := gen.ChungLu(clN, clM, clBeta, structureSeed)
	n, edges, newID := relabel(body.N(), shuffle(rng, body.Edges(), true))
	in.clE = edges
	in.cl = newRefGraph(n, edges)
	in.meta.CLN, in.meta.CLM = n, in.cl.m
	in.meta.CLCore = in.cl.kStar()
	// The generator's weights, w_i ∝ (i+1)^(-1/(β-1)), carried over to the
	// new ids; the live mutation stream draws its endpoints from them.
	in.clW = make([]float64, n)
	for old, v := range newID {
		if v >= 0 {
			in.clW[v] = math.Pow(float64(old+1), -1/(clBeta-1))
		}
	}
	if err := writeText(in.path("cl.txt"), edges); err != nil {
		return nil, err
	}
	if err := writeBinary(in.path("cl.dsdg"), graph.NewUndirected(n, toEdges(edges))); err != nil {
		return nil, err
	}
	if st, err := os.Stat(in.path("cl.txt")); err == nil {
		in.meta.TextMB = float64(st.Size()) / 1e6
	}

	rmat := gen.RMATDirected(twScale, twM, 0.55, 0.19, 0.19, structureSeed+1)
	d := gen.CompositeDirected(rmat, twS, twT, structureSeed+2)
	n, arcs, _ := relabel(d.N(), shuffle(rng, d.Arcs(), false))
	in.tw = newRefDigraph(n, arcs)
	in.meta.TWN, in.meta.TWM = n, in.tw.m
	in.meta.Planted = math.Sqrt(twS * twT)
	if err := writeText(in.path("tw.txt"), arcs); err != nil {
		return nil, err
	}
	if err := writeBinary(in.path("tw.dsdg"), graph.NewDirected(n, toEdges(arcs))); err != nil {
		return nil, err
	}
	return in, nil
}

// shuffle permutes the edge order and, for undirected edges, the order of
// each edge's endpoints.
func shuffle(rng *rand.Rand, edges []graph.Edge, undirected bool) []graph.Edge {
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	if undirected {
		for i := range edges {
			if rng.Intn(2) == 0 {
				edges[i].U, edges[i].V = edges[i].V, edges[i].U
			}
		}
	}
	return edges
}

func toEdges(es [][2]int32) []graph.Edge {
	out := make([]graph.Edge, len(es))
	for i, e := range es {
		out[i] = graph.Edge{U: e[0], V: e[1]}
	}
	return out
}

// writeText writes "u v" lines in the given order.
func writeText(path string, edges [][2]int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 32)
	for _, e := range edges {
		buf = strconv.AppendInt(buf[:0], int64(e[0]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e[1]), 10)
		buf = append(buf, '\n')
		w.Write(buf) // a write error sticks in w and surfaces at Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeBinary writes the program's DSD2 binary format with the program's
// own writer: the format is the program's, not the benchmark's.
func writeBinary(path string, g interface{ WriteBinary(w io.Writer) error }) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := g.WriteBinary(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveRef writes the reference copies and metadata for a checker running
// in a child process: n, then the pairs, as little-endian int32s.
func (in *inputSet) saveRef() error {
	b, err := json.Marshal(in.meta)
	if err != nil {
		return err
	}
	if err := os.WriteFile(in.path("meta.json"), b, 0o644); err != nil {
		return err
	}
	if err := writePairs(in.path("ref-cl.bin"), in.cl.n, in.clE); err != nil {
		return err
	}
	arcs := make([][2]int32, 0, in.tw.m)
	for u := 0; u < in.tw.n; u++ {
		for _, v := range in.tw.adj[in.tw.off[u]:in.tw.off[u+1]] {
			arcs = append(arcs, [2]int32{int32(u), v})
		}
	}
	return writePairs(in.path("ref-tw.bin"), in.tw.n, arcs)
}

func writePairs(path string, n int, pairs [][2]int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	hdr := [2]int64{int64(n), int64(len(pairs))}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		f.Close()
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, pairs); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readPairs(path string) (int, [][2]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var hdr [2]int64
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return 0, nil, err
	}
	pairs := make([][2]int32, hdr[1])
	if err := binary.Read(r, binary.LittleEndian, pairs); err != nil {
		return 0, nil, fmt.Errorf("%s: %w", path, err)
	}
	return int(hdr[0]), pairs, nil
}

// loadRef is the child-process side of saveRef.
func loadRef(dir string) (*inputSet, error) {
	in := &inputSet{dir: dir}
	b, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &in.meta); err != nil {
		return nil, err
	}
	n, edges, err := readPairs(in.path("ref-cl.bin"))
	if err != nil {
		return nil, err
	}
	in.cl = newRefGraph(n, edges)
	n, arcs, err := readPairs(in.path("ref-tw.bin"))
	if err != nil {
		return nil, err
	}
	in.tw = newRefDigraph(n, arcs)
	return in, nil
}
