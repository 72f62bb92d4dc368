package dds

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// arcSet returns a subgraph's arcs in the ids of the digraph it was cut
// from, sorted.
func arcSet(sub *graph.Directed, orig []int32) [][2]int32 {
	var out [][2]int32
	for _, e := range sub.Arcs() {
		out = append(out, [2]int32{orig[e.U], orig[e.V]})
	}
	slices.SortFunc(out, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	return out
}

// wstarFigures gathers every figure the differential tests compare: for
// each warm-start setting the w*-subgraph's w*, levels, Table-7 counts and
// arc set; findMaxCNPair's (x*, y*) on the warm w*-subgraph; and
// WDecompose's w*, levels and induce numbers.
type wstarFigures struct {
	subgraphs [2]wstarSubgraphFigures // cold, warm
	x, y      int32
	decompose DecomposeResult
}

type wstarSubgraphFigures struct {
	wstar, arcsAfterWarmStart, arcsAtWStar int64
	levels                                 int
	arcs                                   [][2]int32
}

// figuresOf runs the frontier peel, or the sweep oracle when ref is set,
// on d with p workers.
func figuresOf(d *graph.Directed, p int, ref bool) wstarFigures {
	var f wstarFigures
	for i, warm := range []bool{false, true} {
		var r WStarResult
		if ref {
			r = wStarSubgraphRef(d, p, warm)
		} else {
			r = WStarSubgraphOpts(d, p, warm)
		}
		f.subgraphs[i] = wstarSubgraphFigures{r.WStar, r.ArcsAfterWarmStart, r.ArcsAtWStar, r.Levels, arcSet(r.Subgraph, r.Original)}
		if warm && ref {
			f.x, f.y = findMaxCNPairRef(r.Subgraph, r.WStar, p)
		} else if warm {
			f.x, f.y = findMaxCNPair(r.Subgraph, r.WStar, p)
		}
	}
	if ref {
		f.decompose = wDecomposeRef(d, p)
	} else {
		f.decompose = WDecompose(d, p)
	}
	return f
}

// diffWStar compares the frontier peel on d at one and two workers with
// the sweep oracle, whose exact fixpoints make it worker-independent, and
// describes the first disagreement, or returns "". The last run shrinks
// the grains so that scans merge many blocks and rounds split across
// workers even on a small graph.
func diffWStar(d *graph.Directed) string {
	want := figuresOf(d, 1, true)
	defer func(s, r int) { scanGrain, roundGrain = s, r }(scanGrain, roundGrain)
	for _, run := range []struct{ p, scan, round int }{{1, scanGrain, roundGrain}, {2, scanGrain, roundGrain}, {2, 5, 2}} {
		p := run.p
		scanGrain, roundGrain = run.scan, run.round
		got := figuresOf(d, p, false)
		for i, g := range got.subgraphs {
			w := want.subgraphs[i]
			if g.wstar != w.wstar || g.levels != w.levels ||
				g.arcsAfterWarmStart != w.arcsAfterWarmStart || g.arcsAtWStar != w.arcsAtWStar {
				return fmt.Sprintf("p=%d warm=%v: w*=%d levels=%d warm-arcs=%d w*-arcs=%d, oracle %d %d %d %d",
					p, i == 1, g.wstar, g.levels, g.arcsAfterWarmStart, g.arcsAtWStar,
					w.wstar, w.levels, w.arcsAfterWarmStart, w.arcsAtWStar)
			}
			if !slices.Equal(g.arcs, w.arcs) {
				return fmt.Sprintf("p=%d warm=%v: w*-subgraph arc sets differ", p, i == 1)
			}
		}
		if got.x != want.x || got.y != want.y {
			return fmt.Sprintf("p=%d: cn-pair [%d, %d], oracle [%d, %d]", p, got.x, got.y, want.x, want.y)
		}
		gd, wd := got.decompose, want.decompose
		if gd.WStar != wd.WStar || gd.Levels != wd.Levels {
			return fmt.Sprintf("p=%d: WDecompose w*=%d levels=%d, oracle %d %d", p, gd.WStar, gd.Levels, wd.WStar, wd.Levels)
		}
		for a := range gd.InduceNumber {
			if gd.InduceNumber[a] != wd.InduceNumber[a] {
				return fmt.Sprintf("p=%d: induce number of arc %d = %d, oracle %d", p, a, gd.InduceNumber[a], wd.InduceNumber[a])
			}
		}
	}
	return ""
}

func TestWStarMatchesReferenceCatalog(t *testing.T) {
	for _, ds := range gen.DirectedCatalog() {
		d := ds.BuildDirected(0.003)
		if msg := diffWStar(d); msg != "" {
			t.Errorf("%s (n=%d m=%d): %s", ds.Abbr, d.N(), d.M(), msg)
		}
	}
}

func TestWStarMatchesReferenceRandom(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 40, 5)
		if msg := diffWStar(d); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzWStarVsReference decodes a digraph from the input — n from the first
// byte, then one arc per byte pair — and requires the frontier peel to
// agree with the sweep oracle at one and two workers.
func FuzzWStarVsReference(f *testing.F) {
	f.Add([]byte{9, 0, 4, 0, 5, 0, 6, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 2, 6, 2, 7, 3, 7}) // the paper's Fig. 3(a)
	f.Add([]byte{4, 0, 1, 1, 2, 2, 0, 0, 2, 3, 0})
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 3, 0, 4, 5, 5, 4})
	f.Add([]byte{2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+2*400 {
			return
		}
		n := 2 + int(data[0])%30
		var arcs []graph.Edge
		for i := 1; i+1 < len(data); i += 2 {
			arcs = append(arcs, graph.Edge{U: int32(int(data[i]) % n), V: int32(int(data[i+1]) % n)})
		}
		if msg := diffWStar(graph.NewDirected(n, arcs)); msg != "" {
			t.Fatal(msg)
		}
	})
}
