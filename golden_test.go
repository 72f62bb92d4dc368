package dsd_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro"
	"repro/internal/solver"
)

// The golden-answer regression test pins every registered solver's exact
// output — algorithm name, vertex set(s), density, cn-pair, iteration count
// and the TimedOut flag — on small catalog models, seeded random graphs and
// the degenerate inputs where solvers disagree on conventions (on three
// isolated vertices PBU returns no vertex while PFW and Exact return one).
// The goldens record those conventions as they are; a refactor of the
// dispatch or result plumbing must reproduce them bit for bit. Regenerate
// deliberately with
//
//	go test -run TestGoldenAnswers -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_answers.json from the current solvers")

const goldenPath = "testdata/golden_answers.json"

// goldenAnswer is one recorded solve. Vertex lists are stored sorted: the
// exact DDS search breaks density ties in map order and lists min-cut sides
// in traversal order, so only the sets are stable across runs.
type goldenAnswer struct {
	Algorithm  string  `json:"algorithm"`
	Vertices   []int32 `json:"vertices"`
	S          []int32 `json:"s"`
	T          []int32 `json:"t"`
	Density    float64 `json:"density"`
	KStar      int32   `json:"k_star,omitempty"`
	XStar      int32   `json:"x_star,omitempty"`
	YStar      int32   `json:"y_star,omitempty"`
	Iterations int     `json:"iterations"`
	TimedOut   bool    `json:"timed_out,omitempty"`
}

func udsAnswer(r dsd.Result) goldenAnswer {
	return goldenAnswer{Algorithm: r.Algorithm, Vertices: sorted(r.Vertices), Density: r.Density,
		KStar: r.KStar, Iterations: r.Iterations}
}

func ddsAnswer(r dsd.DirectedResult) goldenAnswer {
	return goldenAnswer{Algorithm: r.Algorithm, S: sorted(r.S), T: sorted(r.T), Density: r.Density,
		XStar: r.XStar, YStar: r.YStar, Iterations: r.Iterations, TimedOut: r.TimedOut}
}

// sorted returns a sorted copy of vs, keeping nil and empty apart: the
// solvers differ in which they return for an empty answer.
func sorted(vs []int32) []int32 {
	if vs == nil {
		return nil
	}
	out := append([]int32{}, vs...)
	slices.Sort(out)
	return out
}

// goldenScale keeps every catalog model small enough for the exact DDS
// ratio enumeration and the O(n²)-ratio PBS sweep (16-vertex digraphs,
// 40-132-vertex graphs).
const goldenScale = 0.0001

func randomEdges(rng *rand.Rand, n, m int) []dsd.Edge {
	edges := make([]dsd.Edge, m)
	for i := range edges {
		edges[i] = dsd.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	return edges
}

type udsCase struct {
	name string
	g    *dsd.Graph
}

type ddsCase struct {
	name string
	d    *dsd.Digraph
}

func goldenUDSCases(t *testing.T) []udsCase {
	cases := []udsCase{
		{"empty", dsd.NewGraph(0, nil)},
		{"isolated3", dsd.NewGraph(3, nil)},
		{"one-edge", dsd.NewGraph(2, []dsd.Edge{{U: 0, V: 1}})},
		{"triangle-pendant", dsd.NewGraph(4, []dsd.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}})},
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(8)
		cases = append(cases, udsCase{fmt.Sprintf("random-%d", seed), dsd.NewGraph(n, randomEdges(rng, n, 3*n))})
	}
	for _, ds := range dsd.Datasets() {
		if ds.Directed {
			continue
		}
		g, _, err := dsd.BuildDataset(ds.Abbr, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, udsCase{"catalog-" + ds.Abbr, g})
	}
	return cases
}

func goldenDDSCases(t *testing.T) []ddsCase {
	cases := []ddsCase{
		{"empty", dsd.NewDigraph(0, nil)},
		{"isolated3", dsd.NewDigraph(3, nil)},
		{"one-arc", dsd.NewDigraph(2, []dsd.Edge{{U: 0, V: 1}})},
		{"triangle-pendant", dsd.NewDigraph(4, []dsd.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}})},
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(6) // ≤ 11 vertices: within Brute's reach
		cases = append(cases, ddsCase{fmt.Sprintf("random-%d", seed), dsd.NewDigraph(n, randomEdges(rng, n, 3*n))})
	}
	for _, ds := range dsd.Datasets() {
		if !ds.Directed {
			continue
		}
		_, d, err := dsd.BuildDataset(ds.Abbr, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, ddsCase{"catalog-" + ds.Abbr, d})
	}
	return cases
}

// tooLarge reports whether a solver is an exponential oracle that cannot
// run on an n-vertex input (Brute enumerates subset pairs up to 13
// vertices; the plain exact DDS search enumerates all n² ratios).
func tooLarge(kind solver.Kind, name string, n int) bool {
	switch {
	case name == "brute":
		return n > 13
	case kind == solver.KindDDS && name == "exact":
		return n > 16
	}
	return false
}

// TestGoldenAnswers runs every registered UDS and DDS solver on the golden
// inputs, compares each answer with the recorded one, and checks that an
// armed trace leaves the answer unchanged.
func TestGoldenAnswers(t *testing.T) {
	got := map[string]goldenAnswer{}
	// One worker keeps the parallel solvers' tie-breaks deterministic (PXY
	// keeps whichever of two equal x·y products a worker records first), and
	// Budget 0 runs the budgeted DDS baselines to completion, so no answer
	// depends on scheduling or machine speed.
	opts := func(tr *dsd.Trace) dsd.Options { return dsd.Options{Workers: 1, Trace: tr} }

	for _, c := range goldenUDSCases(t) {
		for _, desc := range solver.List(solver.KindUDS) {
			if tooLarge(desc.Kind, desc.Name, c.g.N()) {
				continue
			}
			key := "uds/" + desc.Name + "/" + c.name
			plain, err := dsd.SolveUDS(c.g, dsd.Algo(desc.Name), opts(nil))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			traced, err := dsd.SolveUDS(c.g, dsd.Algo(desc.Name), opts(&dsd.Trace{}))
			if err != nil {
				t.Fatalf("%s traced: %v", key, err)
			}
			if !reflect.DeepEqual(udsAnswer(plain), udsAnswer(traced)) {
				t.Errorf("%s: traced answer %+v differs from untraced %+v", key, traced, plain)
			}
			got[key] = udsAnswer(plain)
		}
	}
	for _, c := range goldenDDSCases(t) {
		for _, desc := range solver.List(solver.KindDDS) {
			if tooLarge(desc.Kind, desc.Name, c.d.N()) {
				continue
			}
			key := "dds/" + desc.Name + "/" + c.name
			plain, err := dsd.SolveDDS(c.d, dsd.Algo(desc.Name), opts(nil))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			traced, err := dsd.SolveDDS(c.d, dsd.Algo(desc.Name), opts(&dsd.Trace{}))
			if err != nil {
				t.Fatalf("%s traced: %v", key, err)
			}
			if !reflect.DeepEqual(ddsAnswer(plain), ddsAnswer(traced)) {
				t.Errorf("%s: traced answer %+v differs from untraced %+v", key, traced, plain)
			}
			got[key] = ddsAnswer(plain)
		}
	}

	if *updateGolden {
		// One answer per line keeps a changed answer a one-line diff.
		var buf bytes.Buffer
		buf.WriteString("{\n")
		keys := make([]string, 0, len(got))
		for key := range got {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for i, key := range keys {
			line, err := json.Marshal(got[key])
			if err != nil {
				t.Fatal(err)
			}
			sep := ","
			if i == len(got)-1 {
				sep = ""
			}
			fmt.Fprintf(&buf, "  %q: %s%s\n", key, line, sep)
		}
		buf.WriteString("}\n")
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	var want map[string]goldenAnswer
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: recorded answer was not produced", key)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got  %+v\n want %+v", key, g, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: no recorded answer (regenerate with -update-golden)", key)
		}
	}
}
