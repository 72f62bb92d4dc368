package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// clique4 is a 4-clique {0,1,2,3} with a pendant path 3-4-5: k* = 3, the
// densest subgraph is the clique at density 6/4.
func clique4() *refGraph {
	return newRefGraph(6, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}})
}

func TestKStarReference(t *testing.T) {
	if c := clique4().kStar(); c != (kCore{K: 3, Density: 1.5, Size: 4}) {
		t.Fatalf("k*-core = %+v; want k*=3, density 1.5, size 4", c)
	}
}

// A doctored answer — right set, inflated density; a set that is not the
// one whose density was reported; or a set that is not the k*-core —
// counts as failed, lifts failed_frac and makes the run incorrect, while
// the genuine answer passes.
func TestDoctoredAnswerCountsAsFailed(t *testing.T) {
	g := clique4()
	ref := g.kStar()
	var tl tally
	genuine := udsAnswer{Vertices: []int32{0, 1, 2, 3}, Density: 1.5, KStar: 3}
	tl.record("pkmc", checkPKMC(g, genuine, ref))
	if tl.Failed != 0 || !tl.correct() {
		t.Fatalf("genuine answer failed: %+v", tl)
	}
	doctored := []udsAnswer{
		{Vertices: []int32{0, 1, 2, 3}, Density: 1.75, KStar: 3},   // inflated density
		{Vertices: []int32{0, 1, 2, 4}, Density: 1.5, KStar: 3},    // swapped vertex
		{Vertices: []int32{0, 1, 2, 3}, Density: 1.5, KStar: 4},    // wrong k*
		{Vertices: []int32{0, 1, 2, 2}, Density: 1.5, KStar: 3},    // repeated vertex
		{Vertices: []int32{0, 1, 2, 9}, Density: 1.5, KStar: 3},    // vertex out of range
		{Vertices: []int32{0, 1, 2}, Density: 1, KStar: 3},         // proper subset of the k*-core, true density
		{Vertices: []int32{0, 1, 2, 3, 4}, Density: 1.4, KStar: 3}, // superset of the k*-core, true density
	}
	for _, a := range doctored {
		tl.record("pkmc", checkPKMC(g, a, ref))
	}
	if tl.Attempted != 8 || tl.Failed != 7 || tl.Wrong != 7 {
		t.Fatalf("tally = %+v; want 8 attempted, 7 failed, 7 wrong", tl)
	}
	if got := tl.failedFrac(); math.Abs(got-7.0/8) > 1e-12 {
		t.Fatalf("failed_frac = %v; want 7/8", got)
	}
	if tl.correct() {
		t.Fatal("a run with doctored answers reads as correct")
	}
	line := newResult("file-to-answer", false)
	line.Tally = tl
	if m := line.line(false); m["correct"] != false || m["failed"] != 7 {
		t.Fatalf("result line = %v; want correct=false failed=7", m)
	}
}

// A refused request counts in failed_frac, apart from the wrong answers,
// and makes the run incorrect.
func TestRefusalMakesRunIncorrect(t *testing.T) {
	var tl tally
	tl.record("solve", nil)
	tl.record("solve", opError{errString("HTTP 429")})
	if tl.Failed != 1 || tl.Wrong != 0 || tl.correct() || tl.failedFrac() != 0.5 {
		t.Fatalf("tally = %+v", tl)
	}
}

// A file-to-answer job whose load or solve errors is a wrong answer: it
// makes the run incorrect, and its time is not a job sample, so a failing
// solver cannot read as a fast one.
func TestFailedJobIsWrongAndUntimed(t *testing.T) {
	w := &jobRunner{jobMs: map[string][]float64{}}
	w.job("pkmc", -1, func(int64, int) error { return errString("solve: out of memory") })
	w.job("pwc", -1, func(int64, int) error { return nil })
	if w.tally.Attempted != 2 || w.tally.Failed != 1 || w.tally.Wrong != 1 {
		t.Fatalf("tally = %+v; want 2 attempted, 1 failed, 1 wrong", w.tally)
	}
	if len(w.jobMs["pkmc"]) != 0 || len(w.jobMs["pwc"]) != 1 {
		t.Fatalf("job samples = %v; want none for the failed pkmc job, one for pwc", w.jobMs)
	}
	line := newResult("file-to-answer", false)
	line.Tally = w.tally
	if m := line.line(false); m["correct"] != false || m["failed"] != 1 {
		t.Fatalf("result line = %v; want correct=false failed=1", m)
	}
}

type errString string

func (e errString) Error() string { return string(e) }

func TestOrderAndDDSChecks(t *testing.T) {
	if err := checkOrder(1.4, 1.5, 3); err != nil {
		t.Fatal(err)
	}
	if checkOrder(1.6, 1.5, 3) == nil || checkOrder(1.4, 3.5, 3) == nil {
		t.Fatal("pkmc ≤ exact ≤ k* violations pass")
	}
	// 2×3 biclique 0,1 -> 2,3,4 plus a stray arc.
	d := newRefDigraph(6, [][2]int32{{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {5, 0}})
	want := 6 / math.Sqrt(6)
	if err := checkDDS(d, []int32{0, 1}, []int32{2, 3, 4}, want, want); err != nil {
		t.Fatal(err)
	}
	if checkDDS(d, []int32{0, 1}, []int32{2, 3, 4}, want+0.1, want) == nil {
		t.Fatal("doctored DDS density passes")
	}
	if checkDDS(d, []int32{5}, []int32{0}, 1, want) == nil {
		t.Fatal("answer below half the planted density passes")
	}
}

// Written in first-appearance order, the text file's ids are the program
// parser's compact ids, so one reference graph checks answers from both
// the text and the binary file.
func TestRelabelMatchesParserIDs(t *testing.T) {
	in := []graph.Edge{{U: 7, V: 3}, {U: 3, V: 9}, {U: 9, V: 7}, {U: 2, V: 7}}
	n, edges, _ := relabel(10, in)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := writeText(path, edges); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	parsed, pn, ids, err := graph.ReadEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	if pn != n {
		t.Fatalf("parser n = %d, relabel n = %d", pn, n)
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("compact id %d has original id %d", i, id)
		}
	}
	for i, e := range parsed {
		if e.U != edges[i][0] || e.V != edges[i][1] {
			t.Fatalf("edge %d: parsed %v, relabelled %v", i, e, edges[i])
		}
	}
}

func TestTailQuantile(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, label := tailQuantile(xs); label != "p98.0" {
		t.Fatalf("500 samples: %s; want p98.0", label)
	}
	xs = append(xs, make([]float64, 1500)...)
	if _, label := tailQuantile(xs); label != "p99.0" {
		t.Fatalf("2000 samples: %s; want p99.0", label)
	}
}
