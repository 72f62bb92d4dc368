package dds

import (
	"runtime/debug"
	"testing"

	"repro/internal/graph"
)

// checkZeroAlloc drives each HotPaths() entry under testing.AllocsPerRun
// and requires zero allocations, with GC disabled so a collection cannot
// interfere with the measurement. It also checks that the runner map and
// the registry cover each other exactly.
func checkZeroAlloc(t *testing.T, entries []string, runners map[string]func()) {
	t.Helper()
	for name := range runners {
		found := false
		for _, e := range entries {
			if e == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("runner %q has no HotPaths() entry", name)
		}
	}
	for _, name := range entries {
		fn, ok := runners[name]
		if !ok {
			t.Errorf("HotPaths() entry %q has no zero-alloc runner", name)
			continue
		}
		fn() // warm any lazily-bound state outside the measurement
		prev := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(100, fn)
		debug.SetGCPercent(prev)
		if allocs != 0 {
			t.Errorf("%s allocates %.0f times per run; hot paths must be allocation-free", name, allocs)
		}
	}
}

func TestHotPathsZeroAlloc(t *testing.T) {
	d := graph.NewDirected(4, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 0, V: 2}, {U: 3, V: 0},
	})
	// p = 1 keeps the parallel helpers inline. peelMin and drain get
	// states of their own, whose arcs are all gone after the first few
	// calls; the other runners share one state they leave reusable.
	st := newPeelState(d)
	drained := newPeelState(d)
	leveled := newPeelState(d)
	var sinkI64 int64
	var sinkB bool
	runners := map[string]func(){
		"peelState.removes": func() { sinkB = st.removes(3, 1) },
		// peel with below = 0 holds for no arc: a full scan, no round.
		"peelState.peel":    func() { sinkI64 = st.peel(0, 0, 1) },
		"peelState.peelMin": func() { sinkI64 = leveled.peelMin(1) },
		// The scans only compact the list and fill the frontier.
		"peelState.scan":      func() { sinkI64 = st.scan(true, 1) },
		"peelState.scanBlock": func() { st.scanBlock(0, len(st.live)) },
		// One bound peel per call: the first removes the arcs under
		// w = 5 through several rounds, later ones find nothing.
		"peelState.drain": func() {
			drained.level, drained.below, drained.exact = 1, 5, 0
			drained.scan(false, 1)
			drained.drain(1)
		},
		// The round kernels re-run one round over arc 0: applyBlock
		// queues its endpoints once per round stamp, recheckBlock walks
		// their arc ranges (its warm-up call claims the arcs under w = 5,
		// weights here are 1..4), and claim finds arc 0 already gone.
		"peelState.applyBlock": func() {
			st.level = 1
			st.front[0] = 0
			st.roundLo = 0
			st.round++
			st.nOut.Store(0)
			st.nIn.Store(0)
			st.applyBlock(0, 1)
		},
		"peelState.recheckBlock": func() {
			st.below, st.exact = 5, 0
			st.nDirtyOut = int(st.nOut.Load())
			st.nFront.Store(1)
			st.recheckBlock(0, st.nDirtyOut+int(st.nIn.Load()))
		},
		"peelState.claim": func() { st.claim(0) },
	}
	checkZeroAlloc(t, HotPaths(), runners)
	_, _ = sinkI64, sinkB
}
